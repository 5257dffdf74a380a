"""Monitoring Rabi oscillations of a single two-level system with unsharp measurements.

The package simulates a resonantly driven two-level system interrogated by
sequences of weak two-outcome measurements, turns the outcome counts into a
best-guess readout of the upper-level population, and reduces the readout
noise spectrally.  Depending on the measurement strength the monitored
system shows quantum jumps, nearly undisturbed Rabi oscillations, or the
intermediate regime in which the readout tracks the oscillation.
"""

__version__ = "0.1.0"
