"""Set-up probe: a fresh interpreter imports the CLI and runs one op.

    python3 perfbench/probe.py <src dir> <cli argv...>

Prints one JSON line with ``time.perf_counter()`` at the end of the op, the
exit code and the op's captured output.  The parent subtracts the time at
which it started this process, so set-up covers interpreter start, import
and any lazy work the first op triggers.
"""

import contextlib
import io
import json
import sys
import time
import warnings


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        from unsharp_monitor import cli

        code = cli.main(sys.argv[2:])
    end = time.perf_counter()
    print(json.dumps({"end": end, "code": code,
                      "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
