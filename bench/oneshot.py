"""One timed `python -m cubicff.cli ARGS...` run in this fresh interpreter.

    python3 bench/oneshot.py ARGS...

Runs the CLI module as `-m` would, after 15 reference slices and before 15
more, and prints as the last line of standard output
`ONESHOT <exit code> <seconds> <median reference slice seconds>`.  The
seconds cover importing cubicff and the command; the slices run in the same
process, so they see the host's speed on the same CPU at that moment.
"""

import runpy
import statistics
import sys
import time

from reference import reference_slice


def slices(n):
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_slice()
        out.append(time.perf_counter() - t0)
    return out


def main():
    before = slices(15)
    sys.argv = ["cubicff"] + sys.argv[1:]
    t0 = time.perf_counter()
    try:
        runpy.run_module("cubicff.cli", run_name="__main__")
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None
                                                       else 1)
    t1 = time.perf_counter()
    sys.stdout.flush()
    ref = statistics.median(before + slices(15))
    print(f"ONESHOT {code} {t1 - t0!r} {ref!r}", flush=True)


if __name__ == "__main__":
    main()
