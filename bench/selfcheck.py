"""Check that the benchmark prints exactly what BENCHMARK.json declares.

    python3 bench/selfcheck.py [--seconds S]

Fails (exit 1) when the workloads defined in bench/sections.py differ from
the declared ones, or when a short run of any workload prints a metric that
is not declared, or leaves a declared one unprinted: the end-to-end metrics
with --trace 0 and the per-layer metrics with --trace 1.  Also checks that
every run reports correct outputs and no failed operations.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from sections import WORKLOADS

    errors = []
    declared = [w["name"] for w in bench["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        errors.append(f"workloads: declared {sorted(declared)}, "
                      f"defined {sorted(WORKLOADS)}")
    for name in declared:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                bench["command"] + ["--workload", name, "--seed", "1",
                                    "--seconds", str(args.seconds),
                                    "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                errors.append(f"{name} --trace {trace}: exit "
                              f"{done.returncode}: {done.stderr.strip()}")
                continue
            res = json.loads(done.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            for m in sorted(set(got) - set(want)):
                errors.append(f"{name} --trace {trace}: undeclared {m}")
            for m in sorted(set(want) - set(got)):
                errors.append(f"{name} --trace {trace}: missing {m}")
            for m in sorted(set(want) & set(got)):
                if want[m] != got[m]:
                    errors.append(f"{name} --trace {trace}: {m} unit "
                                  f"{got[m]} != {want[m]}")
            if not res["correct"] or res["failed"]:
                errors.append(f"{name} --trace {trace}: correct="
                              f"{res['correct']} failed={res['failed']}")
            print(f"{name} --trace {trace}: {len(got)} metrics", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
