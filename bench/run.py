"""cubicff benchmark: one workload, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; cubicff is imported from ./src.  Workloads
and metrics are declared in BENCHMARK.json and described in
bench/README.md.  Every measurement runs in a fresh interpreter
(bench/worker.py), one at a time, so the process-wide caches of cubicff
start empty in each.

--trace 0 prints the end-to-end metrics: the worker's figures, with
`setup_s` the median of five interpreter-start-to-READY times (the
measuring worker and two set-up-only workers before and after it).

--trace 1 prints the per-layer metrics: an untraced worker run for
--seconds, then a traced worker run replaying exactly the same rounds of
the workload's own sections; the difference of their wall times is
`trace.overhead_s`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")  # spans and replay orders
CHILD_TIMEOUT = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv):
    """(seconds from spawn to READY, parsed result line or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER] + argv, cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True)
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise SystemExit(f"worker {argv} exited with {proc.returncode}")
    return ready, (json.loads(lines[-1]) if lines else None)


def plain(common):
    """The measuring worker between two set-up-only workers on each side,
    so the five set-up times span the whole run."""
    def setup_only():
        return run_worker(common + ["--setup-only"])[0]

    setups = [setup_only(), setup_only()]
    ready, res = run_worker(common)
    setups += [ready, setup_only(), setup_only()]
    res["metrics"]["setup_s"] = statistics.median(setups)
    return res


def traced(common, tag):
    _, base = run_worker(common + ["--layers"])
    os.makedirs(OUT_DIR, exist_ok=True)
    replay = os.path.join(OUT_DIR, f"order-{tag}.json")
    with open(replay, "w", encoding="utf-8") as fh:
        json.dump(base["order"], fh)
    _, tr = run_worker(common + ["--replay", replay])
    probe = ("import time; t = time.perf_counter(); import cubicff; "
             "print(time.perf_counter() - t)")
    imports = [float(subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True
    ).stdout) for _ in range(3)]
    base["metrics"] = dict(base["layers"], **tr["layers"])
    base["metrics"]["cli.import_s"] = statistics.median(imports)
    base["metrics"]["trace.overhead_s"] = tr["own_wall_s"] - base["own_wall_s"]
    return base


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cubicff", "__init__.py")):
        print("error: src/cubicff not found; run from a cubicff checkout",
              file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.trace:
        res = traced(common, f"{args.workload}-{args.seed}")
    else:
        res = plain(common)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    for p in res["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    for e in res["errors"]:
        print(f"failed operation: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of.get(k, "undeclared")}
                    for k, v in sorted(res["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
