"""One workload in one fresh interpreter; prints one JSON line at the end.

    python3 bench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--layers] [--replay FILE]

Prints READY once every section's inputs are built.  --setup-only exits
there.  Otherwise the sections' rounds are interleaved for S seconds (see
`schedule`) and the outputs are checked.  --replay FILE instead runs the own
sections' rounds in the order the file lists, with the tracer installed
before set-up, and writes the spans to .bench_out/.  --layers adds the field
and polynomial micro-batches and the comp_red tail.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import sections  # noqa: E402
from sections import (  # noqa: E402
    GF3, GF9, GF27, F3_10, WORKLOADS, ChainSection, ReferenceSection,
    percentile, rand_poly)
from cubicff import places  # noqa: E402

# Fields whose element and polynomial kernels each workload runs on.
FIELDS = {
    "compred-f3_10": (F3_10,),
    "ideals-small-q": (GF3, GF9),
    "split-sweep": (GF3, GF9, GF27),
}


def per_op(fn, operands, min_s=0.2):
    """Seconds per call of fn over the operand list, repeated until min_s."""
    n, t0 = 0, time.perf_counter()
    while True:
        for args in operands:
            fn(*args)
        n += len(operands)
        dt = time.perf_counter() - t0
        if dt >= min_s:
            return dt / n


def kernel_layers(workload, seed):
    """ff.mul_ns, ff.inv_ns and Poly mul/divmod times, averaged over the
    workload's fields, on seeded operands."""
    rng = random.Random(f"{seed}/{workload}/kernels")
    acc = {k: [] for k in ("ff.mul_ns", "ff.inv_ns", "polyring.mul_us.d16",
                           "polyring.mul_us.d64", "polyring.divmod_us.d32")}
    for F in FIELDS[workload]:
        codes = [rng.randrange(1, F.q) for _ in range(512)]
        acc["ff.mul_ns"].append(
            1e9 * per_op(F.mul, list(zip(codes, reversed(codes)))))
        acc["ff.inv_ns"].append(1e9 * per_op(F.inv, [(c,) for c in codes]))
        for deg, n in ((16, 8), (64, 2)):
            ops = [(rand_poly(rng, F, deg), rand_poly(rng, F, deg))
                   for _ in range(n)]
            acc[f"polyring.mul_us.d{deg}"].append(
                1e6 * per_op(lambda a, b: a * b, ops))
        ops = [(rand_poly(rng, F, 64), rand_poly(rng, F, 32)) for _ in range(2)]
        acc["polyring.divmod_us.d32"].append(1e6 * per_op(divmod, ops))
    return {k: statistics.fmean(v) for k, v in acc.items()}


def schedule(plan, seconds):
    """Interleave whole rounds for `seconds`.  A section with a rate makes a
    fixed number of rounds, its rate times `seconds`, spread evenly over
    the run: it runs whenever it is behind that pace.  The one section
    without a rate fills the time in between.  The run ends once `seconds`
    have passed, every paced section has made its rounds and the filling
    section has run.  Returns the order of rounds run and the wall time
    spent in each section."""
    quota = {name: max(1, round(rate * seconds))
             for name, _, rate, _ in plan if rate is not None}
    fill = next(p for p in plan if p[2] is None)
    done = {name: 0 for name, _, _, _ in plan}
    spent = {name: 0.0 for name, _, _, _ in plan}
    order = []
    t_start = time.perf_counter()
    while True:
        pace = min(1.0, (time.perf_counter() - t_start) / seconds)
        behind = [p for p in plan
                  if p[0] in quota and done[p[0]] < quota[p[0]] * pace]
        if behind:
            name, sec, _, _ = min(behind,
                                  key=lambda p: done[p[0]] / quota[p[0]])
        elif pace < 1 or not done[fill[0]]:
            name, sec, _, _ = fill
        else:
            return order, spent
        t0 = time.perf_counter()
        sec.round()
        spent[name] += time.perf_counter() - t0
        done[name] += 1
        order.append(name)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--layers", action="store_true")
    ap.add_argument("--replay", default=None,
                    help="JSON file with the order of own rounds to trace")
    args = ap.parse_args(argv)
    traced = args.replay is not None

    plan = []  # (name, section, rate or None, own)
    for name, make, rate, own in WORKLOADS[args.workload]:
        if traced and not own:
            continue
        rng = random.Random(f"{args.seed}/{args.workload}/{name}" if own
                            else f"side/{name}")
        plan.append((name, make(rng), rate, own))
    own = {name for name, _, _, is_own in plan if is_own}

    if traced:
        from tracing import Tracer

        # read before wrapping; absent if split_finite stops being an
        # lru_cache, and so are the misses and hit ratio then
        split_cache = getattr(places.split_finite, "cache_info", None)
        tracer = Tracer(extra_namespaces=[sections])
        tracer.install()
        cache0 = split_cache() if split_cache else None
        for _, sec, _, _ in plan:
            sec.untimed = tracer.paused

    t_setup = {}
    t0 = time.perf_counter()
    for name, sec, _, _ in plan:
        t1 = time.perf_counter()
        sec.setup()
        t_setup[name] = time.perf_counter() - t1
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if traced:
        with open(args.replay, encoding="utf-8") as fh:
            order = json.load(fh)
        by_name = {name: sec for name, sec, _, _ in plan}
        for name in order:
            by_name[name].round()
    else:
        order, spent = schedule(plan, args.seconds)
    # wall time of the own sections' set-up and rounds, traced or not
    own_wall = (time.perf_counter() - t0 if traced
                else sum(t_setup[name] + spent[name] for name in own))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "order": [name for name in order if name in own],
        "attempted": sum(sec.attempted for _, sec, _, _ in plan),
        "failed": sum(sec.failed for _, sec, _, _ in plan),
        "errors": [e for _, sec, _, _ in plan for e in sec.errors],
        "own_wall_s": own_wall,
    }
    if traced:
        tracer.uninstall()
        cache1 = split_cache() if split_cache else None
        result["layers"] = tracer.metrics(
            (cache1.hits - cache0.hits, cache1.misses - cache0.misses)
            if split_cache else None)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        result["correct"] = True  # outputs are checked in the untraced run
        print(json.dumps(result))
        return 0

    ref = next(sec for _, sec, _, _ in plan
               if isinstance(sec, ReferenceSection))
    metrics = {"peak_rss_mib": peak_rss_mib}
    for _, sec, _, _ in plan:
        metrics.update(sec.metrics(ref))
    # wall-clock figures and the reference slice itself are per-layer
    layer_extra = {k: metrics.pop(k) for k in list(metrics)
                   if k.startswith(("wall.", "ref."))}
    result["metrics"] = metrics
    for _, sec, _, _ in plan:
        sec.check()
    result["problems"] = [p for _, sec, _, _ in plan for p in sec.problems]
    result["correct"] = not result["problems"]
    if args.layers:
        layers = kernel_layers(args.workload, args.seed)
        chain = next(sec for _, sec, _, _ in plan
                     if isinstance(sec, ChainSection))
        layers["classgroup.comp_red.ms_p95"] = 1e3 * percentile(chain.times, 95)
        layers["classgroup.comp_red.samples"] = len(chain.times)
        result["layers"] = dict(layers, **layer_extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
