"""Spans and call counts around calls into cubicff, installed from outside.

`Tracer.install()` replaces each target function with a wrapper in every
namespace that holds it: the defining module, every cubicff module that
imported it, and the benchmark's own modules.  A span wrapper records
(name, start, end, parent span) in memory and accumulates inclusive and self
time; a count wrapper only counts calls.  Self time is inclusive time minus
the time spent in wrapped children.  Recursive calls of one function add to
its inclusive time only at the outermost level.
"""

import contextlib
import json
import sys
import time

# (module, attribute) wrapped with spans
SPANS = (
    ("classgroup", "comp_red"),
    ("classgroup", "min_element"),
    ("classgroup", "can_basis"),
    ("idealarith", "ideal_mul"),
    ("idealarith", "ideal_invert"),
    ("idealarith", "ideal_divide"),
    ("idealarith", "ideal_divide_nonprimitive"),
    ("places", "split_finite"),
    ("places", "prime_power_basis"),
    ("polyring", "cubic_residue_factor"),
    ("polyring", "factor"),
    ("curve", "standardize"),
    ("order", "compute_order_data"),
)
# (module, attribute) wrapped with a call count only
COUNTS = (
    ("order", "norm_weight"),
    ("order", "element_mul"),
    ("polyring", "xgcd"),
    ("polyring", "is_irreducible"),
)
# (metric name, class attribute) of Poly methods counted; builtin divmod,
# % and // all go through __divmod__ for non-constant divisors
METHOD_COUNTS = (
    ("polyring.Poly.mul", "__mul__"),
    ("polyring.Poly.divmod", "__divmod__"),
)
MAX_SPANS = 500_000


class Tracer:
    def __init__(self, extra_namespaces=()):
        self.extra = list(extra_namespaces)
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.counts = {}
        self.spans = []
        self.dropped = 0
        self._stack = []  # [span id, name, start, child time]
        self._depth = {}
        self._undo = []
        self._next_id = 0
        self.active = True

    def _namespaces(self):
        mods = [m for n, m in sys.modules.items()
                if n == "cubicff" or n.startswith("cubicff.")]
        return mods + self.extra

    def _replace(self, orig, wrapper):
        for ns in self._namespaces():
            for attr, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, attr, wrapper)
                    self._undo.append((ns, attr, orig))

    def install(self):
        """Wrap every target that exists; a function the package no longer
        has is skipped, so its metrics are absent rather than an error."""
        pkg = sys.modules["cubicff"]
        for mod, attr in SPANS:
            name = f"{mod}.{attr}"
            orig = getattr(getattr(pkg, mod, None), attr, None)
            if orig is None:
                continue
            self.stats[name] = [0, 0.0, 0.0]
            self._replace(orig, self._span_wrapper(name, orig))
        for mod, attr in COUNTS:
            name = f"{mod}.{attr}"
            orig = getattr(getattr(pkg, mod, None), attr, None)
            if orig is None:
                continue
            self.counts[name] = 0
            self._replace(orig, self._count_wrapper(name, orig))
        poly = pkg.polyring.Poly
        for name, attr in METHOD_COUNTS:
            orig = poly.__dict__.get(attr)
            if orig is None:
                continue
            self.counts[name] = 0
            setattr(poly, attr, self._count_wrapper(name, orig))
            self._undo.append((poly, attr, orig))

    def uninstall(self):
        for ns, attr, orig in reversed(self._undo):
            setattr(ns, attr, orig)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside are neither counted nor spanned."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span_wrapper(self, name, fn):
        stats, stack, depth, spans = self.stats, self._stack, self._depth, \
            self.spans
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, clock(), 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                depth[name] -= 1
                st = stats[name]
                st[0] += 1
                st[2] += dur - frame[3]
                if depth[name] == 0:
                    st[1] += dur
                if stack:
                    stack[-1][3] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((sid, parent, name, frame[2], end))
                else:
                    self.dropped += 1

        spanned.__wrapped__ = fn
        return spanned

    def metrics(self, split_finite_info):
        """Per-layer metrics; `split_finite_info` is the (hits, misses)
        delta of split_finite's cache over the traced region, or None."""
        out = {}
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        for name, calls in self.counts.items():
            out[f"{name}.calls"] = calls
        if split_finite_info is not None:
            hits, misses = split_finite_info
            out["places.split_finite.misses"] = misses
            out["places.split_finite.hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0)
        return out

    def write(self, path):
        """All spans as JSON lines: id, parent id, name, start s, end s."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, round(start, 7),
                                     round(end, 7)]) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")


def share_under(path, outer, inner):
    """(time in `inner` spans nested under an `outer` span, time in
    outermost `outer` spans) from a spans file written by Tracer.write."""
    spans = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if isinstance(rec, list):
                spans[rec[0]] = rec

    def under(sid, name):
        parent = spans[sid][1]
        while parent in spans:
            if spans[parent][2] == name:
                return True
            parent = spans[parent][1]
        return False

    inner_s = sum(end - start for sid, _, name, start, end in spans.values()
                  if name == inner and not under(sid, inner)
                  and under(sid, outer))
    outer_s = sum(end - start for sid, _, name, start, end in spans.values()
                  if name == outer and not under(sid, outer))
    return inner_s, outer_s


if __name__ == "__main__":
    # python3 bench/tracing.py SPANS_FILE OUTER INNER
    inner_s, outer_s = share_under(*sys.argv[1:4])
    print(f"{sys.argv[3]} under {sys.argv[2]}: {inner_s:.3f} s of "
          f"{outer_s:.3f} s ({100 * inner_s / outer_s:.1f}%)")
