"""Benchmark sections: seeded inputs, timed rounds and output checks.

A section owns one kind of work on one set of inputs.  `setup()` builds the
inputs from the section's own random stream with the public cubicff API,
`round()` performs one fixed batch of operations and records their wall
times, and `check()` verifies what the rounds produced against independent
computations or properties the method must have.  Nothing is compared with
stored output.

cubicff functions are called through this module's globals, so the tracer
wraps the benchmark's own calls together with the package's internal ones.
"""

import bisect
import contextlib
import math
import os
import random
import statistics
import subprocess
import sys
import time

import cubicff

from cubicff import (
    GF3,
    Curve,
    Fq,
    Poly,
    comp_red,
    compute_order_data,
    ideal_divide,
    ideal_invert,
    ideal_mul,
    ideal_norm,
    split_finite,
    split_infinite,
    standardize,
)
from cubicff.errors import ApplicabilityError, DomainError, InvariantError
from cubicff.idealarith import ideal_divide_nonprimitive, ideal_mul_coprime
from cubicff.ideals import make_ideal
from cubicff.oracle import oracle_ideal_mul, oracle_split
from cubicff.places import SplitTag, prime_basis, prime_power_basis
from cubicff.polyring import factor, is_irreducible
from reference import reference_slice

GF9 = Fq(2, [1, 0, 1])
GF27 = Fq(3, [1, 2, 0, 1])
# The worked-example field: alpha^10 - alpha^6 - alpha^5 - alpha^4 + alpha - 1.
F3_10 = Fq(10, [2, 1, 0, 0, 2, 2, 2, 0, 0, 0, 1])

# What an operation of the program may raise; counted as a failed operation.
PROGRAM_ERRORS = (ApplicabilityError, DomainError, InvariantError,
                  ZeroDivisionError)


def rand_poly(rng, F, deg, monic=False):
    """A polynomial of exactly degree `deg`."""
    lead = 1 if monic else rng.randrange(1, F.q)
    return Poly(F, [rng.randrange(F.q) for _ in range(deg)] + [lead])


def monic_irreducibles(F, deg):
    out = []
    for code in range(F.q ** deg):
        cs = []
        for _ in range(deg):
            cs.append(code % F.q)
            code //= F.q
        P = Poly(F, cs + [1])
        if is_irreducible(P):
            out.append(P)
    return out


def random_place(rng, F, deg):
    while True:
        P = rand_poly(rng, F, deg, monic=True)
        if is_irreducible(P):
            return P


def f1_primes(P, od):
    """Every prime of residue degree 1 above the place P, as an ideal."""
    st = split_finite(P, od)
    return [prime_basis(P, st, p.key, od) for p in st.primes if p.f == 1]


def raw_curve(rng, F, shape, dega, degb):
    """(T^3 - A T + B before standardize, P) aiming a class-`shape` place at
    P = x - a.

    "I": generic A, B.  "II": P | A.  "III" and "IV": B = P^2 B1 + cA - c^3,
    so the shift c puts P in the index; v_P(A) = 2 gives class III and
    v_P(A) = 1 class IV.  Standardize may move P, so callers that need the
    class check it.  Raises DomainError when B comes out zero.
    """
    x = Poly.x(F)
    P = x - Poly.const(F, rng.randrange(F.q))
    c = Poly.const(F, rng.randrange(1, F.q))
    if shape == "I":
        A, B = rand_poly(rng, F, dega), rand_poly(rng, F, degb)
    elif shape == "II":
        A, B = P * rand_poly(rng, F, dega - 1), rand_poly(rng, F, degb)
    else:
        k = 2 if shape == "III" else 1
        A = P ** k * rand_poly(rng, F, dega - k)
        B = P * P * rand_poly(rng, F, degb - 2) + c * A - c * c * c
    return Curve(A, B), P


def standard_or_none(raw):
    """standardize(raw), or None for a reducible draw (rejected by design)."""
    try:
        return standardize(raw)[0]
    except DomainError:
        return None


CLASSES = {
    "I": lambda st: st.tag not in (SplitTag.TOTALLY_RAMIFIED,
                                   SplitTag.PARTIALLY_RAMIFIED),
    "II": lambda st: (st.tag is SplitTag.TOTALLY_RAMIFIED
                      and not st.index_divides),
    "III": lambda st: st.tag is SplitTag.TOTALLY_RAMIFIED and st.index_divides,
    "IV": lambda st: st.tag is SplitTag.PARTIALLY_RAMIFIED,
}


def draw_curve(rng, F, shape, dega, degb, accept=lambda od: True):
    """(order data, P) of a standard curve whose place P has class `shape`."""
    while True:
        try:
            raw, P = raw_curve(rng, F, shape, dega, degb)
        except DomainError:
            continue
        curve = standard_or_none(raw)
        if curve is None:
            continue
        od = compute_order_data(curve)
        if CLASSES[shape](split_finite(P, od)) and accept(od):
            return od, P


def support_pattern(J):
    """Sorted degrees of the distinct places in the support of J."""
    return tuple(sorted(P.deg for P, _ in factor(J.s))) if J.s.deg > 0 else ()


def stratified_geomean(costs, classes, shares):
    """exp of the share-weighted mean, over the classes of `shares` that
    occur, of each class's mean log cost: the typical cost at the reference
    mix of classes.  Within a class the costs spread about log-normally, and
    the mean of their logs is the steadiest estimate of the typical one for
    the 15-20 costs a run yields.  A short run draws the classes in
    proportions that vary with the seed; the weights keep that draw from
    moving the figure.  Costs of other classes are left out, unless no
    class of `shares` occurs."""
    logs = {}
    for c, k in zip(costs, classes):
        if k in shares:
            logs.setdefault(k, []).append(math.log(c))
    if not logs:
        return statistics.geometric_mean(costs)
    total = sum(shares[k] for k in logs)
    return math.exp(sum(shares[k] / total * statistics.fmean(v)
                        for k, v in logs.items()))


def percentile(xs, p):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, -(-len(s) * p // 100) - 1))]


class Section:
    """Per-operation wall times plus attempted/failed counters.

    `times[i]` is the wall time of the i-th successful operation,
    `stamps[i]` its midpoint on the perf_counter clock and `keys[i]` its
    stratum: the curve or field it ran on."""

    def __init__(self, rng):
        self.rng = rng
        self.times = []
        self.stamps = []
        self.keys = []
        self.attempted = 0
        self.failed = 0
        self.errors = []  # what the failed operations raised
        self.problems = []  # output checks that did not hold
        # context for the benchmark's own untimed work inside a round; the
        # tracer swaps in its pause so that work is not traced either
        self.untimed = contextlib.nullcontext

    def fail(self, what, err, n=1):
        self.failed += n
        self.errors.append(f"{what}: {type(err).__name__}: {err}")

    def record(self, t0, t1, key=None):
        self.times.append(t1 - t0)
        self.stamps.append((t0 + t1) / 2)
        self.keys.append(key)

    def costs(self, ref):
        """Each operation's wall time in reference units, or in seconds
        when `ref` is None."""
        if ref is None:
            return list(self.times)
        return [t / ref.at(m) for t, m in zip(self.times, self.stamps)]

    def strata_p50(self, ref, skip=0):
        """{stratum: median cost of its operations after its first `skip`}.
        Operations on different curves cost different amounts, and the
        median of such a mixture jumps between its modes with the seed;
        the median within a stratum does not."""
        by = {}
        for c, k in zip(self.costs(ref), self.keys):
            by.setdefault(k, []).append(c)
        return {k: statistics.median(cs[skip:] if len(cs) > skip else cs)
                for k, cs in by.items()}


class ReferenceSection(Section):
    """Host speed all through the run: one reference slice per round.

    The host's speed swings by a quarter and more in spells of seconds to
    minutes; a slice run right next to an operation slows down with it.
    Every timed operation is divided by the median of the slices around
    it in time, so the end-to-end costs are in reference units: how many
    reference slices the operation takes."""

    NEAREST = 31

    def setup(self):
        for _ in range(20):  # warm-up, not recorded
            reference_slice()

    def round(self):
        t0 = time.perf_counter()
        reference_slice()
        self.record(t0, time.perf_counter())

    def at(self, t):
        """Median time of NEAREST consecutive slices, about half of them
        before clock time t and half after."""
        i = bisect.bisect_left(self.stamps, t)
        n = self.NEAREST
        lo = max(0, min(i - n // 2, len(self.stamps) - n))
        return statistics.median(self.times[lo:lo + n])

    def metrics(self, ref):
        return {"ref.slice_us": 1e6 * statistics.median(self.times)}

    def check(self):
        pass


class ChainSection(Section):
    """D <- comp_red(D, G_k), G_k drawn from a pool of primes; one step on
    every curve per round.  The first `warmup` rounds, in which the chains
    leave the small supports of the pool, are not counted in the metrics."""

    def __init__(self, rng, curves, sample, warmup, strata=None):
        super().__init__(rng)
        self.curves = curves  # rng -> [(order data, generator pool)]
        self.sample = sample  # steps per curve re-derived by group laws
        self.warmup = warmup
        self.strata = strata  # reference support-pattern shares, see metrics
        self.chains = []
        self.outs = []  # results, in the order of `times`

    def setup(self):
        for od, pool in self.curves(self.rng):
            self.chains.append({"od": od, "pool": pool, "D": pool[0],
                                "steps": []})

    def round(self):
        for i, ch in enumerate(self.chains):
            G = ch["pool"][self.rng.randrange(len(ch["pool"]))]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = comp_red(ch["D"], G, ch["od"])
            except PROGRAM_ERRORS as e:
                self.fail("comp_red", e)
                continue
            self.record(t0, time.perf_counter(), i)
            self.outs.append(out)
            ch["steps"].append((ch["D"], G, out))
            ch["D"] = out

    def metrics(self, ref):
        """Typical step cost: the mean over curves of each curve's median,
        or, with strata (one chain), the geometric mean over steps weighted
        by the support pattern of the result."""
        def typical(ref):
            if self.strata is None:
                return statistics.fmean(
                    self.strata_p50(ref, self.warmup).values())
            skip = self.warmup if len(self.times) > self.warmup else 0
            classes = [support_pattern(out) for out in self.outs]
            return stratified_geomean(self.costs(ref)[skip:], classes[skip:],
                                      self.strata)

        return {"compred_step_ref": typical(ref),
                "wall.compred_step_ms": 1e3 * typical(None)}

    def check(self):
        """Every result is reduced; on a seeded sample of steps the group
        laws hold: commutativity, r * r^-1 = 1, and D_{k+2} recomputed from
        the same generators bracketed the other way."""
        rng = random.Random(self.rng.random())
        for ch in self.chains:
            od, steps = ch["od"], ch["steps"]
            for _, _, out in steps:
                if not out.is_primitive() or ideal_norm(out).deg > od.genus:
                    self.problems.append("comp_red result is not reduced")
            n = len(steps) - 1
            for k in rng.sample(range(n), min(self.sample, n)) if n > 0 else ():
                D, G, out = steps[k]
                _, G2, out2 = steps[k + 1]
                if comp_red(G, D, od) != out:
                    self.problems.append("comp_red is not commutative")
                if not comp_red(out, ideal_invert(out, od), od).is_unit():
                    self.problems.append("comp_red(r, r^-1) is not the unit")
                if comp_red(D, comp_red(G2, G, od), od) != out2:
                    self.problems.append("comp_red is not associative")


def f3_10_chain_curves(rng):
    """The worked-example curve T^3 - T + x^4 + alpha over F_3^10 (genus 3)
    and a pool of six degree-1 primes, one above each of six random
    completely split degree-1 places.  Distinct places keep products of
    pool primes from being principal, so every chain leaves the pool's
    support after the same two steps."""
    F = F3_10
    x = Poly.x(F)
    B = x ** 4 + Poly.const(F, F.encode([0, 1] + [0] * 8))
    od = compute_order_data(standardize(Curve(Poly.one(F), B))[0])
    pool, used = [], set()
    while len(pool) < 6:
        P = x - Poly.const(F, rng.randrange(F.q))
        primes = f1_primes(P, od)
        if primes and P not in used:
            used.add(P)
            pool.append(primes[rng.randrange(len(primes))])
    return [(od, pool)]


# Shares of the support patterns of a random monic cubic over a large field:
# irreducible, linear times irreducible quadratic, three linear factors.
# Reduced divisors on the genus-3 chain have such cubic supports.
CUBIC_PATTERNS = {(3,): 1 / 3, (1, 2): 1 / 2, (1, 1, 1): 1 / 6}


# (class of the ramified place, genus, deg A, deg B) of the GF(3) chains;
# two curves of each kind, so no single draw sets the figures
SMALL_CHAINS = (("II", 7, 2, 8), ("III", 8, 3, 10), ("IV", 6, 2, 8)) * 2


def small_chain_curves(rng):
    """Six distinguished curves over GF(3), two each of genus 7, 8 and 6
    with a class II, III and IV place; each pool holds every
    residue-degree-1 prime above the places of degree <= 2.  The curves come
    from a fixed stream, not from `rng`: the seed picks the chain steps, and
    the cost of a step does not hinge on which curves a seed drew."""
    places = monic_irreducibles(GF3, 1) + monic_irreducibles(GF3, 2)
    curve_rng = random.Random("gf3-chain-curves")
    out = []
    for shape, genus, dega, degb in SMALL_CHAINS:
        od, _ = draw_curve(
            curve_rng, GF3, shape, dega, degb,
            lambda od: od.distinguished_ok and od.genus == genus)
        out.append((od, [J for P in places for J in f1_primes(P, od)]))
    return out


# (class of the ramified place, deg A, deg B) of the GF(9) ideal curves
IDEAL_CURVES = (("I", 2, 4), ("II", 2, 4), ("III", 3, 5), ("IV", 2, 4))


class IdealSection(Section):
    """ideal_mul / ideal_invert / ideal_divide triples on non-unit
    mixed-support ideals over GF(9); one triple per curve per round.  The
    pool's places are split while it is built, so the triples run on warm
    split_finite caches."""

    POOL = 12

    def __init__(self, rng, sample):
        super().__init__(rng)
        self.sample = sample  # triples per run checked against the oracle
        self.curves = []
        self.records = []

    def setup(self):
        """The curves come from a fixed stream; the seed draws the pools and
        the pairs."""
        curve_rng = random.Random("gf9-ideal-curves")
        for shape, dega, degb in IDEAL_CURVES:
            od, P = draw_curve(curve_rng, GF9, shape, dega, degb)
            self.curves.append((od, self._pool(od, P, shape)))

    def _pool(self, od, P, shape):
        """Coprime products, all of one make-up: the k-th ideal is the
        (1 + k mod 2)-th power of a prime above the class-`shape` place P
        (for class I, a prime above a random degree-3 place instead) times
        primes above a random degree-1 and a random degree-2 place.  Primes
        are of residue degree 1 or 2; supports have degree at most 6."""
        pool = []
        while len(pool) < self.POOL:
            if shape == "I":
                parts = self._random_prime(od, 3, set())
            else:
                st = split_finite(P, od)
                key = st.primes[self.rng.randrange(len(st.primes))].key
                e = 1 + len(pool) % 2
                parts = [prime_power_basis(P, od, {key: e}, st)
                         .primitive_part()]
            used = {P}
            for deg in (1, 2):
                parts += self._random_prime(od, deg, used)
            J = parts[0]
            for part in parts[1:]:
                J = ideal_mul_coprime(J, part)
            pool.append(J)
        return pool

    def _random_prime(self, od, deg, used):
        """[a random non-inert prime above a random place of degree `deg`
        outside `used`], the place added to `used`."""
        while True:
            Q = random_place(self.rng, od.ctx, deg)
            st = split_finite(Q, od)
            primes = [p for p in st.primes if p.f < 3]
            if Q not in used and primes:
                used.add(Q)
                key = primes[self.rng.randrange(len(primes))].key
                return [prime_basis(Q, st, key, od)]

    def round(self):
        for i, (od, pool) in enumerate(self.curves):
            J1 = pool[self.rng.randrange(len(pool))]
            J2 = pool[self.rng.randrange(len(pool))]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                D, P3 = ideal_mul(J1, J2, od)
                inv = ideal_invert(J1, od)
                if D.is_one():
                    content, quo = Poly.one(GF9), ideal_divide(P3, J1, od)
                else:
                    content, quo = ideal_divide_nonprimitive(D, P3, J1, od)
            except PROGRAM_ERRORS as e:
                self.fail("ideal triple", e)
                continue
            self.record(t0, time.perf_counter(), i)
            self.records.append((od, J1, J2, D, P3, inv, content, quo))

    def metrics(self, ref):
        """The mean over curves of each curve's median triple cost."""
        return {"ideal_triple_p50_ref": statistics.fmean(
                    self.strata_p50(ref).values()),
                "wall.ideal_ops_per_s": 1 / statistics.fmean(
                    self.strata_p50(None).values())}

    def check(self):
        """On a seeded sample: the product equals the nine-product oracle
        and norms multiply, J * inv(J) = <s>, and (J1 J2) / J1 = J2."""
        rng = random.Random(self.rng.random())
        recs = self.records
        for od, J1, J2, D, P3, inv, content, quo in rng.sample(
                recs, min(self.sample, len(recs))):
            fast = make_ideal(D * P3.d, P3.s, P3.sp, P3.spp, P3.u, P3.w, P3.v)
            if fast != oracle_ideal_mul(J1, J2, od):
                self.problems.append("ideal_mul disagrees with the oracle")
            if ideal_norm(fast) != (ideal_norm(J1) * ideal_norm(J2)).monic():
                self.problems.append("ideal norm is not multiplicative")
            back = oracle_ideal_mul(J1, inv, od)
            if not (back.primitive_part().is_unit() and back.d == J1.s):
                self.problems.append("J * inv(J) is not <s>")
            if not content.is_one() or quo != J2:
                self.problems.append("(J1 * J2) / J1 is not J2")


def sweep_curve(rng, F):
    """A raw curve that standardizes; the four styles aim a class I-IV place
    at a random degree-1 place."""
    while True:
        shape = ("I", "II", "III", "IV")[rng.randrange(4)]
        try:
            raw, _ = raw_curve(rng, F, shape, rng.randrange(2, 4),
                               rng.randrange(3, 6))
        except DomainError:
            continue
        if standard_or_none(raw) is not None:
            return raw


class SweepSection(Section):
    """Fresh random curves: standardize, order data, then split every place
    of degree <= 2 and the place at infinity; one curve per field per
    round.  `times` holds one entry per curve."""

    def __init__(self, rng, fields, sample):
        super().__init__(rng)
        self.fields = fields
        self.sample = sample  # (place, curve) pairs checked by the oracle
        self.places = {}
        self.records = []

    def setup(self):
        for F in self.fields:
            self.places[F] = monic_irreducibles(F, 1) + monic_irreducibles(F, 2)

    def round(self):
        for F in self.fields:
            with self.untimed():
                raw = sweep_curve(self.rng, F)
            n = len(self.places[F]) + 1
            self.attempted += n
            t0 = time.perf_counter()
            try:
                curve, _ = standardize(raw)
                od = compute_order_data(curve)
                splits = [(P, split_finite(P, od)) for P in self.places[F]]
                inf = split_infinite(curve)
            except PROGRAM_ERRORS as e:
                self.fail("sweep", e, n)
                continue
            self.record(t0, time.perf_counter(), F)
            self.records.append((curve, od, splits, inf))

    def metrics(self, ref):
        """The cost of one round at the median curve cost of each field,
        per place of the round; the median leaves out the first curve of a
        field, which builds that field's residue tables."""
        places = sum(len(self.places[F]) + 1 for F in self.fields)

        def per_place(ref):
            return sum(self.strata_p50(ref).values()) / places

        return {"split_place_ref": per_place(ref),
                "wall.split_per_s": 1 / per_place(None)}

    def check(self):
        """Every residue root solves the rho cubic mod P, infinity matches a
        root count of the constant cubic, N_1 and N_2 obey Hasse-Weil, and
        a seeded sample of splittings equals the enumeration oracle."""
        rng = random.Random(self.rng.random())
        for curve, od, splits, inf in self.records:
            fi2 = od.F * od.I * od.I
            for P, st in splits:
                for p in st.primes:
                    if p.root is not None and not (
                            (p.root ** 3 - od.A * p.root + fi2) % P).is_zero():
                        self.problems.append("split root is not a root")
            if inf.tag is not infinite_by_enumeration(curve):
                self.problems.append("infinite splitting disagrees")
            # places of degree 1 and 2 of the function field
            deg1 = sum(p.f == 1 for P, st in splits if P.deg == 1
                       for p in st.primes) + sum(p.f == 1 for p in inf.primes)
            deg2 = sum(p.f * P.deg == 2 for P, st in splits
                       for p in st.primes) + sum(p.f == 2 for p in inf.primes)
            q, g = od.ctx.q, od.genus
            for k, n in ((1, deg1), (2, deg1 + 2 * deg2)):
                if abs(n - (q ** k + 1)) > 2 * g * q ** (k / 2):
                    self.problems.append(
                        f"Hasse-Weil bound broken: N{k}={n}, q={q}, g={g}")
        pairs = [(od, P, st) for _, od, splits, _ in self.records
                 for P, st in splits]
        for od, P, st in rng.sample(pairs, min(self.sample, len(pairs))):
            ref = oracle_split(P, od)
            if (st.tag, st.index_divides,
                    [(p.e, p.f, p.root, p.quad) for p in st.primes]) != (
                    ref.tag, ref.index_divides,
                    [(p.e, p.f, p.root, p.quad) for p in ref.primes]):
                self.problems.append("split_finite disagrees with the oracle")


def infinite_by_enumeration(c):
    """The place at infinity from the degree criteria and a literal root
    count of Y^3 - a_2n Y + b_3n over F_q."""
    F = c.ctx
    if c.criterion_wild():
        return SplitTag.TOTALLY_RAMIFIED
    if c.A.deg % 2 == 1:
        return SplitTag.PARTIALLY_RAMIFIED
    n = c.A.deg // 2
    a2n, b3n = c.A.lc(), c.B.coeff(3 * n)
    roots = sum(F.add(F.sub(F.pow(y, 3), F.mul(a2n, y)), b3n) == 0
                for y in range(F.q))
    return {0: SplitTag.INERT, 1: SplitTag.PARTIALLY_SPLIT,
            3: SplitTag.COMPLETELY_SPLIT}[roots]


class VerifySection(Section):
    """One-shot `python -m cubicff.cli verify-example` runs, each in a fresh
    interpreter (bench/oneshot.py), while this process waits.  The child
    times the import of cubicff and the command, and runs its own reference
    slices: it may run on another CPU than this process, at another
    speed."""

    def __init__(self, rng):
        super().__init__(rng)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            cubicff.__file__)))
        here = os.path.dirname(os.path.abspath(__file__))
        self.argv = [sys.executable, os.path.join(here, "oneshot.py"),
                     "verify-example"]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, here)))
        self.refs = []  # the child's median reference slice per run

    def setup(self):
        pass

    def round(self):
        self.attempted += 1
        done = subprocess.run(self.argv, env=self.env, capture_output=True,
                              text=True, timeout=60)
        lines = done.stdout.splitlines()
        tag, code, secs, ref = (lines[-1].split() if lines
                                else ("", "1", "0", "0"))
        if done.returncode != 0 or tag != "ONESHOT" or code != "0":
            self.failed += 1
            self.errors.append(f"verify-example exited {code}: "
                               f"{done.stderr.strip()[-200:]}")
            return
        self.times.append(float(secs))
        self.refs.append(float(ref))
        if "verified = true" not in lines:
            self.problems.append("verify-example did not print verified = true")

    def metrics(self, ref):
        """Median of the runs' import-and-command time, over the child's
        own reference slice."""
        return {"verify_example_ref": statistics.median(
                    t / r for t, r in zip(self.times, self.refs)),
                "wall.verify_example_s": statistics.median(self.times)}

    def check(self):
        pass


# Each workload: (section name, constructor, rate, own).  A section with a
# rate makes rate * --seconds rounds, spread evenly over the run; the one
# section with rate None fills the time in between (see worker.schedule).
# Own sections are the workload's purpose, draw their inputs from the seed
# and are the only ones traced.  The GF(3) chains of ideals-small-q are
# paced, not filling, because every new place they meet adds residue tables
# to the process for good: paced, a run's peak memory follows the seed, not
# the host's speed.  Side sections measure the end-to-end metrics the own
# inputs do not exercise (every run prints every end-to-end metric).  They
# draw from a fixed stream, so they do the same work on every run.  They
# draw their own curves, so they share no split_finite entries with the own
# sections; the residue tables they build are for places of degree <= 2,
# which the own sections' set-up has split.  The reference section times
# the host's speed for the others.
SIDE = {
    "chain": lambda r: ChainSection(r, small_chain_curves, 1, 10),
    "ideals": lambda r: IdealSection(r, 8),
    "sweep": lambda r: SweepSection(r, (GF3, GF9), 4),
    "verify": VerifySection,
    "reference": ReferenceSection,
}


def side(name, rate):
    return (name, SIDE[name], rate, False)


WORKLOADS = {
    "compred-f3_10": (
        ("chain", lambda r: ChainSection(r, f3_10_chain_curves, 1, 2,
                                         CUBIC_PATTERNS), None, True),
        side("ideals", 1.5), side("sweep", 2), side("verify", 0.25),
        side("reference", 50),
    ),
    "ideals-small-q": (
        ("chain", lambda r: ChainSection(r, small_chain_curves, 3, 10), 3,
         True),
        ("ideals", lambda r: IdealSection(r, 24), None, True),
        side("sweep", 5), side("verify", 0.4), side("reference", 50),
    ),
    "split-sweep": (
        ("sweep", lambda r: SweepSection(r, (GF3, GF9, GF27), 16), None,
         True),
        side("chain", 1.5), side("ideals", 3), side("verify", 0.4),
        side("reference", 50),
    ),
}
