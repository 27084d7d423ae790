"""Standard models: depression, singular-factor removal, degree reduction,
idempotence, singularity and Galois detection."""

import itertools
from collections import Counter
from pathlib import Path

import pytest

import cubicff.curve
import cubicff.polyring
from cubicff.cli import parse_curve
from cubicff.errors import DomainError
from cubicff.polyring import (
    Poly,
    cube_root_mod,
    cubic_poly_root,
    exact_div,
    factor,
    valuation,
)
from cubicff.order import compute_order_data
from cubicff.curve import (
    Curve,
    GeneralCubic,
    depress,
    detect_singularity,
    is_artin_schreier,
    reduce_b_degree,
    remove_singular_factor,
    standardize,
)

from conftest import example62_curve, rand_poly, seeded

DATA = Path(__file__).parent / "data"


def test_depress_u_zero(gf3):
    x = Poly.x(gf3)
    one = Poly.one(gf3)
    c, _ = depress(GeneralCubic(one, Poly.zero(gf3), one, x))
    assert c.A == Poly.const(gf3, 2) and c.B == x
    c, _ = depress(GeneralCubic(one, Poly.zero(gf3), -x, x))
    assert c.A == x and c.B == x


def depressed_root_relation_holds(g, c):
    """Verify the stated root relation as a polynomial identity mod H.

    U = 0: y' = S y satisfies T^3 - A T + B.
    U != 0: y' = N/(U y - V) with N = S V^3 - U^2 V^2 + U^3 W; check
    N^3 - A N (Uy - V)^2 + B (Uy - V)^3 = 0 modulo H by pseudo-division.
    """
    F = g.S.ctx
    zero = Poly.zero(F)
    if g.U.is_zero():
        comp = [c.B, -(c.A * g.S), zero, g.S ** 3]
        target = [g.S * g.S * g.W, g.S * g.S * g.V, zero, g.S ** 3]
        return comp == target

    def mul(a, b):
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return out

    def add(a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, cb in enumerate(b):
            out[i] = out[i] + cb
        return out

    n = g.S * g.V ** 3 - g.U * g.U * g.V * g.V + g.U ** 3 * g.W
    lin = [-g.V, g.U]
    lin2 = mul(lin, lin)
    expr = add(add([n ** 3], mul([-(c.A * n)], lin2)), mul([c.B], mul(lin2, lin)))
    H = [g.W, g.V, g.U, g.S]
    e = list(expr)
    while len(e) - 1 >= 3:
        lead = e[-1]
        shift = len(e) - 1 - 3
        e = [g.S * t for t in e]
        for j in range(4):
            e[shift + j] = e[shift + j] - lead * H[j]
        while e and e[-1].is_zero():
            e.pop()
    return all(t.is_zero() for t in e)


def test_depress_u_nonzero_preserves_field(gf3):
    x = Poly.x(gf3)
    one = Poly.one(gf3)
    g = GeneralCubic(one, one, Poly.zero(gf3), x)
    c, _ = depress(g)
    # direct reciprocal of T^3 + T^2 + x: (x z)^3 + x (x z) + x^2 = 0
    assert c.A == -x and c.B == x * x
    assert depressed_root_relation_holds(g, c)


def test_depress_degenerate(gf3):
    one = Poly.one(gf3)
    with pytest.raises(DomainError):
        GeneralCubic(one, Poly.zero(gf3), Poly.zero(gf3), Poly.x(gf3))
    # N = 0: S=1, U=1, V=0, W=0 is rejected earlier by W != 0; use V=W choices
    # giving S V^3 - U^2 V^2 + U^3 W = 0: V = 0, W != 0 forces N = W != 0, so
    # build N = 0 with V = 1: S - U^2 + U^3 W = 0 -> S = U^2 - U^3 W
    x = Poly.x(gf3)
    U, V, W = x, one, one
    S = U * U - U ** 3 * W
    with pytest.raises(DomainError):
        depress(GeneralCubic(S, U, V, W))


def test_remove_singular_factor(gf3):
    x = Poly.x(gf3)
    one = Poly.one(gf3)
    # A unit: nothing to remove
    assert remove_singular_factor(Curve(one, x)) is None
    # constructed removable factor at Q = x with i = 0
    A = x * x
    B = x ** 3 * (x + one)
    step = remove_singular_factor(Curve(A, B))
    assert step is not None
    c2, Q, i = step
    assert Q == x and i.is_zero()
    assert c2.A == Poly.one(gf3) and c2.B == x + one
    # the singular example curve is already standard
    assert remove_singular_factor(example62_curve()) is None



def _reference_scan(c):
    """(removal, index) found by scanning every factor of A: the first P
    with P^2 | A and v_P(i0^3 - i0*A + B) >= 3 as (P, i0, val), or None,
    and the product of the P | A with v_P >= 2."""
    removal, index = None, Poly.one(c.ctx)
    for P, e in factor(c.A) if c.A.deg >= 1 else ():
        i0 = cube_root_mod(-c.B, P)
        val = i0 ** 3 - i0 * c.A + c.B
        v = valuation(val, P) if not val.is_zero() else 3
        if removal is None and e >= 2 and v >= 3:
            removal = (P, i0, val)
        if v >= 2:
            index = index * P
    return removal, index


def test_singular_scan_matches_reference(gf3, gf9):
    """remove_singular_factor and compute_order_data scan only the factors
    of the singularity gcd d; a reference that scans every P with P^2 | A
    finds the same removal, the same index and the same rejections, over
    seeded curves with squared factors in A, removable or not."""
    rng = seeded(1401)
    removals = outside_d = ods = 0
    for n in range(240):
        F = (gf3, gf9)[n % 2]
        q = Poly.x(F) - Poly.const(F, rng.randrange(F.q))
        if n % 3 == 0:
            q = q * q - Poly.const(F, rng.randrange(F.q))
        A = q * q * rand_poly(rng, F, 2, nonzero=True)
        i = rand_poly(rng, F, 2)
        B = -(i ** 3 - i * A) + q ** (2 + n % 3 // 2) * rand_poly(rng, F, 3)
        if n % 5 == 0:
            B = rand_poly(rng, F, 6, nonzero=True)
        if B.is_zero():
            continue
        c = Curve(A, B)
        d = detect_singularity(c)[0]
        outside_d += sum(1 for P, e in factor(A)
                         if e >= 2 and not (d % P).is_zero())
        ref, index = _reference_scan(c)
        if ref is None:
            assert remove_singular_factor(c) is None
        elif ref[2].is_zero():
            with pytest.raises(DomainError, match="B vanished"):
                remove_singular_factor(c)
        else:
            P, i0, val = ref
            assert (d % P).is_zero()
            want = (Curve(exact_div(A, P * P), exact_div(val, P ** 3)), P, i0)
            assert remove_singular_factor(c) == want
            removals += 1
        if c.criterion_wild() == c.criterion_tame():
            continue
        try:
            od = compute_order_data(c)
        except DomainError as exc:
            assert ref is not None or "is a root" in str(exc), exc
            continue
        assert ref is None and od.I == index
        ods += 1
    assert removals >= 60 and outside_d >= 30 and ods >= 80, (
        removals, outside_d, ods)

def test_reduce_b_degree(gf3):
    x = Poly.x(gf3)
    one = Poly.one(gf3)
    # criterion already wild: unchanged
    c, recs = reduce_b_degree(Curve(one, x ** 4 + x))
    assert recs == [] and c.B == x ** 4 + x
    # B = x^3, A = 1: one substitution gives B' = A*x = x
    c, recs = reduce_b_degree(Curve(one, x ** 3))
    assert len(recs) == 1 and c.B == x
    # tame criterion: unchanged
    big = x ** 3
    c, recs = reduce_b_degree(Curve(big * big, x ** 3 + one))
    assert recs == [] or c.criterion_tame()


def test_standardize_fixed_points(s13, ex62):
    c13 = s13["curve"]
    cs, tr = standardize(c13)
    assert cs == c13 and tr == []
    assert cs.criterion_wild() and not cs.criterion_tame()
    c62, _ = ex62
    cs, tr = standardize(c62)
    assert cs == c62 and tr == []
    assert cs.criterion_wild()


def test_standardize_constant_b(gf3, gf9):
    """A constant B with a non-constant A is a curve: its root check factors
    nothing.  A constant A as well leaves a cubic with constant coefficients,
    which splits over an extension of F_q and is rejected as such."""
    for F in (gf3, gf9):
        x = Poly.x(F)
        one = Poly.one(F)
        for A, genus in ((x, 0), (x * x, 0), (x * x + x, 1)):
            cs, tr = standardize(Curve(A, one))
            assert cs == Curve(A, one) and tr == []
            assert compute_order_data(cs).genus == genus
        for c in (Curve(one, one), Curve(one, Poly.const(F, 2))):
            with pytest.raises(DomainError, match="geometrically reducible"):
                standardize(c)
    # singular-factor removal at x leaves A = B = 1 (T^3 - T + 1 over GF(3))
    raw = Curve(Poly.from_ints(gf3, [0, 0, 1]),
                Poly.from_ints(gf3, [2, 0, 1, 1]))
    with pytest.raises(DomainError, match="geometrically reducible"):
        standardize(raw)


def test_detect_singularity(gf3, s13, ex62):
    x = Poly.x(gf3)
    one = Poly.one(gf3)
    d, nonsing = detect_singularity(s13["curve"])
    assert nonsing and d.is_one()
    c62, _ = ex62
    d, nonsing = detect_singularity(c62)
    assert not nonsing and d == c62.A.monic()
    d, nonsing = detect_singularity(Curve(x, one))
    assert nonsing


def test_artin_schreier(gf3, s13):
    x = Poly.x(gf3)
    assert is_artin_schreier(s13["curve"])  # A = 1 = 1^2
    assert not is_artin_schreier(Curve(x, x + Poly.one(gf3)))
    assert is_artin_schreier(Curve(x * x, Poly.one(gf3) + x ** 4))


def test_artin_schreier_by_squaring(gf3, gf9):
    """A is a square in F_q[x] exactly when it is g^2 with 2 deg g = deg A:
    every A of degree <= 4 over GF(3), and a sample with planted squares
    over GF(9), against the squares of all g of degree <= 2."""
    for F, sample in ((gf3, None), (gf9, 300)):
        polys = [Poly(F, cs) for cs in itertools.product(range(F.q), repeat=3)]
        squares = {(g * g).c for g in polys}
        if sample is None:
            As = [Poly(F, cs)
                  for cs in itertools.product(range(F.q), repeat=5)]
        else:
            rng = seeded(1503)
            As = []
            for _ in range(sample // 2):
                g = polys[rng.randrange(len(polys))]
                As += [rand_poly(rng, F, 4), g * g]
        verdicts = Counter()
        for A in As:
            if A.is_zero():
                continue
            got = is_artin_schreier(Curve(A, Poly.one(F)))
            assert got == (A.c in squares), A.c
            verdicts[got] += 1
        assert verdicts[True] >= 13 and verdicts[False] >= 100


def brute_poly_roots(A, B, k):
    """Every r in F_q[x] with deg r <= k and r^3 - A r + B = 0, by trying
    each one: the constant term by field arithmetic first, then the whole
    cubic in F_q[x]."""
    F = A.ctx
    a0, b0 = A.coeff(0), B.coeff(0)
    roots = []
    for r0 in range(F.q):
        if F.add(F.sub(F.mul(r0, F.mul(r0, r0)), F.mul(a0, r0)), b0):
            continue
        for rest in itertools.product(range(F.q), repeat=k):
            r = Poly(F, (r0,) + rest)
            if (r * r * r - A * r + B).is_zero():
                roots.append(r)
    return roots


@pytest.mark.parametrize("m", [1, 2])
def test_poly_root_matches_brute_force(gf3, gf9, m):
    """`cubic_poly_root` and standardize's reducibility verdict against
    `brute_poly_roots` over every r with deg r <= deg A // 2, on seeded
    pairs with a planted root of that degree, a constant B, and a random
    tame B."""
    F = gf3 if m == 1 else gf9
    rng = seeded(1500 + m)
    seen = Counter()
    for t in range(150):
        A = rand_poly(rng, F, 7 if m == 1 else 5)
        if A.deg < 1:
            continue
        k = A.deg // 2
        kind = ("planted", "constant", "random")[t % 3]
        if kind == "planted":
            r = Poly(F, [rng.randrange(F.q) for _ in range(k)]
                     + [rng.randrange(1, F.q)])
            B = A * r - r * r * r
        elif kind == "constant":
            B = Poly.const(F, rng.randrange(1, F.q))
        else:
            B = rand_poly(rng, F, 3 * A.deg // 2, nonzero=True)
        if B.is_zero():
            continue
        roots = brute_poly_roots(A, B, k)
        got = cubic_poly_root(A, B, k)
        assert (got is None) == (not roots)
        assert got is None or got in roots
        c = Curve(A, B)
        try:
            kept = remove_singular_factor(c) is None
        except DomainError:  # B vanishes in the removal: c is reducible
            continue
        if kept:  # tame: standardize keeps c or rejects it
            if roots:
                with pytest.raises(DomainError, match="polynomial root"):
                    standardize(c)
            else:
                assert standardize(c) == (c, [])
            seen[kind, bool(roots)] += 1
    assert seen["planted", True] >= 20
    assert seen["constant", False] >= 10 and seen["random", False] >= 20


def test_gf27_linear_b_has_no_polynomial_root():
    """B is the product of the 15 linears x - c, c = 0..14, so a divisor
    search has 2^15 monic candidates.  A root r in F_27[x] would make r(15)
    a root in F_27 of T^3 - A(15) T + B(15), and no element of F_27 is."""
    F, c = parse_curve((DATA / "tame_gf27_linear_b.curve").read_text())
    x = Poly.x(F)
    B = Poly.one(F)
    for code in range(15):
        B = B * (x - Poly.const(F, code))
    assert c.B == B and c.criterion_tame()
    at, bt = c.A.eval(15), B.eval(15)
    for v in range(F.q):
        assert F.add(F.sub(F.mul(v, F.mul(v, v)), F.mul(at, v)), bt) != 0
    assert cubic_poly_root(c.A, c.B, c.A.deg // 2) is None
    assert standardize(c) == (c, [])


def test_root_and_artin_schreier_tests_factor_nothing(monkeypatch, gf3):
    calls = []
    real = cubicff.polyring.factor

    def spy(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(cubicff.polyring, "factor", spy)
    monkeypatch.setattr(cubicff.curve, "factor", spy)
    _, c27 = parse_curve((DATA / "tame_gf27_linear_b.curve").read_text())
    x1 = Poly.x(gf3) + Poly.one(gf3)
    rooted = Curve(x1 ** 4, x1 ** 5 - x1 ** 3)  # the root T = x + 1
    for c in (c27, Curve(x1 ** 4, x1)):
        cubicff.curve._reject_polynomial_root(c)
    with pytest.raises(DomainError, match="polynomial root"):
        cubicff.curve._reject_polynomial_root(rooted)
    assert not is_artin_schreier(c27) and is_artin_schreier(rooted)
    assert calls == []


def test_standardize_fuzz(gf3, gf9):
    rng = seeded(17)
    checked = 0
    for F in (gf3, gf9):
        trials = 0
        while checked < 160 and trials < 800:
            trials += 1
            S = rand_poly(rng, F, 2, nonzero=True)
            U = rand_poly(rng, F, 2)
            V = rand_poly(rng, F, 2)
            W = rand_poly(rng, F, 2, nonzero=True)
            if U.is_zero() and V.is_zero():
                continue
            try:
                g = GeneralCubic(S, U, V, W)
                c0, _ = depress(g)
                cs, _ = standardize(g)
            except DomainError:
                continue  # reducible or degenerate input
            checked += 1
            cs2, tr2 = standardize(cs)
            assert cs2 == cs and tr2 == []
            assert cs.criterion_wild() != cs.criterion_tame()
            assert remove_singular_factor(cs) is None
            assert depressed_root_relation_holds(g, c0)
    assert checked >= 120
