"""Polynomial ring over GF(3^m): division, xgcd, CRT, factorization, roots
in residue fields and in F_q[x], cube roots mod P."""

import pickle
import random

import pytest

from cubicff.errors import DomainError, InvariantError
from cubicff.ff import Fq, GF3
from cubicff.polyring import (
    NEG_INF,
    Poly,
    _cube_mod,
    _cubing_rows,
    _equal_degree_split,
    _frobenius,
    _pack,
    _unpack,
    crt2_general,
    cube_root_mod,
    cubic_poly_root,
    cubic_residue_factor,
    exact_div,
    factor,
    gcd,
    invmod,
    is_irreducible,
    squarefree_decomposition,
    valuation,
    xgcd,
)

from conftest import (
    alpha_code, crt_fold, modexp, poly_roots, rand_poly, seeded)


def x_one(F):
    return Poly.x(F), Poly.one(F)


def test_divmod_basic(gf3):
    x, one = x_one(gf3)
    q, r = divmod(x * x + one, x)
    assert q == x and r == one
    assert (x * x + one) % Poly.one(gf3) == Poly.zero(gf3)
    with pytest.raises(DomainError):
        divmod(x, Poly.zero(gf3))


def test_mul_example(gf3):
    x, one = x_one(gf3)
    assert (x + one) * (x + Poly.const(gf3, 2)) == x * x + Poly.const(gf3, 2)


def ref_long_division(f, b):
    """(q, r) with f = q b + r by schoolbook long division on field codes."""
    F = f.ctx
    a, db = list(f.c), len(b.c) - 1
    q = [0] * max(len(a) - db, 0)
    inv_lead = F.inv(b.c[-1])
    for i in range(len(a) - 1, db - 1, -1):
        c = F.mul(a[i], inv_lead)
        q[i - db] = c
        for j, cb in enumerate(b.c):
            a[i - db + j] = F.add(a[i - db + j], F.neg(F.mul(c, cb)))
    return Poly(F, q), Poly(F, a[:db])


UNIT_FIELDS = ("gf3", "gf9", "f310")


@pytest.mark.parametrize("field", UNIT_FIELDS)
def test_unit_divisor_is_one_scaling(request, field):
    """divmod, %, // and exact_div by the constants 1, 2 and, over GF(3^m)
    with m >= 2, a constant outside the prime field agree with long
    division, the zero dividend included; the zero divisor raises."""
    F = request.getfixturevalue(field)
    rng = seeded(1701)
    codes = [1, 2] + ([alpha_code(F, 1, 1)] if F.m > 1 else [])
    dividends = [Poly.zero(F)] + [rand_poly(rng, F, 8, nonzero=True)
                                  for _ in range(20)]
    for code in codes:
        b = Poly.const(F, code)
        for f in dividends:
            q, r = ref_long_division(f, b)
            assert r.is_zero() and q.scale(code) == f
            assert divmod(f, b) == (q, r)
            assert f % b == r and f // b == q and exact_div(f, b) == q
    zero = Poly.zero(F)
    for f in dividends[:2]:
        for op in (divmod, lambda f, g: f % g, lambda f, g: f // g):
            with pytest.raises(DomainError, match="zero polynomial"):
                op(f, zero)


@pytest.mark.parametrize("field", UNIT_FIELDS)
def test_unit_moduli_keep_their_values(request, field):
    """invmod, crt2_general (alone and folded) and valuation on unit moduli
    and constant arguments return what they returned while callers guarded
    them."""
    F = request.getfixturevalue(field)
    x, one = x_one(F)
    two, zero = Poly.const(F, 2), Poly.zero(F)
    f = x ** 3 + two * x + one
    assert invmod(f, one) == zero and invmod(zero, one) == zero
    assert crt_fold([(f, one)]) == zero
    assert crt_fold([(f, x * x), (two, one)]) == f % (x * x)
    assert crt_fold([(two, one), (f, x * x)]) == f % (x * x)
    assert crt2_general(f, one, x, one) == (zero, one)
    assert crt2_general(f, one, x, two) == (zero, two)
    assert valuation(two, x) == 0 and valuation(one, x + one) == 0


@pytest.mark.parametrize("field", UNIT_FIELDS)
def test_gcd_with_one_zero_argument(request, field):
    """gcd accepts one zero argument and returns the other, monic; two
    zeros raise."""
    F = request.getfixturevalue(field)
    rng = seeded(1702)
    zero = Poly.zero(F)
    for _ in range(10):
        f = rand_poly(rng, F, 6, nonzero=True)
        assert gcd(f, zero) == f.monic() == gcd(zero, f)
        assert gcd(f, zero).is_monic()
    with pytest.raises(DomainError):
        gcd(zero, zero)


@pytest.mark.parametrize("field", UNIT_FIELDS)
def test_one_and_zero_are_the_fields_constants(request, field):
    """Poly.one and Poly.zero return the one unit and zero polynomial the
    field builds, also on a field rebuilt by unpickling."""
    F = request.getfixturevalue(field)
    for G in (F, pickle.loads(pickle.dumps(F))):
        assert Poly.one(G) is G.poly_one and Poly.zero(G) is G.poly_zero
        assert tuple(Poly.one(G).c) == (1,) and tuple(Poly.zero(G).c) == ()
        assert Poly.one(G).ctx is G and Poly.zero(G).ctx is G
        assert Poly.one(G) == Poly(G, [1, 0]) and Poly.zero(G) == Poly(G, [0])


def trim3(cs):
    cs = [c % 3 for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_mul3(a, b):
    """Schoolbook product of GF(3) code tuples in plain integers."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim3(out)


def ref_divmod3(a, b):
    """Long division of GF(3) code tuples in plain integers."""
    r, db = list(a), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + db] * b[-1] % 3  # b[-1] is its own inverse
        for j, y in enumerate(b):
            r[i + j] -= q[i] * y
    return trim3(q), trim3(r)


def assert_gf3_ops(a, b):
    """The packed GF(3) kernel against the integer references."""
    pad = max(len(a.c), len(b.c))
    ac, bc = (tuple(p.c) + (0,) * (pad - len(p.c)) for p in (a, b))
    assert tuple((a * b).c) == ref_mul3(a.c, b.c)
    assert tuple((a + b).c) == trim3(x + y for x, y in zip(ac, bc))
    assert tuple((a - b).c) == trim3(x - y for x, y in zip(ac, bc))
    assert tuple((-a).c) == trim3(-x for x in a.c)
    if b.c:
        q, r = divmod(a, b)
        assert (tuple(q.c), tuple(r.c)) == ref_divmod3(a.c, b.c)


def test_gf3_kernel_exhaustive(gf3):
    # every pair of GF(3) polynomials of degree <= 3, zero included
    polys = [Poly(gf3, [k // 3 ** i % 3 for i in range(4)]) for k in range(81)]
    for a in polys:
        for b in polys:
            assert_gf3_ops(a, b)


def test_gf3_kernel_byte_bound(gf3):
    # seeded operands on both sides of the 63-slot bound, and the worst case
    # for every byte: all-2 factors, and an all-1 quotient of an all-2
    # divisor (lead 2), where each step adds 4 to the same bytes
    rng = seeded(63)

    def rand(n):
        return Poly(gf3, [rng.randrange(3) for _ in range(n - 1)]
                    + [rng.randrange(1, 3)])

    for n in (62, 63, 64, 100):
        assert_gf3_ops(rand(n), rand(n + rng.randrange(40)))
        twos = Poly(gf3, [2] * n)
        assert_gf3_ops(twos, twos)
    for nq in (63, 64, 200):
        for lb in (1, 2, 5, 63, 64, 80):
            b = rand(lb)
            a = rand(nq) * b + rand(rng.randrange(1, lb + 1))
            assert_gf3_ops(a, b)
        twos = Poly(gf3, [2] * 70)
        assert_gf3_ops(Poly(gf3, [1] * nq) * twos + rand(69), twos)
        assert_gf3_ops(Poly(gf3, [1] * nq) * twos, twos)
    a = rand(20)
    assert divmod(a, Poly.const(gf3, 2)) == (-a, Poly.zero(gf3))
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    assert a - Poly.zero(gf3) == a and Poly.zero(gf3) - a == -a


@pytest.mark.parametrize("field", ["gf3", "gf9", "f310", "f311"])
def test_coefficient_container(request, field):
    """Every GF(3) result holds its codes as bytes and every GF(3^m) result,
    m >= 2, as a tuple: a GF(3) Poly holding a tuple would compare unequal
    to the same polynomial (b"\\x01" != (1,)) with no error raised.  Ring
    operations, the GF(3) operands past the 63-slot bound, shifts (of zero
    too), monomials, derivative, cube root, xgcd/gcd, and the residue and
    polynomial roots built from packed trit vectors."""
    F = request.getfixturevalue(field)
    kind = bytes if F.m == 1 else tuple
    rng = seeded(2121)
    x = Poly.x(F)

    def rand(n):
        return Poly(F, [rng.randrange(F.q) for _ in range(n - 1)]
                    + [rng.randrange(1, F.q)])

    a, b, long_a, long_b = rand(9), rand(4), rand(70), rand(66)
    g = Poly(F, [rng.randrange(F.q) if k % 3 == 0 else 0 for k in range(10)])
    P = x * x + x + Poly.const(F, 2)  # irreducible over GF(3^m), m odd
    r = rand(2)
    out = [a + b, a - b, -a, a * b, *divmod(a, b), a.scale(2), a.shift(3),
           Poly.zero(F).shift(4), Poly.monomial(F, 5, 2), Poly(F, a.c),
           Poly.one(F), Poly.zero(F), a.derivative(), (g * g * g).cube_root(),
           long_a * long_b, *divmod(long_a * long_b + a, b),
           *divmod(long_a * long_b, long_a), *xgcd(a, b), gcd(a * b, b * b)]
    if F.m % 2:
        res = [cube_root_mod(x, P)]
        for c in range(3):
            _, roots, quad = cubic_residue_factor(
                Poly.one(F), x + Poly.const(F, c), P)
            res += [*roots, *(quad or ())]
        assert len(res) > 1
        out += res
    out.append(cubic_poly_root(a, a * r - r * r * r, 1))
    for p in out:
        assert type(p.c) is kind, p


# --- the table kernel of 2 <= m <= LOG_EXP against a schoolbook reference
# that calls only the field's add and mul (2 is -1 in every GF(3^m)) ---


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_sum(F, a, b, sign=1):
    """a + b, or a - b for sign = -1, coefficient by coefficient."""
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return _trim(F.add(x, y if sign == 1 else F.mul(y, 2))
                 for x, y in zip(a, b))


def ref_mul(F, a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _trim(out)


def ref_divmod(F, a, b):
    """Long division; the inverse of lead(b) is lead(b)^(q - 2)."""
    inv, base, e = 1, b[-1], F.q - 2
    while e:
        inv, base, e = (F.mul(inv, base) if e & 1 else inv,
                        F.mul(base, base), e >> 1)
    r, db = list(a), len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = F.mul(r[i + db], inv)
        for j, y in enumerate(b):
            r[i + j] = F.add(r[i + j], F.mul(F.mul(q[i], y), 2))
    return _trim(q), _trim(r[:db])


def kernel_operands(F, rng):
    """Zero, one, constants, and seeded polynomials of degree 0-20, monic
    and not, with partners whose leading terms cancel in + and -."""
    def rand(deg, lead=None):
        return Poly(F, [rng.randrange(F.q) for _ in range(deg)]
                    + [lead or rng.randrange(1, F.q)])

    ops = [Poly.zero(F), Poly.one(F), Poly.const(F, 2),
           Poly.const(F, rng.randrange(3, F.q)), rand(0)]
    ops += [rand(d, 1 if d % 3 == 0 else None) for d in range(1, 21, 2)]
    for f in ops[5:9]:
        g = rand(rng.randrange(f.deg))
        ops += [f + g, g - f]  # f - (f + g) and f + (g - f) cancel the lead
    return ops


def assert_kernel_ops(F, a, b):
    ac, bc = a.c, b.c
    assert (a + b).c == ref_sum(F, ac, bc)
    assert (a - b).c == ref_sum(F, ac, bc, -1)
    assert (-a).c == ref_sum(F, (), ac, -1)
    assert (a * b).c == ref_mul(F, ac, bc)
    if len(bc) == 1:
        assert a.scale(bc[0]).c == ref_mul(F, ac, bc)
    if bc:
        q, r = divmod(a, b)
        assert (q.c, r.c) == ref_divmod(F, ac, bc)


@pytest.mark.parametrize("field", ["gf9", "gf27", "gf243", "gf729", "f310"])
def test_table_kernel_matches_schoolbook(request, field):
    """+, -, negation, *, scale and divmod over every tabled field size
    class: m <= 5 (one 5-trit chunk per code) and m > 5 (two), on every
    pair of seeded operands, dividends shorter than the divisor included;
    zero and one results are the field's shared constants."""
    F = request.getfixturevalue(field)
    assert F.tables is not None
    rng = seeded(2020 + F.m)
    ops = kernel_operands(F, rng)
    for a in ops:
        for b in ops:
            assert_kernel_ops(F, a, b)
        assert a.scale(0) is F.poly_zero
        if a.c:
            assert (a - a) is F.poly_zero and (a + -a) is F.poly_zero
            assert divmod(a, a) == (F.poly_one, F.poly_zero)
            assert divmod(a, a)[1] is F.poly_zero
            assert a.scale(F.inv(a.c[-1])).is_monic()
    c = Poly.const(F, rng.randrange(2, F.q))
    assert c.scale(F.inv(c.c[0])) is F.poly_one


def test_untabled_field_takes_the_closure_loop(f311, monkeypatch):
    """Past LOG_EXP the field has no tables, and the ring operations call
    its add, mul and neg, with the same results as the reference."""
    F = f311
    assert F.tables is None
    calls = []
    for name in ("add", "mul", "neg"):
        real = getattr(F, name)
        monkeypatch.setattr(F, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    rng = seeded(311)
    a, b = rand_poly(rng, F, 6, nonzero=True), rand_poly(rng, F, 6, nonzero=True)
    b = b + Poly.monomial(F, 3, 2)  # degree >= 3, so divmod divides
    a = a * b + Poly.x(F)
    for op, used in ((lambda: a + b, {"add"}), (lambda: a - b, {"add", "neg"}),
                     (lambda: -a, {"neg"}), (lambda: a * b, {"add", "mul"}),
                     (lambda: a.scale(2), {"mul"}),
                     (lambda: divmod(a, b), {"add", "mul", "neg"})):
        calls.clear()
        op()
        assert set(calls) == used
    monkeypatch.undo()
    assert_kernel_ops(F, a, b)


def test_trit_sum_table_is_built_once():
    """`ff` uses the 5-trit tables that `polyring` builds; a second build
    would add to every import."""
    import cubicff.ff as ff
    import cubicff.polyring as polyring
    assert ff._ADD5 is polyring._ADD5 and ff._NEG5 is polyring._NEG5


def test_zero_degree_sentinel(gf3):
    z = Poly.zero(gf3)
    assert z.deg == NEG_INF
    assert z.deg < 0 and z.deg < -10**9
    assert max(z.deg, 3) == 3


def test_xgcd_examples(gf3):
    x, one = x_one(gf3)
    f = x * x - one
    d, s, t = xgcd(f, Poly.zero(gf3))
    assert d == f.monic() and t.is_zero() and s * f == d
    d, s, t = xgcd(x * x - one, x - one)
    assert d == (x + Poly.const(gf3, 2))
    assert s * (x * x - one) + t * (x - one) == d


def test_xgcd_bezout_fuzz(gf3, gf9):
    rng = seeded(3)
    for F in (gf3, gf9):
        for _ in range(120):
            f = rand_poly(rng, F, 6)
            g = rand_poly(rng, F, 6)
            if f.is_zero() and g.is_zero():
                continue
            d, s, t = xgcd(f, g)
            assert s * f + t * g == d
            assert d.is_monic()
            if not f.is_zero():
                assert (f % d).is_zero() if d.deg >= 1 else True


def test_derivative(gf3, f310):
    x, _ = x_one(gf3)
    assert (x ** 3).derivative().is_zero()
    assert Poly.const(gf3, 2).derivative().is_zero()
    xF = Poly.x(f310)
    B = xF ** 4 + Poly.const(f310, alpha_code(f310, 0, 1))
    assert B.derivative() == xF ** 3  # 4 = 1 mod 3


def test_crt(gf3):
    # crt2_general folded over a list, as order folds the index shifts
    x, one = x_one(gf3)
    two = Poly.const(gf3, 2)
    sol = crt_fold([(one, x), (two, x + one)])
    assert sol % x == one and sol % (x + one) == two and sol.deg < 2
    assert crt_fold([(one, x)]) == one
    assert crt_fold([(Poly.zero(gf3), x), (Poly.zero(gf3), x + one)]).is_zero()
    # moduli that are not coprime: consistent congruences meet mod the lcm,
    # inconsistent ones raise
    assert crt_fold([(one, x), (one + x, x * x), (two, x + one)]) == (
        crt_fold([(one + x, x * x), (two, x + one)]))
    with pytest.raises(InvariantError):
        crt_fold([(one, x), (two, x)])


def test_crt2_general(gf3):
    x, one = x_one(gf3)
    # consistent overlapping congruences
    r, _ = crt2_general(one, x * x, one + x * x, x * x * (x + one))
    assert (r - one) % (x * x) == Poly.zero(gf3)


def test_modexp(gf3):
    x, one = x_one(gf3)
    f = x ** 3 + x + one
    assert modexp(x, 1, f) == x
    cub = x ** 3 - x
    assert modexp(x, 3, cub) == x % cub
    # naive cross-check
    rng = seeded(5)
    for _ in range(25):
        g = rand_poly(rng, gf3, 2)
        e = rng.randrange(0, 27)
        naive = Poly.one(gf3)
        for _ in range(e):
            naive = (naive * g) % f
        assert modexp(g, e, f) == naive


# --- the cubing kernel of the factoring path against powering by products ---


@pytest.mark.parametrize("field", ("gf3", "gf9", "f310", "f311"))
def test_cubing_kernel_matches_products(request, field):
    # f311 (m = 11) runs on the digit path of the field layer
    F = request.getfixturevalue(field)
    rng = seeded(43)
    x = Poly.x(F)
    for n in (1, 2, 3, 5, 8):
        f = Poly(F, [rng.randrange(F.q) for _ in range(n)] + [1])
        rows = _cubing_rows(f)
        assert rows == [Poly.monomial(F, 3 * i) % f for i in range(n)]
        for _ in range(3):
            h = Poly(F, [rng.randrange(F.q) for _ in range(n)])
            assert _cube_mod(h, rows) == (h * h * h) % f
            assert _frobenius(h, rows) == modexp(h, F.q, f)
        assert _frobenius(x % f, rows) == modexp(x, F.q, f)


def assert_trace_split(f, d, want):
    """_equal_degree_split and factor both give exactly the factors `want`."""
    want = sorted(want, key=lambda p: p.c)
    for seed in range(3):
        got = _equal_degree_split(f, d, random.Random(seed))
        assert sorted(got, key=lambda p: p.c) == want
    assert factor(f) == [(p, 1) for p in want]


def product(polys):
    out = Poly.one(polys[0].ctx)
    for p in polys:
        out = out * p
    return out


def test_trace_split_rejects_wrong_shape():
    # x^2 + 1 is irreducible over GF(3): no trace splits it into linear
    # factors, so the bounded draws end in a typed error, not a hang
    f = Poly.from_ints(GF3, [1, 0, 1])
    with pytest.raises(InvariantError):
        _equal_degree_split(f, 1, random.Random(0))


def test_trace_split_prime_subfield_roots(f310):
    # roots in F_3 inside F_3^10: the absolute trace of h(c) is all that
    # tells x - c apart, and it lies in F_3 for every draw
    F = f310
    x = Poly.x(F)
    alpha = alpha_code(F, 0, 1)
    for roots in ((0, 1), (1, 2), (0, 2), (0, 1, 2), (0, 1, 2, alpha)):
        parts = [x - Poly.const(F, r) for r in roots]
        f = product(parts)
        assert_trace_split(f, 1, parts)
        assert poly_roots(f) == sorted(roots)


def no_root(p):
    return all(p.eval(a) != 0 for a in range(p.ctx.q))


def test_trace_split_degree_2_and_3(gf3, f310):
    # every monic irreducible quadratic and cubic over GF(3) (no root, degree
    # <= 3); the cubics stay irreducible over F_3^10 since 3 does not divide
    # 10, and x^2 - a is irreducible over F_3^10 for a non-square a
    quads = [p for p in (Poly(gf3, (a, b, 1)) for a in range(3)
                         for b in range(3)) if no_root(p)]
    cubics = [p for p in (Poly(gf3, (a, b, c, 1)) for a in range(3)
                          for b in range(3) for c in range(3)) if no_root(p)]
    assert len(quads) == 3 and len(cubics) == 8
    assert_trace_split(product(quads), 2, quads)
    assert_trace_split(product(cubics), 3, cubics)
    both = sorted(quads, key=lambda p: p.c) + sorted(cubics, key=lambda p: p.c)
    assert factor(product(quads + cubics)) == [(p, 1) for p in both]

    F = f310
    rng = seeded(47)
    nonsquares = set()
    while len(nonsquares) < 4:
        a = rng.randrange(1, F.q)
        if not F.is_square(a):
            nonsquares.add(a)
    quads = [Poly(F, (F.neg(a), 0, 1)) for a in nonsquares]
    cubics = [Poly(F, p.c) for p in cubics[:5]]
    assert_trace_split(product(quads), 2, quads)
    assert_trace_split(product(cubics), 3, cubics)


def test_factor_examples(gf3):
    x, one = x_one(gf3)
    fs = factor(x * x - one)
    assert fs == [(x + one, 1), (x + Poly.const(gf3, 2), 1)]
    assert factor(x ** 3) == [(x, 3)]
    # the two quadratics of the singular example curve
    A = Poly.from_ints(gf3, [2, 1, 0, 1, 1])
    fs = factor(A)
    assert len(fs) == 2 and all(e == 1 and p.deg == 2 for p, e in fs)
    assert all(is_irreducible(p) for p, _ in fs)
    with pytest.raises(DomainError):
        factor(one)
    assert poly_roots(Poly.const(gf3, 2)) == []
    with pytest.raises(DomainError):
        poly_roots(Poly.zero(gf3))


def monic_polys(F, deg):
    """Every monic polynomial of degree `deg` over F."""
    for code in range(F.q ** deg):
        yield Poly(F, [code // F.q ** k % F.q for k in range(deg)] + [1])


def rabin_irreducible(p):
    """Rabin's test on the reference powering, independent of `factor`:
    x^(q^n) = x mod p and gcd(x^(q^(n/r)) - x, p) = 1 for each prime r | n."""
    F, n = p.ctx, p.deg
    x = Poly.x(F)
    if modexp(x, F.q**n, p) != x % p:
        return False
    primes = [r for r in range(2, n + 1)
              if n % r == 0 and all(r % s for s in range(2, r))]
    return all(gcd(modexp(x, F.q ** (n // r), p) - x, p).is_one()
               for r in primes)


def assert_factors(f, seed):
    prod = Poly.const(f.ctx, f.lc())
    for p, e in factor(f, seed=seed):
        assert p.is_monic() and is_irreducible(p)
        assert rabin_irreducible(p)
        prod = prod * p ** e
    assert prod == f


def test_factor_roundtrip_fuzz(gf3, gf9, f310):
    rng = seeded(9)
    for F in (gf3, gf9):
        for trial in range(80):
            f = rand_poly(rng, F, 9, nonzero=True)
            if f.deg < 1:
                continue
            assert_factors(f, trial)
    rng = seeded(53)
    for trial in range(24):
        f = rand_poly(rng, f310, 10, nonzero=True)
        if f.deg >= 1:
            assert_factors(f, trial)
    # every monic polynomial of degree <= 3 over GF(3) and GF(9)
    for F in (gf3, gf9):
        for deg in (1, 2, 3):
            for f in monic_polys(F, deg):
                assert_factors(f, 0)
                assert poly_roots(f) == [a for a in range(F.q) if f.eval(a) == 0]
    # squared and cubed factors, and f' = 0
    for F in (gf3, gf9, f310):
        for trial in range(12):
            a, b, c = (rand_poly(rng, F, 3, nonzero=True) for _ in range(3))
            for f in (a * b * b * c * c * c, c * c * c):
                if f.deg >= 1:
                    assert_factors(f, trial)


def test_cube_polynomials(gf9):
    # f with f' = 0 is the cube of its cube-root substitution
    rng = seeded(2)
    for _ in range(40):
        g = rand_poly(rng, gf9, 4, nonzero=True)
        f = g * g * g
        assert f.derivative().is_zero()
        assert f.cube_root() == g
        assert f.cube_root() ** 3 == f


def test_squarefree_decomposition(gf3):
    x, one = x_one(gf3)
    f = (x ** 3) * (x + one) ** 2 * (x * x + one)
    parts = squarefree_decomposition(f)
    prod = Poly.one(gf3)
    for g, e in parts:
        prod = prod * g ** e
    assert prod == f.monic()


def test_cube_root_mod(gf3):
    x, one = x_one(gf3)
    P = x * x + one
    assert cube_root_mod(Poly.zero(gf3), P).is_zero()
    assert cube_root_mod(Poly.const(gf3, 2), x) == Poly.const(gf3, 2)
    r = cube_root_mod(x % P, P)
    assert (r * r * r - x) % P == Poly.zero(gf3)
    rng = seeded(4)
    for _ in range(30):
        c = rand_poly(rng, gf3, 1)
        r = cube_root_mod(c, P)
        assert (r * r * r - c) % P == Poly.zero(gf3)


def test_cubic_residue_factor(gf3):
    x, one = x_one(gf3)
    # curve T^3 - T + x at P = x: full split with roots {0, 1, 2}
    d, roots, quad = cubic_residue_factor(one, x, x)
    assert d == 3 and sorted(tuple(r.c) for r in roots) == [(), (1,), (2,)]
    # at P = x - 1: T^3 - T + 1 has no roots
    d, roots, quad = cubic_residue_factor(one, x, x - one)
    assert d == 0 and roots == [] and quad is None
    # degenerate T^3: single root 0 with the (M, W) = (0, -a) cofactor data
    d, roots, quad = cubic_residue_factor(Poly.zero(gf3), Poly.zero(gf3), x)
    assert d == 1 and roots == [Poly.zero(gf3)]
    # a case with inertia-2 data: verify the quadratic reassembles the cubic
    P = x + one
    for a, b in [(one, x % P), (x % P, one)]:
        d, roots, quad = cubic_residue_factor(a, b, P)
        if d == 1:
            M, W = quad
            r = roots[0]
            # (T - r)(T^2 - M T + W) = T^3 - a T + b mod P
            assert (M + r) % P == Poly.zero(gf3)
            assert (W - (r * r - a)) % P == Poly.zero(gf3)


def test_cubic_residue_factor_gf9_quadratic_place(gf9):
    x = Poly.x(gf9)
    P = x * x + Poly.const(gf9, gf9.encode([0, 1]))  # irreducible over GF(9)?
    if not is_irreducible(P):
        P = x * x + x + Poly.const(gf9, gf9.encode([0, 1]))
    assert is_irreducible(P)
    one = Poly.one(gf9)
    d, roots, _ = cubic_residue_factor(one, x % P, P)
    assert d in (0, 1, 3)
    for r in roots:
        val = (r * r * r - r + x) % P
        assert val.is_zero()


# --- the residue-cubic classifier against criteria that do not use it ---


def rand_irreducible(rng, F, d):
    while True:
        P = Poly(F, [rng.randrange(F.q) for _ in range(d)] + [1])
        if is_irreducible(P):
            return P


def rand_residue(rng, P, nonzero=False):
    while True:
        r = Poly(P.ctx, [rng.randrange(P.ctx.q) for _ in range(P.deg)])
        if not (nonzero and r.is_zero()):
            return r


def residue_trace(c, P):
    """Tr_{K/F_3}(c) for K = F_q[x]/(P): the sum of the 3^k-th powers."""
    acc = t = c % P
    for _ in range(P.ctx.m * P.deg - 1):
        t = (t * t * t) % P
        acc = acc + t
    return acc


def assert_factorization(a, b, P, d, roots, quad):
    """Every root is a root, and (T - r)(T^2 - M T + W) is the cubic mod P."""
    zero = Poly.zero(P.ctx)
    assert d == len(roots) and d in (0, 1, 3)
    assert [r.c for r in roots] == sorted({r.c for r in roots})
    for r in roots:
        assert r.deg < P.deg and (r * r * r - a * r + b) % P == zero
    if d == 1:
        M, W = quad
        r = roots[0]
        assert (M + r) % P == zero                # T^2
        assert (W + r * M + a) % P == zero        # T
        assert (r * W + b) % P == zero            # T^0
    else:
        assert quad is None


# F_3^10 at the degrees of the worked example's places, GF(3) with residue
# fields of 3^9 and 3^10 elements, and GF(3^5) and GF(3^6) (one full 5-trit
# chunk per code, and one chunk plus a trit)
CLASSIFIER_CASES = (("f310", (1, 2, 3)), ("gf3", (9, 10)),
                    ("gf243", (1, 2, 3)), ("gf729", (1, 2, 3)))


@pytest.mark.parametrize("field, degs", CLASSIFIER_CASES)
def test_cubic_residue_factor_trace_criterion(request, field, degs):
    # a = s^2, b = c s^3: T = sU turns the cubic into s^3 (U^3 - U + c), so
    # there are three roots when Tr(c) = 0 and none otherwise
    F = request.getfixturevalue(field)
    rng = seeded(31)
    seen = set()
    for d in degs:
        for _ in range(8):
            P = rand_irreducible(rng, F, d)
            sv = rand_residue(rng, P, nonzero=True)
            c = rand_residue(rng, P)
            a = (sv * sv) % P
            b = (c * sv * sv * sv) % P
            got = cubic_residue_factor(a, b, P)
            tr = residue_trace(c, P)
            assert tr.is_const()
            assert got[0] == (3 if tr.is_zero() else 0)
            assert_factorization(a, b, P, *got)
            seen.add(got[0])
    assert seen == {0, 3}


@pytest.mark.parametrize("field, degs", CLASSIFIER_CASES)
def test_cubic_residue_factor_one_root(request, field, degs):
    # a = 0 or a non-square (Euler's criterion): T^3 - a T is injective
    F = request.getfixturevalue(field)
    rng = seeded(37)
    for d in degs:
        for k in range(8):
            P = rand_irreducible(rng, F, d)
            a = Poly.zero(F)
            if k % 2:  # a non-square
                while a.is_zero() or modexp(a, (F.q**d - 1) // 2, P).is_one():
                    a = rand_residue(rng, P)
            b = rand_residue(rng, P)
            got = cubic_residue_factor(a, b, P)
            assert got[0] == 1
            assert_factorization(a, b, P, *got)


def test_cubic_residue_factor_gf9_exhaustive(gf9):
    # every place of degree <= 2 over GF(9), roots found by enumerating the
    # residue field: all (a, b) at degree 1, a seeded sample at degree 2
    rng = seeded(41)
    F = gf9
    q = F.q
    places = [Poly(F, (c0, 1)) for c0 in range(q)]
    places += [P for P in (Poly(F, (c0, c1, 1)) for c0 in range(q)
                           for c1 in range(q)) if is_irreducible(P)]
    assert len(places) == 9 + 36
    for P in places:
        residues = [Poly(F, (c0, c1)) for c0 in range(q)
                    for c1 in range(q if P.deg == 2 else 1)]
        cubes = [(r * r * r) % P for r in residues]
        if P.deg == 1:
            pairs = [(a, b) for a in residues for b in residues]
        else:
            pairs = [(rng.choice(residues), rng.choice(residues))
                     for _ in range(12)]
        for a, b in pairs:
            want = [r for r, r3 in zip(residues, cubes)
                    if ((r3 - a * r + b) % P).is_zero()]
            got = cubic_residue_factor(a, b, P)
            assert [r.c for r in got[1]] == sorted(r.c for r in want)
            assert_factorization(a, b, P, *got)


def assert_packs(F, codes):
    """Digit i of codes[j] sits in 3-bit slot j*m + i, nothing above, and
    unpacking gives the residue back."""
    v = _pack(codes, F.m)
    for j, c in enumerate(codes):
        for i, d in enumerate(F.decode(c)):
            assert (v >> 3 * (j * F.m + i)) & 7 == d
    assert v >> 3 * F.m * len(codes) == 0
    assert _unpack(F, v, len(codes)) == Poly(F, codes)


# one modulus per degree: packing reads only m from the field
PACK_MODULI = {1: [0, 1], 2: [1, 0, 1], 3: [1, 2, 0, 1], 4: [1, 0, 1, 1, 1],
               5: [1, 0, 0, 0, 2, 1], 6: [1, 0, 0, 0, 1, 1, 1]}


@pytest.mark.parametrize("m", sorted(PACK_MODULI))
def test_trit_pack_round_trip_every_code(m):
    F = Fq(m, PACK_MODULI[m])
    for c in range(F.q):
        assert_packs(F, [c])
    rng = seeded(43)
    for _ in range(50):
        assert_packs(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])


@pytest.mark.parametrize("field", ["f310", "f311"])
def test_trit_pack_round_trip_seeded(request, field):
    F = request.getfixturevalue(field)
    rng = seeded(47)
    for _ in range(300):
        assert_packs(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])
    assert_packs(F, [F.q - 1, 242, 243, 3**5 * 242, 0, 1])


def test_residue_solve_rejects_reducible_modulus(gf3):
    x, one = x_one(gf3)
    with pytest.raises(DomainError):
        cube_root_mod(x + one, x * x - one)
    with pytest.raises(DomainError):
        cubic_residue_factor(one, x, x * x - one)


def test_valuation_and_invmod(gf3):
    x, one = x_one(gf3)
    assert valuation(x ** 3 * (x + one), x) == 3
    assert valuation(one, x) == 0
    inv = invmod(x + one, x * x)
    assert (inv * (x + one)) % (x * x) == one
    assert exact_div(x * x - one, x - one) == (x + one).monic()
