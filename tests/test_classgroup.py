"""Minimal elements, canonical bases of principal ideals, and composition
with reduction."""

import pytest

from cubicff.errors import ApplicabilityError, DomainError, InvariantError
from cubicff.ff import GF3
from cubicff.polyring import Poly
from cubicff.curve import Curve
from cubicff.order import Element, compute_order_data, element_norm
from cubicff.places import prime_basis, split_finite
from cubicff.ideals import Ideal, ideal_member, unit_ideal
from cubicff.idealarith import (
    ideal_divide,
    ideal_divide_nonprimitive,
    ideal_invert,
    ideal_mul,
    ideal_norm,
    type_factor,
)
from cubicff.classgroup import can_basis, comp_red, is_reduced, min_element
from cubicff.oracle import oracle_min_norm

from conftest import (
    monic_irreducibles, prime_pool, rand_poly, rand_prime_product, seeded)


def test_min_element_unit(dist3):
    _, od = dist3
    alpha = min_element(unit_ideal(od.ctx), od)
    assert alpha.a.is_one() and alpha.b.is_zero() and alpha.c.is_zero()
    assert element_norm(alpha, od).deg == 0


def test_min_element_section13(s13):
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    st = split_finite(x, od)
    key = next(p.key for p in st.primes if p.root == s13["root"])
    I1 = prime_basis(x, st, key, od)
    _, I2 = ideal_mul(I1, I1, od)
    _, I3 = ideal_mul(I2, I1, od)
    _, I6 = ideal_mul(I3, I3, od)
    inv = ideal_invert(I6, od)
    alpha = min_element(inv, od)
    assert alpha.a == s13["a3"] * x * x
    assert alpha.b == s13["b3"] * x * x
    assert alpha.c == x * x
    assert ideal_member(inv, alpha)


def test_min_element_membership_and_scaling(dist3):
    _, od = dist3
    rng = seeded(67)
    pool, units = prime_pool(od), 0
    for _ in range(30):
        J = rand_prime_product(rng, od, pool)
        units += J.is_unit()
        alpha = min_element(J, od)
        assert not alpha.is_zero()
        assert ideal_member(J, alpha)
        # dominating coordinate is monic (the scalar normalization)
        from cubicff.order import norm_degree_parts

        parts = norm_degree_parts(alpha, od)
        kmax = parts.index(max(parts))
        assert alpha.coords()[kmax].is_monic()
    assert units <= 3


def test_min_element_optimal_vs_oracle(dist3):
    _, od = dist3
    rng = seeded(71)
    pool, units = prime_pool(od), 0
    for _ in range(40):
        J = rand_prime_product(rng, od, pool)
        units += J.is_unit()
        got = element_norm(min_element(J, od), od).deg
        assert got == oracle_min_norm(J, 3, od)
    assert units <= 4


def test_min_element_applicability(ex62):
    _, od = ex62
    with pytest.raises(ApplicabilityError):
        min_element(unit_ideal(od.ctx), od)


def test_can_basis_trivia(dist3):
    _, od = dist3
    F = od.ctx
    x = Poly.x(F)
    one = Element(Poly.one(F), Poly.zero(F), Poly.zero(F))
    J = can_basis(one, od)
    assert J.is_unit()
    J = can_basis(one.scale(x), od)
    assert J.d == x and J.primitive_part().is_unit()
    with pytest.raises(DomainError):
        can_basis(Element(Poly.zero(F), Poly.zero(F), Poly.zero(F)), od)


def test_can_basis_section13(s13):
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    alpha = Element(s13["a3"] * x * x, s13["b3"] * x * x, x * x)
    J = can_basis(alpha, od)
    assert J.d == x * x
    assert J.s == x ** 4 and J.sp == x ** 4 and J.spp.is_one()
    assert J.v == s13["a3"] and J.w == s13["b3"] and J.u.is_zero()


def test_can_basis_norm_consistency(dist3, zoo3):
    rng = seeded(73)
    for c in zoo3:
        od = compute_order_data(c)
        for _ in range(10):
            el = Element(*(rand_poly(rng, od.ctx, 2) for _ in range(3)))
            if el.is_zero():
                continue
            J = can_basis(el, od)
            assert ideal_norm(J) == element_norm(el, od).monic()
            assert ideal_member(J, el)


def test_comp_red_unit(dist3):
    _, od = dist3
    u = unit_ideal(od.ctx)
    assert comp_red(u, u, od).is_unit()


def test_comp_red_section13(s13):
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    st = split_finite(x, od)
    key = next(p.key for p in st.primes if p.root == s13["root"])
    I1 = prime_basis(x, st, key, od)
    _, I2 = ideal_mul(I1, I1, od)
    _, I3 = ideal_mul(I2, I1, od)
    red = comp_red(I3, I3, od)
    assert red == I2
    assert red.u == s13["u1"] and red.v == s13["v1"]
    assert is_reduced(red, od)


def test_comp_red_factors_each_modulus_once(s13, ram3, monkeypatch):
    """Ideal arithmetic factors nothing but A, at most once per curve, and
    classifies only ramified places: over comp_red chains (which divide by
    no ideal: they neither write <alpha> in canonical form nor call the
    division rules), ideal_mul, ideal_invert, ideal_divide_nonprimitive and
    type_factor, on the F_3^10 worked-example curve (A = 1, no ramified
    place) and on C1 and C2 (classes II, III and IV); and ideal_mul never
    calls the division."""
    import cubicff.classgroup as cg
    import cubicff.idealarith as ia
    import cubicff.order as order

    def forbidden(*args, **kwargs):
        raise AssertionError("comp_red must not take the division route")

    assert not hasattr(ia, "factor")
    rng = seeded(83)
    s13_od = s13["od"]
    F = s13_od.ctx
    x = Poly.x(F)
    pool = []
    while len(pool) < 4:
        P = x - Poly.const(F, rng.randrange(F.q))
        st = split_finite(P, s13_od)
        pool += [prime_basis(P, st, p.key, s13_od)
                 for p in st.primes if p.f == 1]
    cases = [(s13["curve"], pool)] + [(c, prime_pool(od, 1)) for c, od in ram3]
    factored, split = [], []
    factor, split_finite_ = order.factor, ia.split_finite

    def spy_factor(f, *args, **kwargs):
        factored.append(f)
        return factor(f, *args, **kwargs)

    def spy_split(P, od):
        split.append((P, od))
        return split_finite_(P, od)

    depth = [0]
    mul_, div_ = ia.ideal_mul, ia.ideal_divide_nonprimitive

    def spy_mul(*args):
        depth[0] += 1
        try:
            return mul_(*args)
        finally:
            depth[0] -= 1

    def spy_div(*args):
        assert depth[0] == 0, "ideal_mul called the division"
        return div_(*args)

    monkeypatch.setattr(order, "factor", spy_factor)
    monkeypatch.setattr(ia, "split_finite", spy_split)
    for mod in (ia, cg):
        monkeypatch.setattr(mod, "ideal_mul", spy_mul)
    monkeypatch.setattr(ia, "ideal_divide_nonprimitive", spy_div)
    ramified = 0
    for c, pool in cases:
        od = compute_order_data(c)
        factored.clear()
        split.clear()
        with monkeypatch.context() as m:
            m.setattr(cg, "can_basis", forbidden)
            m.setattr(ia, "ideal_divide_nonprimitive", forbidden)
            D = pool[0]
            for _ in range(24):
                D = comp_red(D, pool[rng.randrange(len(pool))], od)
        for _ in range(6):
            J1 = pool[rng.randrange(len(pool))]
            cm, P3 = ia.ideal_mul(J1, comp_red(D, J1, od), od)
            ideal_invert(P3, od)
            ia.ideal_divide_nonprimitive((J1.s * cm).monic(), P3, J1, od)
            type_factor(P3, od)
        assert factored in ([], [od.A]), factored
        assert all(P in od.A_primes for P, _ in split)
        ramified += bool(split)
    assert ramified == 2, "C1 and C2 met no ramified place"


def test_comp_red_content_check_is_strict(s13, monkeypatch):
    """alpha * I3 must have content exactly s3: a minimal element scaled by
    x gives content x * s3, and comp_red refuses it."""
    import cubicff.classgroup as cg

    od = s13["od"]
    x = Poly.x(od.ctx)
    st = split_finite(x, od)
    key = next(p.key for p in st.primes if p.root == s13["root"])
    I1 = prime_basis(x, st, key, od)
    _, I2 = ideal_mul(I1, I1, od)
    _, I3 = ideal_mul(I2, I1, od)
    assert comp_red(I3, I3, od) == I2
    minimal = cg.min_element
    monkeypatch.setattr(cg, "min_element",
                        lambda J, od: minimal(J, od).scale(x))
    with pytest.raises(InvariantError, match="left a content"):
        comp_red(I3, I3, od)


def test_comp_red_rejects_element_outside_inv(s13, monkeypatch):
    """alpha must lie in inv = <s3> * I3^(-1): for alpha outside it, alpha *
    I3 is not inside <s3>, the rows alpha*e leave a remainder on division by
    s3, and comp_red refuses."""
    import cubicff.classgroup as cg

    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    st = split_finite(x, od)
    key = next(p.key for p in st.primes if p.root == s13["root"])
    I1 = prime_basis(x, st, key, od)
    _, I3 = ideal_mul(I1, I1, od)
    _, I3 = ideal_mul(I3, I1, od)
    minimal = cg.min_element
    shifted = []

    def outside(J, od):
        alpha = minimal(J, od) + Element(Poly.one(F), Poly.zero(F),
                                         Poly.zero(F))
        assert not ideal_member(J, alpha)
        shifted.append(alpha)
        return alpha

    monkeypatch.setattr(cg, "min_element", outside)
    with pytest.raises(InvariantError,
                       match="distinguished quotient left a content"):
        comp_red(I3, I3, od)
    assert shifted


def test_comp_red_matches_division_route(s13, dist3, ram3):
    """Each step of seeded chains recomputed the old way: <alpha> in
    canonical form, divided by inv = ideal_invert(I3) with
    ideal_divide_nonprimitive, leaves a constant content and the ideal
    comp_red returns.  GF(3) chains on dist3, on ram3 C1 and C2 (classes
    II, III and IV) and on two curves of genus 6 and 7 with ramified
    places, and a short chain over F_3^10."""
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    rng = seeded(131)
    places = []
    while len(places) < 3:
        P = x - Poly.const(F, rng.randrange(F.q))
        if P not in places and any(
                p.f == 1 for p in split_finite(P, od).primes):
            places.append(P)
    chains = [(od, places, 10)]
    ods = [od for _, od in [dist3] + ram3]
    for A, B in (([0, 0, 1, 1], [0, 1, 2, 0, 2, 0, 0, 2, 1]),
                 ([0, 0, 1], [0, 1, 1, 0, 2, 2, 2, 0, 1])):
        ods.append(compute_order_data(
            Curve(Poly.from_ints(GF3, A), Poly.from_ints(GF3, B))))
    assert [od.genus for od in ods[3:]] == [6, 7]
    chains += [(od, monic_irreducibles(od.ctx, 2), 40) for od in ods]
    for od, places, steps in chains:
        pool = []
        for P in places:
            st = split_finite(P, od)
            pool += [prime_basis(P, st, p.key, od)
                     for p in st.primes if p.f == 1]
        D = pool[0]
        for _ in range(steps):
            J = pool[rng.randrange(len(pool))]
            _, I3 = ideal_mul(D, J, od)
            inv = ideal_invert(I3, od)
            pr = can_basis(min_element(inv, od), od)
            content, old = ideal_divide_nonprimitive(
                pr.d, pr.primitive_part(), inv, od)
            D = comp_red(D, J, od)
            assert content.is_const()
            assert old == D


def test_comp_red_laws(dist3, ram3):
    """Commutativity, the unit, inverses, reducedness and associativity on
    dist3 (no ramified finite place) and on C1 and C2 (classes II, III and
    IV)."""
    rng = seeded(79)
    units = 0
    for _, od in [dist3] + ram3:
        u, pool = unit_ideal(od.ctx), prime_pool(od)
        for _ in range(12):
            I1, I2, I3 = (rand_prime_product(rng, od, pool) for _ in range(3))
            units += I1.is_unit() + I2.is_unit() + I3.is_unit()
            a = comp_red(I1, I2, od)
            assert a == comp_red(I2, I1, od)
            assert comp_red(a, u, od) == a
            assert comp_red(a, ideal_invert(a, od), od).is_unit()
            assert ideal_norm(a).deg <= od.genus
            assert comp_red(a, I3, od) == comp_red(
                I1, comp_red(I2, I3, od), od)
    assert units <= 10


def test_comp_red_applicability(ex62):
    _, od = ex62
    with pytest.raises(ApplicabilityError):
        comp_red(unit_ideal(od.ctx), unit_ideal(od.ctx), od)


def test_is_reduced(s13):
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    assert is_reduced(unit_ideal(F), od)
    st = split_finite(x, od)
    key = next(p.key for p in st.primes if p.root == s13["root"])
    I1 = prime_basis(x, st, key, od)
    _, I2 = ideal_mul(I1, I1, od)
    _, I3 = ideal_mul(I2, I1, od)
    _, I6 = ideal_mul(I3, I3, od)
    assert is_reduced(I2, od)  # deg 2 <= genus 3
    assert not is_reduced(I6, od)  # deg 6 > 3


# Six distinguished GF(3) curves T^3 - A T + B in standard form, as
# (A, B) codes constant term first: two each of genus 7, 8 and 6 with a
# class II, III and IV place, the shapes of the benchmark's GF(3) chains.
GF3_CHAIN_CURVES = (
    ([0, 0, 1], [0, 1, 1, 1, 0, 1, 2, 2, 1]),
    ([2, 1, 1, 2], [2, 0, 1, 2, 1, 1, 2, 1, 1, 2, 1]),
    ([0, 2, 2], [1, 1, 0, 1, 1, 1, 0, 0, 2]),
    ([0, 1, 2], [1, 1, 2, 2, 2, 2, 1, 0, 2]),
    ([0, 0, 2, 1], [2, 0, 0, 0, 0, 0, 1, 2, 2, 1, 1]),
    ([1, 0, 2], [1, 2, 0, 2, 1, 0, 2, 2, 1]),
)


def _base_change(od, F):
    """(od over F, the embedding of an ideal over GF(3) into F): the order
    data of the curve over F are checked to be those over GF(3), embedded."""
    def up(p):
        return Poly(F, p.c)

    odF = compute_order_data(Curve(up(od.A), up(od.B)))
    for name in ("A", "B", "i", "I", "E", "F", "delta"):
        assert getattr(odF, name) == up(getattr(od, name)), (F, name)
    assert (odF.genus, odF.distinguished_ok) == (od.genus, True)
    return odF, lambda J: Ideal(*map(up, (J.d, J.s, J.sp, J.spp, J.u, J.w,
                                           J.v)))


def test_comp_red_commutes_with_base_change(gf9, gf27, f310, f311):
    """A curve over GF(3) is a curve over every GF(3^m), and the GF(3) codes
    0, 1, 2 are the same codes there, so Poly(F, p.c) embeds a polynomial.
    The distinguished representative is unique, so comp_red over GF(3^m) of
    base-changed inputs is the base change of the GF(3) result.  GF(3) runs
    the byte kernel; GF(9), GF(27) and F_3^10 the table kernel's one- and
    two-chunk loops; F_3^11 the field's own add and mul.  Each chain takes
    40 steps through the residue-degree-1 primes above the places of degree
    <= 2."""
    rng = seeded(1212)
    fields = (gf9, gf27, f310, f311)
    for A, B in GF3_CHAIN_CURVES:
        od = compute_order_data(Curve(Poly(GF3, A), Poly(GF3, B)))
        assert od.distinguished_ok and od.genus in (6, 7, 8)
        pool = prime_pool(od, 2)
        D, steps = pool[0], []
        for _ in range(40):
            G = pool[rng.randrange(len(pool))]
            out = comp_red(D, G, od)
            steps.append((D, G, out))
            D = out
        for F in fields:
            odF, up = _base_change(od, F)
            for D, G, out in steps:
                assert comp_red(up(D), up(G), odF) == up(out), (F, A, B)


def _triple(J1, J2, od):
    """The product (D, P3) of J1 and J2, the inverse of J1 and the quotient
    (content, quotient) of <D> P3 by J1: ideal_mul, ideal_invert, and
    ideal_divide or, when D is not 1, ideal_divide_nonprimitive."""
    D, P3 = ideal_mul(J1, J2, od)
    if D.is_one():
        quo = D, ideal_divide(P3, J1, od)
    else:
        quo = ideal_divide_nonprimitive(D, P3, J1, od)
    return D, P3, ideal_invert(J1, od), *quo


def test_ideal_arithmetic_commutes_with_base_change(gf9, gf27, f310, f311):
    """The triples of `_triple` on the six chain curves commute with base
    change, as comp_red does above: canonical forms are unique.  Operands
    are products of 1-3 residue-degree-1 primes above places of degree
    <= 2, so their supports mix class I and ramified places, and places of
    degree 2 split over GF(9) and F_3^10.  Each quotient is J2."""
    rng = seeded(1213)
    fields = (gf9, gf27, f310, f311)
    for A, B in GF3_CHAIN_CURVES:
        od = compute_order_data(Curve(Poly(GF3, A), Poly(GF3, B)))
        pool = prime_pool(od, 2)
        triples = []
        for _ in range(20):
            J1, J2 = (rand_prime_product(rng, od, pool) for _ in range(2))
            out = _triple(J1, J2, od)
            assert out[3].is_one() and out[4] == J2
            triples.append((J1, J2, out))
        for F in fields:
            odF, up = _base_change(od, F)
            for J1, J2, (D, P3, inv, c, quo) in triples:
                want = (Poly(F, D.c), up(P3), up(inv), Poly(F, c.c), up(quo))
                assert _triple(up(J1), up(J2), odF) == want, (F, A, B)
