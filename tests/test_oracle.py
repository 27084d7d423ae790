"""The brute-force layer itself: triangularization determinism, nine-product
multiplication, bounded minimal-norm search, residue enumeration."""

import pytest

from cubicff.errors import DomainError
from cubicff.ff import Fq
from cubicff import ideals
from cubicff.polyring import Poly, exact_div, xgcd
from cubicff.curve import Curve
from cubicff.order import Element, compute_order_data, element_norm
from cubicff.ideals import unit_ideal
from cubicff.idealarith import ideal_norm
from cubicff.oracle import (
    module_triangularize,
    oracle_ideal_mul,
    oracle_min_norm,
    oracle_split,
)

from conftest import rand_ideal, rand_poly, seeded


def triple(F, a, b, c):
    return (a, b, c)


def test_triangularize_unit_rows(gf3):
    F = gf3
    one, z = Poly.one(F), Poly.zero(F)
    J = module_triangularize([(one, z, z), (z, one, z), (z, z, one)])
    assert J.is_unit()
    x = Poly.x(F)
    J = module_triangularize([(x, z, z), (z, x, z), (z, z, x)])
    assert J.d == x and J.primitive_part().is_unit()


def test_triangularize_rank_errors(gf3):
    F = gf3
    one, z = Poly.one(F), Poly.zero(F)
    with pytest.raises(DomainError):
        module_triangularize([(one, z, z), (z, one, z)])
    with pytest.raises(DomainError):
        module_triangularize([(z, z, z)])


def bezout_eliminate(work, col):
    """The fold `ideals._eliminate` replaced, kept as the reference: each
    further row with an entry in `col` is combined with the pivot by xgcd,
    the pivot taking the Bezout combination and the other row the cleared
    one; the pivot leaves `work` and is returned."""
    pivot = None
    rest = []
    for row in work:
        if row[col].is_zero():
            rest.append(row)
            continue
        if pivot is None:
            pivot = row
            continue
        g, sco, tco = xgcd(pivot[col], row[col])
        qa = exact_div(pivot[col], g)
        qb = exact_div(row[col], g)
        new_pivot = [sco * pivot[k] + tco * row[k] for k in range(3)]
        dead = [qb * pivot[k] - qa * row[k] for k in range(3)]
        assert dead[col].is_zero()
        pivot = new_pivot
        rest.append(dead)
    work[:] = rest
    return pivot


def generating_set(rng, J):
    """(rows, spans, c): 3-9 rows of c * J for a random nonzero c.  Two draws
    in three span c * J (the basis mixed by elementary row operations, plus
    further elements); the third stays in the span of two basis elements,
    so its rank is at most 2."""
    F = J.ctx
    e = list(J.basis())
    k = rng.randrange(3, 10)
    spans = rng.randrange(3) > 0
    if spans:
        rows = e[:]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            rows[i] = rows[i] + rows[j].scale(rand_poly(rng, F, 2))
        gens = e
    else:
        rows = []
        gens = rng.sample(e, 2)
    while len(rows) < k:
        row = gens[0].scale(rand_poly(rng, F, 2))
        for g in gens[1:]:
            row = row + g.scale(rand_poly(rng, F, 2))
        rows.append(row)
    rng.shuffle(rows)
    c = rand_poly(rng, F, 1, nonzero=True)
    return [r.scale(c) for r in rows], spans, c


def triangularize_outcome(rows):
    try:
        return module_triangularize(rows)
    except DomainError:
        return DomainError


@pytest.mark.parametrize("field", ["GF(3)", "GF(9)", "F_3^10"])
def test_triangularize_matches_bezout_reference(field, ram3, zoo9, s13,
                                                monkeypatch):
    """The Euclidean fold and the Bezout reference give equal canonical
    ideals on seeded generating sets of 3-9 rows, and both raise DomainError
    on the rank-deficient ones."""
    od = {"GF(3)": lambda: ram3[0][1],
          "GF(9)": lambda: compute_order_data(zoo9[3]),
          "F_3^10": lambda: s13["od"]}[field]()
    rng = seeded(163)
    seen = {True: 0, False: 0}
    for _ in range(30):
        J = rand_ideal(rng, od, maxdeg=1, cap=9)
        rows, spans, c = generating_set(rng, J)
        fast = triangularize_outcome(rows)
        with monkeypatch.context() as m:
            m.setattr(ideals, "_eliminate", bezout_eliminate)
            ref = triangularize_outcome(rows)
        assert fast == ref
        if spans:
            assert fast.d == c.monic() and fast.primitive_part() == J
        else:
            assert fast is DomainError
        seen[spans] += 1
    assert seen[True] and seen[False]


def test_triangularize_row_order_independent(dist3):
    _, od = dist3
    rng = seeded(83)
    for _ in range(20):
        J = rand_ideal(rng, od, cap=4)
        rows = list(J.basis())
        rows2 = [rows[2], rows[0], rows[1]]
        extra = rows + [rows[0].scale(Poly.x(od.ctx))]
        a = module_triangularize(rows)
        b = module_triangularize(rows2)
        c = module_triangularize(extra)
        assert a == b == c == J
        # idempotence: triangularizing the canonical basis reproduces it
        assert module_triangularize(list(a.basis())) == a


def test_oracle_mul_trivia(dist3):
    _, od = dist3
    F = od.ctx
    u = unit_ideal(F)
    rng = seeded(89)
    J = rand_ideal(rng, od, maxdeg=1, cap=6)
    assert oracle_ideal_mul(J, u, od) == J
    assert ideal_norm(oracle_ideal_mul(J, J, od)) == (
        ideal_norm(J) * ideal_norm(J)
    ).monic()


def test_oracle_min_norm_trivia(dist3):
    _, od = dist3
    F = od.ctx
    assert oracle_min_norm(unit_ideal(F), 0, od) == 0
    # principal <x>: every element is x * (order element); min norm degree 3
    from cubicff.classgroup import can_basis

    x = Poly.x(F)
    J = can_basis(Element(x, Poly.zero(F), Poly.zero(F)), od)
    # the principal <x> has content x; its primitive part is the unit ideal,
    # whose minimal norm degree is 0, so check the scaled norm directly too
    assert J.d == x and J.primitive_part().is_unit()
    assert oracle_min_norm(J.primitive_part(), 1, od) == 0
    el = Element(x, Poly.zero(F), Poly.zero(F))
    assert element_norm(el, od).deg == 3


def test_oracle_min_norm_budget(dist3):
    _, od = dist3
    with pytest.raises(DomainError):
        oracle_min_norm(unit_ideal(od.ctx), 60, od)


def test_oracle_min_norm_needs_distinguished(ex62):
    _, od = ex62
    with pytest.raises(DomainError):
        oracle_min_norm(unit_ideal(od.ctx), 1, od)


def test_oracle_split_examples(gf3):
    from cubicff.places import SplitTag

    x = Poly.x(gf3)
    od = compute_order_data(Curve(Poly.one(gf3), x))
    st = oracle_split(x, od)
    assert st.tag is SplitTag.COMPLETELY_SPLIT
    assert sorted(tuple(p.root.c) for p in st.primes) == [(), (1,), (2,)]
    st = oracle_split(x - Poly.one(gf3), od)
    assert st.tag is SplitTag.INERT
    # ramified reading comes from the discriminant valuation
    two = Poly.const(gf3, 2)
    od4 = compute_order_data(Curve(x * x + x, x ** 3 + two * x * x))
    st = oracle_split(x, od4)
    assert st.tag is SplitTag.PARTIALLY_RAMIFIED


def test_oracle_split_budget():
    F27 = Fq(3, [1, 2, 0, 1])
    x = Poly.x(F27)
    od = compute_order_data(Curve(Poly.one(F27), x))
    # a degree-4 place over GF(27) has residue field 3^12 > the 3^10 cap
    from cubicff.polyring import is_irreducible

    P = None
    rng = seeded(97)
    while P is None:
        cand = Poly(F27, [rng.randrange(27) for _ in range(4)] + [1])
        if is_irreducible(cand):
            P = cand
    with pytest.raises(DomainError):
        oracle_split(P, od)
