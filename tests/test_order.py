"""Maximal order data: index, shift, discriminant, genus, element products
and norms (with an independent resultant oracle)."""

import pytest

from cubicff.errors import ApplicabilityError, DomainError
from cubicff.ff import GF3
from cubicff.polyring import Poly, exact_div
from cubicff.curve import Curve
from cubicff.order import (
    Element,
    compute_order_data,
    element_mul,
    element_norm,
    norm_degree_parts,
)
from cubicff.places import SplitTag

from conftest import rand_poly, seeded


def rho_omega(F):
    z = Poly.zero(F)
    one = Poly.one(F)
    return Element(z, one, z), Element(z, z, one)


def test_section13_order_data(s13):
    od = s13["od"]
    assert od.I.is_one() and od.i.is_zero()
    assert od.E.is_one()
    assert od.F == od.B
    assert od.delta.is_one()
    assert od.genus == 3
    assert od.infinite.tag is SplitTag.TOTALLY_RAMIFIED
    assert od.distinguished_ok


def test_example62_order_data(ex62):
    c, od = ex62
    assert od.I == c.A.monic()
    # the printed shift x^3 + x^2 fails I^2 | i^3 - iA + B; the true shift is
    # its negative, and the defining divisibility pins it uniquely
    x = Poly.x(GF3)
    assert od.i == -(x ** 3 + x ** 2)
    bad = x ** 3 + x ** 2
    assert not divmod(bad ** 3 - bad * od.A + od.B, od.I * od.I)[1].is_zero()
    fi2 = od.F * od.I * od.I
    assert fi2 == od.i ** 3 - od.i * od.A + od.B
    assert fi2.deg == 9
    assert not od.distinguished_ok  # 3 | 9
    assert od.genus == 3  # deg B - deg I - 1 = 8 - 4 - 1


def test_nonsingular_standard_curve_has_trivial_index(gf3):
    x = Poly.x(gf3)
    od = compute_order_data(Curve(Poly.one(gf3), x))
    assert od.I.is_one() and od.i.is_zero() and od.delta == Poly.one(gf3)
    assert od.genus == 0  # deg B - deg I - 1 = 1 - 0 - 1


def test_genus_tame_formula(gf3):
    x = Poly.x(gf3)
    one = Poly.one(gf3)
    # A = x (odd degree), B = 1: tame, partially ramified
    od = compute_order_data(Curve(x, one))
    assert od.infinite.tag is SplitTag.PARTIALLY_RAMIFIED
    assert od.genus == (3 * 1 - 0 + 1 - 4) // 2  # = 0


def test_basis_product_identities(s13, zoo3):
    for od in [s13["od"]] + [compute_order_data(c) for c in zoo3]:
        F = od.ctx
        rho, omega = rho_omega(F)
        z = Poly.zero(F)
        assert element_mul(rho, rho, od).coords() == (od.A, z, od.I)
        assert element_mul(omega, omega, od).coords() == (z, -od.F, -od.E)
        assert element_mul(rho, omega, od).coords() == (-od.F * od.I, z, z)
        # rho^3 - A rho + FI^2 = 0, assembled by repeated multiplication
        r3 = element_mul(element_mul(rho, rho, od), rho, od)
        res = Element(r3.a + od.F * od.I * od.I, r3.b - od.A, r3.c)
        assert res.is_zero()
        o2 = element_mul(omega, omega, od)
        o3 = element_mul(o2, omega, od)
        # omega^3 + E omega^2 - F^2 I = 0
        res = o3 + o2.scale(od.E) - Element(od.F * od.F * od.I, z, z)
        assert res.is_zero()


def test_norms_of_generators(s13, zoo3):
    for od in [s13["od"]] + [compute_order_data(c) for c in zoo3]:
        F = od.ctx
        rho, omega = rho_omega(F)
        one = Element(Poly.one(F), Poly.zero(F), Poly.zero(F))
        assert element_norm(one, od) == Poly.one(F)
        assert element_norm(rho, od) == -(od.F * od.I * od.I)
        assert element_norm(omega, od) == od.F * od.F * od.I


def resultant_norm(u, od):
    """Independent norm: N(u) = Res_y(y^3 - A y + B, I*g(y)) / I^3 where
    g(y) expresses u in powers of y."""
    F = od.ctx
    z = Poly.zero(F)
    # I*g = I*a + I*b*(y - i) + c*(y^2 + i y + i^2 - A)
    g0 = od.I * u.a - od.I * u.b * od.i + u.c * (od.i * od.i - od.A)
    g1 = od.I * u.b + u.c * od.i
    g2 = u.c
    m = [od.B, -od.A, z, Poly.one(F)]
    h = [g0, g1, g2]
    # Sylvester(m, h): (deg h) rows of m-coeffs and (deg m) rows of h-coeffs
    rows = []
    mc = list(reversed(m))
    hc = list(reversed(h))
    for k in range(2):
        rows.append([z] * k + mc + [z] * (2 - k - 1))
    for k in range(3):
        rows.append([z] * k + hc + [z] * (3 - k - 1))

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        acc = Poly.zero(F)
        for j, lead in enumerate(mat[0]):
            if lead.is_zero():
                continue
            minor = [r[:j] + r[j + 1 :] for r in mat[1:]]
            term = lead * det(minor)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    res = det(rows)
    return exact_div(res, od.I ** 3)


def test_norm_against_resultant_and_multiplicativity(zoo3, s13):
    rng = seeded(23)
    for od in [compute_order_data(c) for c in zoo3] + [s13["od"]]:
        F = od.ctx
        for _ in range(12):
            u = Element(*(rand_poly(rng, F, 2) for _ in range(3)))
            v = Element(*(rand_poly(rng, F, 2) for _ in range(3)))
            nu = element_norm(u, od)
            assert nu == resultant_norm(u, od)
            assert element_norm(element_mul(u, v, od), od) == nu * element_norm(v, od)


def test_norm_degree_parts(s13):
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    z = Poly.zero(F)
    assert od.FI2.deg == 4 and od.F2I.deg == 8
    parts = norm_degree_parts(Element(x * x, z, z), od)
    assert parts[0] == 6 and parts[1] < 0 and parts[2] < 0
    el = Element(s13["a3"] * x * x, s13["b3"] * x * x, x * x)
    assert norm_degree_parts(el, od) == (6, 10, 14)
    assert element_norm(el, od).deg == 14


def test_norm_degree_max_rule_fuzz(dist3):
    _, od = dist3
    rng = seeded(31)
    for _ in range(150):
        u = Element(*(rand_poly(rng, od.ctx, 3) for _ in range(3)))
        if u.is_zero():
            continue
        assert element_norm(u, od).deg == max(norm_degree_parts(u, od))


def test_norm_degree_parts_applicability(ex62):
    _, od = ex62
    with pytest.raises(ApplicabilityError):
        norm_degree_parts(Element(Poly.one(od.ctx), Poly.zero(od.ctx),
                                  Poly.zero(od.ctx)), od)


def test_compute_order_data_rejects_nonstandard(gf3):
    x = Poly.x(gf3)
    # removable singular factor at x: A = x^2, B = x^3 (x+1)
    with pytest.raises(DomainError):
        compute_order_data(Curve(x * x, x ** 3 * (x + Poly.one(gf3))))


def test_compute_order_data_rejects_constant_cubic(gf3, gf9):
    """A cubic whose A and B are both constant splits over a finite
    extension of F_q: compute_order_data rejects it with the DomainError of
    standardize, not an internal error; a constant A with a wild B is a
    curve."""
    from cubicff.curve import standardize

    for F in (gf3, gf9):
        for a, b in ((1, 1), (2, 1), (1, 2), (F.q - 1, F.q - 2)):
            c = Curve(Poly.const(F, a), Poly.const(F, b))
            for build in (compute_order_data, standardize):
                with pytest.raises(DomainError, match="constant coefficients"):
                    build(c)
        assert compute_order_data(
            Curve(Poly.one(F), Poly.x(F))).genus == 0


def test_compute_order_data_scans_once(zoo3, zoo9, monkeypatch):
    """One compute_order_data call computes the singularity gcd once and
    factors at most once (the gcd), on curves with and without a singular
    prime; a curve with a removable prime is rejected by the same scan.
    The scan is kept on the curve, so each zoo curve enters as a fresh
    instance that no earlier test has scanned."""
    import cubicff.curve as curve
    import cubicff.order as order

    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for mod in (curve, order):
        for name in ("detect_singularity", "factor"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    x = Poly.x(GF3)
    removable = Curve(x * x, x ** 3 * (x + Poly.one(GF3)))
    factored = 0
    for c in [Curve(c.A, c.B) for c in zoo3 + zoo9] + [removable]:
        calls.clear()
        if c is removable:
            with pytest.raises(DomainError, match="removable factor"):
                compute_order_data(c)
        else:
            compute_order_data(c)
        assert calls.count("detect_singularity") == 1, calls
        assert calls.count("factor") <= 1, calls
        factored += calls.count("factor")
    assert factored >= 3  # curves with a singular prime were among them


def test_order_data_hashes_its_fields_once(zoo3, zoo9):
    """Two OrderData of one curve hash equal, to the hash of the ten
    declared fields; the hash is taken once, reading the derived products
    and memos leaves it unchanged, and a pickle leaves it out (str and
    bytes hash differently in each process)."""
    import dataclasses
    import pickle

    for c in zoo3[:3] + zoo9[:2]:
        od, od2 = compute_order_data(c), compute_order_data(c)
        want = hash(tuple(getattr(od, f.name)
                          for f in dataclasses.fields(od)))
        assert len(dataclasses.fields(od)) == 10
        assert hash(od) == hash(od2) == want and od == od2
        od.FI2, od.A_primes, od.ramified
        assert hash(od) == want and od.__dict__["_hash"] == want
        back = pickle.loads(pickle.dumps(od))
        assert "_hash" not in back.__dict__ and "FI2" in back.__dict__
        assert back == od and hash(back) == want
