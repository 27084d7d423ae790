"""The maximal order of a standard-form cubic function field.

For a standard model T^3 - A*T + B the maximal order has the triangular basis
{1, rho, omega} with rho = y - i and omega = (y^2 + i*y + i^2 - A)/I, where
the index I = ind(y) is monic squarefree, i is the shift determined modulo I,
and

    A = E*I,    F*I^2 = i^3 - i*A + B,    Delta = A^3 / I^2.

Products of basis elements reduce through the three identities

    rho^2 = I*omega + A,   omega^2 = -E*omega - F*rho,   rho*omega = -F*I,

which drive all element and ideal arithmetic downstream.  Element norms are
computed as the determinant of the multiplication-by-alpha matrix in this
basis; expanding that determinant (char 3, so the a*b*c cross term vanishes)
gives

    N(a + b*rho + c*omega) = a^3 - a^2*c*E - a*b^2*A - b^3*F*I^2
                             + b^2*c*A*E - b*c^2*A*F - b*c^2*E*F*I + c^3*F^2*I.

In particular N(rho) = -F*I^2 and N(omega) = F^2*I, matching the minimal
polynomials rho^3 - A*rho + F*I^2 = 0 and omega^3 + E*omega^2 - F^2*I = 0.

A curve is *distinguished-friendly* (`distinguished_ok`) when the wild
criterion holds and 3 does not divide deg(F*I^2); then the norm degree obeys
deg N = max(3 deg a, 3 deg b + deg FI^2, 3 deg c + deg F^2I) with the three
offsets in distinct residue classes mod 3, and every ideal class contains a
unique distinguished representative.

`compute_order_data` reads I and i off the curve's one scan of the singular
primes (`Curve.singular_scan`), the scan that also rejects a removable
prime.
Besides its value, an `OrderData` carries the ramified places `A_primes`,
the factors of A, found once per curve, and the memo `ramified` of local
data at ramified places, which `places` fills.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import ApplicabilityError, DomainError, InvariantError
from .polyring import NEG_INF, Poly, crt2_general, exact_div, factor, valuation
from .curve import removal_step


@dataclass(frozen=True)
class OrderData:
    A: Poly
    B: Poly
    i: Poly
    I: Poly
    E: Poly
    F: Poly
    delta: Poly
    genus: int
    infinite: "SplittingType"  # noqa: F821 - see places.SplittingType
    distinguished_ok: bool

    @property
    def ctx(self):
        return self.A.ctx

    # Derived products and the memo, computed on first use; cached_property
    # stores them in the instance dict, so equality and hash stay over the
    # declared fields.

    @cached_property
    def FI(self):
        return self.F * self.I

    @cached_property
    def FI2(self):
        return self.F * self.I * self.I

    @cached_property
    def F2I(self):
        return self.F * self.F * self.I

    @cached_property
    def deg_fi2(self):
        return self.FI2.deg

    @cached_property
    def deg_f2i(self):
        return self.F2I.deg

    @cached_property
    def A_primes(self):
        """The monic irreducible factors of A in (deg, c) order: the finite
        places dividing Delta = A^3 / I^2, so the ramified ones."""
        return tuple(P for P, _ in factor(self.A)) if self.A.deg >= 1 else ()

    @cached_property
    def ramified(self):
        """Local data at ramified places, filled by `places`; its keys divide
        delta, so it holds at most one entry per factor of delta.  A race
        between threads only recomputes an entry."""
        return {}


@dataclass(frozen=True)
class Element:
    """a + b*rho + c*omega with polynomial coordinates."""

    a: Poly
    b: Poly
    c: Poly

    def coords(self):
        return (self.a, self.b, self.c)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero() and self.c.is_zero()

    def __add__(self, other):
        return Element(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other):
        return Element(self.a - other.a, self.b - other.b, self.c - other.c)

    def scale(self, poly):
        return Element(self.a * poly, self.b * poly, self.c * poly)


def element_mul(u, v, od):
    """Product in the order via the basis identities."""
    a1, b1, c1 = u.coords()
    a2, b2, c2 = v.coords()
    FI = od.FI
    a = a1 * a2 + b1 * b2 * od.A - (b1 * c2 + b2 * c1) * FI
    b = a1 * b2 + a2 * b1 - c1 * c2 * od.F
    c = a1 * c2 + a2 * c1 + b1 * b2 * od.I - c1 * c2 * od.E
    return Element(a, b, c)


def element_norm(u, od):
    """Determinant of multiplication by u in the basis (1, rho, omega)."""
    rho = Element(Poly.zero(od.ctx), Poly.one(od.ctx), Poly.zero(od.ctx))
    omega = Element(Poly.zero(od.ctx), Poly.zero(od.ctx), Poly.one(od.ctx))
    c0 = u.coords()
    c1 = element_mul(u, rho, od).coords()
    c2 = element_mul(u, omega, od).coords()
    return (
        c0[0] * (c1[1] * c2[2] - c1[2] * c2[1])
        - c1[0] * (c0[1] * c2[2] - c0[2] * c2[1])
        + c2[0] * (c0[1] * c1[2] - c0[2] * c1[1])
    )


def norm_weight(poly, position, od):
    """Weight of one coordinate: 3*deg + offset; -inf for zero coordinates."""
    if poly.is_zero():
        return NEG_INF
    return 3 * poly.deg + (0, od.deg_fi2, od.deg_f2i)[position]


def norm_degree_parts(u, od):
    """(3 deg a, 3 deg b + deg FI^2, 3 deg c + deg F^2I); needs the maximum
    rule, hence distinguished_ok."""
    if not od.distinguished_ok:
        raise ApplicabilityError(
            "norm degree decomposition requires the distinguished-ideal setting"
        )
    return tuple(norm_weight(p, k, od) for k, p in enumerate(u.coords()))


def compute_order_data(c):
    """Derive (i, I, E, F, Delta, genus, infinite signature) for a standard
    model.

    The curve's one scan of the singular primes (`Curve.singular_scan`)
    serves both tests: a removable prime rejects the model, and P divides
    the index iff v_P(i0^3 - i0*A + B) >= 2 for the cube root i0 of -B mod
    P; the shift i folds the i0 mod the index primes by `crt2_general`,
    so it is reduced mod I.
    """
    from .places import split_infinite  # local: places builds on this module

    if c.A.is_const() and c.B.is_const():
        raise DomainError(
            "cubic with constant coefficients is geometrically reducible"
        )
    if c.criterion_wild() == c.criterion_tame():
        raise DomainError("curve is not in standard form (criteria)")
    scan = c.singular_scan
    if removal_step(c, scan) is not None:
        raise DomainError("curve is not in standard form (removable factor)")
    ish, I = Poly.zero(c.ctx), Poly.one(c.ctx)
    for P, i0, val in scan:
        if val.is_zero():
            raise DomainError("cubic is reducible (i0 is a root)")
        if valuation(val, P) >= 2:
            ish, I = crt2_general(ish, I, i0, P)
    E = exact_div(c.A, I)
    fi2 = ish * ish * ish - ish * c.A + c.B
    if fi2.is_zero():
        raise DomainError("cubic is reducible (shift is a root)")
    Ff = exact_div(fi2, I * I)
    delta = exact_div(c.A * c.A * c.A, I * I)
    infinite = split_infinite(c)
    g = _genus_from(c, I, infinite)
    dist = c.criterion_wild() and fi2.deg % 3 != 0
    return OrderData(
        A=c.A,
        B=c.B,
        i=ish,
        I=I,
        E=E,
        F=Ff,
        delta=delta,
        genus=g,
        infinite=infinite,
        distinguished_ok=dist,
    )


def _genus_from(c, I, infinite):
    from .places import SplitTag

    if infinite.tag is SplitTag.TOTALLY_RAMIFIED:
        g = c.B.deg - I.deg - 1
    else:
        dinf = c.A.deg % 2
        num = 3 * c.A.deg - 2 * I.deg + dinf - 4
        if num % 2:
            raise InvariantError("genus formula produced a half-integer")
        g = num // 2
    if g < 0:
        raise InvariantError("negative genus; upstream invariant broken")
    return g
