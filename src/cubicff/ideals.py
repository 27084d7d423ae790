"""Canonical triangular representation of integral ideals.

A nonzero integral ideal of the maximal order is stored as

    d * [ s,  sp*(u + rho),  spp*(v + w*rho + omega) ]

with d, s, sp, spp monic, sp | s, spp | s, and gcd(sp, spp) = 1 (which holds
for every ideal of these orders; it is asserted, not assumed silently).  The
ideal is primitive exactly when d = 1.  Reduction ranges making the form
unique:

    deg u < deg(s/sp),   deg w < deg sp,   deg v < deg(s/spp).

The v-range is deliberately tighter than "deg v < deg s": multiples of s/spp
can be absorbed into v while keeping the triangular shape, so reducing v
modulo s/spp (not merely s) is what makes equality a plain field-by-field
comparison.

The norm of the ideal is d^3 * s * sp * spp.  `module_triangularize` brings
any generating set of an ideal to this form by Euclidean row reduction.
Coordinates equal to 1 or 0 are the field's one shared unit and zero
polynomial, so a kept ideal holds only its nontrivial polynomials.
"""

from dataclasses import dataclass

from .errors import DomainError, InvariantError
from .polyring import Poly, exact_div, gcd, gcd_many, invmod
from .order import Element, element_mul


@dataclass(frozen=True, slots=True)
class Ideal:
    d: Poly
    s: Poly
    sp: Poly
    spp: Poly
    u: Poly
    w: Poly
    v: Poly

    @property
    def ctx(self):
        return self.s.ctx

    def is_primitive(self):
        return self.d.is_one()

    def is_unit(self):
        return (
            self.d.is_one()
            and self.s.is_one()
            and self.sp.is_one()
            and self.spp.is_one()
        )

    def primitive_part(self):
        if self.d.is_one():
            return self
        return Ideal(self.ctx.poly_one, self.s, self.sp, self.spp,
                     self.u, self.w, self.v)

    def basis(self):
        """The three basis elements as order elements."""
        F = self.ctx
        z = Poly.zero(F)
        ds = self.d * self.s
        dsp = self.d * self.sp
        dspp = self.d * self.spp
        return (
            Element(ds, z, z),
            Element(dsp * self.u, dsp, z),
            Element(dspp * self.v, dspp * self.w, dspp),
        )

    def __repr__(self):
        from .polyring import poly_str

        core = (
            f"[{poly_str(self.s)}, {poly_str(self.sp)}({poly_str(self.u)}+rho), "
            f"{poly_str(self.spp)}({poly_str(self.v)}+{poly_str(self.w)}rho+omega)]"
        )
        if self.d.is_one():
            return core
        return f"<{poly_str(self.d)}>" + core


def make_ideal(d, s, sp, spp, u, w, v):
    """Normalize raw triangular data into the canonical form."""
    if d.is_zero() or s.is_zero() or sp.is_zero() or spp.is_zero():
        raise DomainError("degenerate triangular data")
    d, s, sp, spp = d.monic(), s.monic(), sp.monic(), spp.monic()
    s_over_sp = exact_div(s, sp)
    s_over_spp = exact_div(s, spp)
    if not gcd(sp, spp).is_one():
        raise InvariantError("triangular diagonal with gcd(sp, spp) != 1")
    u = u % s_over_sp
    k, w = divmod(w, sp)
    v = (v - k * sp * u) % s_over_spp
    one, z = s.ctx.poly_one, s.ctx.poly_zero
    return Ideal(*(one if p.is_one() else z if not p.c else p
                   for p in (d, s, sp, spp, u, w, v)))


def unit_ideal(ctx):
    one, z = ctx.poly_one, ctx.poly_zero
    return Ideal(one, one, one, one, z, z, z)


def principal_ideal(f):
    """The ideal f * O for a nonzero polynomial f."""
    if f.is_zero():
        raise DomainError("principal ideal of zero")
    one, z = f.ctx.poly_one, f.ctx.poly_zero
    return Ideal(f.monic(), one, one, one, z, z, z)


def ideal_norm(J):
    return J.d * J.d * J.d * J.s * J.sp * J.spp


def ideal_contains(J1, J2):
    """True iff J1 is a subset of J2, by the six divisibility/congruence
    conditions on the scaled triangular data."""
    s1, sp1, spp1 = J1.d * J1.s, J1.d * J1.sp, J1.d * J1.spp
    s2, sp2, spp2 = J2.d * J2.s, J2.d * J2.sp, J2.d * J2.spp
    for big, small in ((s1, s2), (sp1, sp2), (spp1, spp2)):
        if not divides(small, big):
            return False
    if not congruent(sp1 * J1.u, sp1 * J2.u, s2):
        return False
    if not congruent(spp1 * J1.w, spp1 * J2.w, sp2):
        return False
    rhs = J2.v + J2.u * (J1.w - J2.w)
    if not congruent(spp1 * J1.v, spp1 * rhs, s2):
        return False
    return True


def divides(a, b):
    return (b % a).is_zero()


def congruent(a, b, m):
    return ((a - b) % m).is_zero()


def ideal_member(J, elem):
    """Exact membership of an order element in the ideal."""
    a, b, c = elem.coords()
    dspp = J.d * J.spp
    q, r = divmod(c, dspp)
    if not r.is_zero():
        return False
    a = a - q * dspp * J.v
    b = b - q * dspp * J.w
    dsp = J.d * J.sp
    q, r = divmod(b, dsp)
    if not r.is_zero():
        return False
    a = a - q * dsp * J.u
    return divmod(a, J.d * J.s)[1].is_zero()


def ideal_validate(J, od):
    """Full structural check of given triangular data: canonical ranges plus
    closure under multiplication by rho and omega.  Raises DomainError on
    failure."""
    F = J.ctx
    for p in (J.d, J.s, J.sp, J.spp):
        if not p.is_monic():
            raise DomainError("non-monic diagonal entry")
    if not divides(J.sp, J.s) or not divides(J.spp, J.s):
        raise DomainError("diagonal divisibility broken")
    if not gcd(J.sp, J.spp).is_one():
        raise DomainError("gcd(sp, spp) != 1 violated")
    if J.u.deg >= exact_div(J.s, J.sp).deg and not J.u.is_zero():
        raise DomainError("u out of canonical range")
    if J.w.deg >= J.sp.deg and not J.w.is_zero():
        raise DomainError("w out of canonical range")
    if J.v.deg >= exact_div(J.s, J.spp).deg and not J.v.is_zero():
        raise DomainError("v out of canonical range")
    rho = Element(Poly.zero(F), Poly.one(F), Poly.zero(F))
    omega = Element(Poly.zero(F), Poly.zero(F), Poly.one(F))
    for e in J.basis():
        for g in (rho, omega):
            if not ideal_member(J, element_mul(e, g, od)):
                raise DomainError("triangular data is not an ideal (closure)")
    return True


def module_triangularize(rows):
    """Canonical d*[s, sp(u+rho), spp(v+w rho+omega)] for the module spanned
    by the given coordinate triples (Element or (a, b, c) tuples): the omega,
    rho and 1 columns are folded in turn into one pivot row each by
    `_eliminate`, and the three pivots are brought to the canonical ranges."""
    work = []
    for r in rows:
        if isinstance(r, Element):
            a, b, c = r.coords()
        else:
            a, b, c = r
        if not (a.is_zero() and b.is_zero() and c.is_zero()):
            work.append([a, b, c])
    if not work:
        raise DomainError("rank-deficient module (no nonzero rows)")
    third = _eliminate(work, 2)
    second = _eliminate(work, 1)
    first = _eliminate(work, 0)
    if first is None or second is None or third is None:
        raise DomainError("rank-deficient module (rank < 3)")
    sc = first[0].ctx
    d = gcd_many(
        [first[0], second[0], second[1], third[0], third[1], third[2]]
    )
    s = exact_div(first[0].monic(), d)
    row2 = [p.scale(sc.inv(second[1].lc())) for p in second]
    sp = exact_div(row2[1], d)
    u, r = divmod(exact_div(row2[0], d), sp)
    if not r.is_zero():
        raise InvariantError("second row is not sp-divisible: not an ideal")
    row3 = [p.scale(sc.inv(third[2].lc())) for p in third]
    spp = exact_div(row3[2], d)
    x0 = exact_div(row3[0], d)
    y0 = exact_div(row3[1], d)
    # move to the spp-divisible representative: subtract l * (second row)
    # with l = y0 / sp mod spp (gcd(sp, spp) = 1 for these orders)
    l = (y0 * invmod(sp, spp)) % spp
    y0 = y0 - l * sp
    x0 = x0 - l * sp * u
    v, rv = divmod(x0, spp)
    w, rw = divmod(y0, spp)
    if not (rv.is_zero() and rw.is_zero()):
        raise InvariantError("third row is not spp-divisible: not an ideal")
    return make_ideal(d, s, sp, spp, u, w, v)


def _eliminate(work, col):
    """Fold the rows of `work` with a nonzero entry in `col` (all entries
    past `col` are zero) into one pivot row by Euclidean row reduction
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4): the row
    with the lowest-degree entry is the pivot, every other row loses
    (row[col] // pivot[col]) * pivot, and rows whose entry vanishes leave the
    fold, until one row is left.  The pivot is returned (None if no row had
    an entry) and `work` keeps the rest."""
    live = [row for row in work if not row[col].is_zero()]
    work[:] = [row for row in work if row[col].is_zero()]
    while len(live) > 1:
        pivot = min(live, key=lambda row: row[col].deg)
        p = pivot[col]
        left = [pivot]
        for row in live:
            if row is pivot:
                continue
            q, r = divmod(row[col], p)
            row = ([row[k] - q * pivot[k] for k in range(col)]
                   + [r] + row[col + 1:])
            (work if r.is_zero() else left).append(row)
        live = left
    return live[0] if live else None
