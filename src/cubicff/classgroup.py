"""Composition and reduction in the ideal class group.

Requires the distinguished-ideal setting (wild criterion plus
3 not dividing deg F*I^2): then the three coordinate weights
3*deg + (0, deg FI^2, deg F^2I) lie in distinct residue classes mod 3, every
row of a triangular basis has a unique dominating coordinate, and the
minimal-element sweep below terminates because each cancellation strictly
lowers the maximal weight of the row it rewrites.

comp_red(I1, I2) returns the unique distinguished ideal of the class of
I1*I2: multiply to the primitive I3, invert to inv = <s3> * I3^(-1), take a
minimal-norm element alpha of inv, and return <alpha> * inv^(-1) =
(alpha * I3) / <s3>, one triangularization of the rows alpha*e/s3 over the
basis e of I3.  The first basis element of the primitive I3 is s3, so the
first row is alpha itself; the other two are divided exactly by s3.  A
remainder, or a content left in the result, means alpha was not in inv, and
the result is checked to be reduced (norm degree at most the genus); the
call fails loudly otherwise instead of returning a non-distinguished ideal.
"""

from .errors import ApplicabilityError, DomainError, InvariantError
from .idealarith import ideal_invert, ideal_mul, ideal_norm
from .ideals import module_triangularize
from .order import Element, element_mul, norm_weight
from .polyring import NEG_INF, Poly


class _Row:
    __slots__ = ("b", "weights", "wmax", "arg", "idx")

    def __init__(self, coords, od, idx):
        self.b = list(coords)
        self.idx = idx
        self.recompute(od)

    def recompute(self, od):
        self.weights = [norm_weight(p, k, od) for k, p in enumerate(self.b)]
        self.wmax = max(self.weights)
        self.arg = self.weights.index(self.wmax)


def min_element(J, od):
    """A nonzero element of J of minimal norm degree, scaled so the
    dominating coordinate is monic (unique by the scalar normalization)."""
    if not od.distinguished_ok:
        raise ApplicabilityError(
            "minimal elements need the distinguished-ideal setting"
        )
    if not J.is_primitive():
        raise DomainError("min_element expects a primitive ideal")
    rows = [
        _Row(e.coords(), od, k) for k, e in enumerate(J.basis())
    ]
    for r in rows:
        if r.wmax == NEG_INF:
            raise InvariantError("zero row in a triangular basis")
    rows.sort(key=lambda r: (r.wmax, r.idx))
    guard = 0
    while True:
        a1, a2, a3 = rows[0].arg, rows[1].arg, rows[2].arg
        if a1 != a2 and a2 != a3 and a1 != a3:
            break
        guard += 1
        if guard > 10000:
            raise InvariantError("minimal element sweep failed to terminate")
        if a1 == a2:
            lo, hi = rows[0], rows[1]
        elif a1 == a3:
            lo, hi = rows[0], rows[2]
        else:
            lo, hi = rows[1], rows[2]
        col = lo.arg
        c, _ = divmod(hi.b[col], lo.b[col])
        if c.is_zero():
            raise InvariantError("cancellation quotient vanished")
        for k in range(3):
            hi.b[k] = hi.b[k] - c * lo.b[k]
        hi.recompute(od)
        if hi.wmax == NEG_INF:
            raise InvariantError("row vanished during the sweep")
        rows.sort(key=lambda r: (r.wmax, r.idx))
    best = rows[0]
    lead = best.b[best.arg].lc()
    if lead != 1:
        inv = Poly.const(od.ctx, od.ctx.inv(lead))
        best.b = [p * inv for p in best.b]
    return Element(*best.b)


def can_basis(alpha, od):
    """Canonical form of the principal ideal <alpha>: triangularize the
    coordinate rows of alpha, alpha*rho, alpha*omega."""
    if alpha.is_zero():
        raise DomainError("can_basis of the zero element")
    rho = Element(Poly.zero(od.ctx), Poly.one(od.ctx), Poly.zero(od.ctx))
    omega = Element(Poly.zero(od.ctx), Poly.zero(od.ctx), Poly.one(od.ctx))
    rows = [alpha, element_mul(alpha, rho, od), element_mul(alpha, omega, od)]
    return module_triangularize(rows)


def comp_red(I1, I2, od):
    """The distinguished representative of the class of I1*I2: with
    inv = <s3> * I3^(-1) and alpha a minimal element of inv, the quotient
    <alpha> / inv is (alpha * I3) / <s3>, spanned by alpha (from the basis
    element s3 of I3) and the other two rows alpha*e divided by s3; the
    division must be exact and the span primitive."""
    if not od.distinguished_ok:
        raise ApplicabilityError(
            "composition/reduction needs the distinguished-ideal setting"
        )
    for J in (I1, I2):
        if not J.is_primitive():
            raise DomainError("comp_red expects primitive ideals")
    _, I3 = ideal_mul(I1, I2, od)
    inv = ideal_invert(I3, od)
    alpha = min_element(inv, od)
    rows = [alpha]
    for e in I3.basis()[1:]:
        qr = [divmod(p, I3.s) for p in element_mul(alpha, e, od).coords()]
        if not all(r.is_zero() for _, r in qr):
            raise InvariantError("distinguished quotient left a content")
        rows.append([q for q, _ in qr])
    out = module_triangularize(rows)
    if not out.is_primitive():
        raise InvariantError("distinguished quotient left a content")
    if not is_reduced(out, od):
        raise InvariantError("distinguished representative is not reduced")
    return out


def is_reduced(J, od):
    """Norm degree at most the genus."""
    if not J.is_primitive():
        raise DomainError("is_reduced expects a primitive ideal")
    return ideal_norm(J).deg <= od.genus
