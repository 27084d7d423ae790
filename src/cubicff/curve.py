"""Standard models of cubic curves in characteristic three.

A general cubic S*T^3 + U*T^2 + V*T + W (with SW != 0, not both U = V = 0) is
converted to the two-parameter depressed shape T^3 - A*T + B.  A curve in that
shape is a *standard model* once

  * no irreducible Q admits a shift witness i with Q^2 | A and
    Q^3 | (i^3 - i*A + B), and
  * exactly one of the degree criteria holds:
      (wild)  3 does not divide deg B and 2 deg B > 3 deg A, or
      (tame)  2 deg B <= 3 deg A.

The transformations used, with their root relations:
  depress, U = 0:        y' = S y                   (A, B) = (-S V, S^2 W)
  depress, U != 0:       y' = N / (U y - V),        N = S V^3 - U^2 V^2 + U^3 W,
                         (A, B) = (-N U^2, S N^2)
  singular removal:      y' = (y - i)/Q             (A, B) = (A/Q^2, (i^3 - iA + B)/Q^3)
  degree reduction:      y' = y + c x^n, c^3 = lc(B), deg B = 3n
                         B' = B - c^3 x^(3n) + A c x^n

The U != 0 depression (eliminate the linear term by a shift, then take the
monic integral reciprocal) is derived from scratch here; it is fuzz-checked by
verifying the stated root relation as a polynomial identity.

`singular_primes` is the one local test at the singular primes, run once
per curve and kept on it as `Curve.singular_scan`: it serves the removal
step here, the standard-form test and index in `order` and the
`nonsingular` report of the CLI.
The polynomial-root test of a tame model is the GF(3) solve of `polyring`
that also finds residue roots and cube roots mod P.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, InvariantError
from .polyring import (
    Poly,
    cube_root_mod,
    cubic_poly_root,
    exact_div,
    factor,
    gcd,
    squarefree_decomposition,
    valuation,
)


@dataclass(frozen=True)
class GeneralCubic:
    S: Poly
    U: Poly
    V: Poly
    W: Poly

    def __post_init__(self):
        if self.S.is_zero() or self.W.is_zero():
            raise DomainError("general cubic needs S != 0 and W != 0")
        if self.U.is_zero() and self.V.is_zero():
            raise DomainError(
                "U = V = 0 gives a purely inseparable (degenerate) curve"
            )

    @property
    def ctx(self):
        return self.S.ctx


@dataclass(frozen=True)
class Curve:
    """T^3 - A*T + B over F_q[x]; B != 0 (else T divides), A != 0 (else
    inseparable)."""

    A: Poly
    B: Poly

    def __post_init__(self):
        if self.B.is_zero():
            raise DomainError("B = 0 makes the cubic reducible")
        if self.A.is_zero():
            raise DomainError("A = 0 gives a purely inseparable curve")

    @property
    def ctx(self):
        return self.A.ctx

    def criterion_wild(self):
        """3 does not divide deg B and 2 deg B > 3 deg A."""
        return self.B.deg % 3 != 0 and 2 * self.B.deg > 3 * self.A.deg

    def criterion_tame(self):
        return 2 * self.B.deg <= 3 * self.A.deg

    @cached_property
    def singular_scan(self):
        """`singular_primes(self)`, kept in the instance dict: equality and
        hash stay over A and B, and the scan dies with the curve."""
        return singular_primes(self)


def depress(g):
    """Convert a general cubic to T^3 - A*T + B; returns (Curve, record)."""
    if g.U.is_zero():
        A = -(g.S * g.V)
        B = g.S * g.S * g.W
        return Curve(A, B), ("depress_u0", g.S)
    n = g.S * g.V * g.V * g.V - g.U * g.U * g.V * g.V + g.U * g.U * g.U * g.W
    if n.is_zero():
        raise DomainError("degenerate general cubic: the shifted curve is reducible")
    A = -(n * g.U * g.U)
    B = g.S * n * n
    return Curve(A, B), ("depress", n)


def singular_primes(c):
    """[(P, i0, i0^3 - i0*A + B)] over the monic irreducible factors P of
    the singularity gcd d, in `factor` order, with i0 the cube root of -B
    mod P: the one local test at each singular prime.

    A prime outside d is never removable and never divides the index: both
    need P | A and v_P(val) >= 2, val = i0^3 - i0*A + B.  Then P divides
    val' = B' - i0*A' - i0'*A, so P | B' - i0*A'; as B = -i0^3 mod P and
    the characteristic is 3, A'^3 B + B'^3 = (B' - i0*A')^3 mod P, so P | d.
    """
    d = detect_singularity(c)[0]
    out = []
    for P, _ in factor(d) if d.deg >= 1 else ():
        i0 = cube_root_mod(-c.B, P)
        out.append((P, i0, i0 * i0 * i0 - i0 * c.A + c.B))
    return out


def removal_step(c, scan):
    """The removal at the first P of `scan` (see `singular_primes`) with
    P^2 | A and v_P(i0^3 - i0*A + B) >= 3, or None."""
    for P, i0, val in scan:
        P2 = P * P
        if (c.A % P2).is_zero() and (val.is_zero() or valuation(val, P) >= 3):
            newB = exact_div(val, P2 * P)
            if newB.is_zero():
                raise DomainError("curve is reducible (B vanished in removal)")
            return Curve(exact_div(c.A, P2), newB), P, i0
    return None


def remove_singular_factor(c):
    """One singular-factor removal step, or None when no factor is
    removable."""
    return removal_step(c, c.singular_scan)


def reduce_b_degree(c):
    """Drain leading cubes from B while 3 | deg B and 2 deg B > 3 deg A."""
    F = c.ctx
    A, B = c.A, c.B
    records = []
    while B.deg >= 0 and B.deg % 3 == 0 and 2 * B.deg > 3 * A.deg:
        n = B.deg // 3
        lead = B.lc()
        croot = F.cube_root(lead)
        B = B - Poly.monomial(F, 3 * n, lead) + A * Poly.monomial(F, n, croot)
        records.append(("frobshift", Poly.const(F, croot), n))
        if B.is_zero():
            raise DomainError("curve is reducible (B reduced to zero)")
    return Curve(A, B), records


def standardize(obj):
    """Full conversion to a standard model; returns (Curve, transcript).

    The transcript is the ordered list of transformation records:
    ("depress_u0", S) | ("depress", N) | ("remove", Q, i) |
    ("frobshift", c, n).
    """
    transcript = []
    if isinstance(obj, GeneralCubic):
        c, rec = depress(obj)
        transcript.append(rec)
    else:
        c = obj
    while True:
        step = remove_singular_factor(c)
        if step is not None:
            c, Q, i = step
            transcript.append(("remove", Q, i))
            continue
        c2, recs = reduce_b_degree(c)
        if recs:
            transcript.extend(recs)
            c = c2
            continue
        break
    if c.criterion_wild() == c.criterion_tame():
        raise InvariantError("standard form must satisfy exactly one criterion")
    if c.criterion_tame():
        _reject_polynomial_root(c)
    return c, transcript


def _reject_polynomial_root(c):
    """Reducibility check: a root r in F_q[x] of T^3 - A T + B has
    2 deg r <= deg A under the tame criterion (else deg r^3 exceeds both
    deg A r and deg B), so one GF(3) solve over those degrees decides it
    (`cubic_poly_root`).  A constant A forces a constant B here, and a cubic
    with constant coefficients splits over a finite extension of F_q: it is
    rejected as geometrically reducible."""
    if c.A.deg < 1:
        raise DomainError(
            "cubic with constant coefficients is geometrically reducible"
        )
    if cubic_poly_root(c.A, c.B, c.A.deg // 2) is not None:
        raise DomainError("cubic is reducible: it has a polynomial root")


def detect_singularity(c):
    """(d, nonsingular) with d = monic gcd(A, A'^3 B + B'^3)."""
    ap = c.A.derivative()
    bp = c.B.derivative()
    rhs = ap * ap * ap * c.B + bp * bp * bp
    d = gcd(c.A, rhs)  # A != 0
    return d, d.deg == 0


def is_artin_schreier(c):
    """Galois cubic test: the extension is Artin-Schreier iff A is a square,
    that is lc(A) is a square and every multiplicity in the squarefree
    decomposition of A is even (its parts are squarefree and coprime)."""
    return c.ctx.is_square(c.A.lc()) and all(
        e % 2 == 0 for _, e in squarefree_decomposition(c.A)
    )
