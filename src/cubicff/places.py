"""Splitting of places and triangular bases of primes and their powers.

Finite places P are classified by v_P(discriminant) and, in the unramified
case, by the number of residue roots of the minimal cubic of rho:

    v_P(Delta) > 2   totally ramified   (P) = p^3
    v_P(Delta) = 1   split ramified     (P) = p q^2
    otherwise        unramified, with 0 / 1 / 3 residue roots giving
                     inert / partially split / completely split.

Ramification is read off A mod P: Delta = A^3 / I^2 with I | A squarefree,
so P | Delta exactly when P | A, and then v_P(Delta) = 3 v_P(A) - 2 v_P(I)
is never 0 or 2.  A unit A mod P is the residue cubic's a, so an
unramified place costs one reduction of A and of F*I^2 and one residue
solve; only the places dividing A take v_P(Delta).  Each split proves P
irreducible once: the residue solve does it for P prime to A and raises
DomainError on a reducible P, and `split_finite` does it for P | A.  The
splittings without a residue root are shared module constants, and the
records are slotted, so callers that keep every splitting hold little per
place.

The infinite place follows the degree criteria: wild models are totally
ramified; tame models split according to the constant cubic
Y^3 - a_{2n} Y + b_{3n} built from the leading coefficients.

Prime-power bases are produced from the defining congruences of each local
shape.  The only machinery needed is one Newton lift, `_lift`, of the simple
root of lead*T^3 - a*T + b modulo any M prime to a: in characteristic 3 the
derivative is the constant -a.  Its rho instance, `lift_rho_root`, lifts
the minimal cubic T^3 - A*T + F*I^2 of rho: the power bases call it modulo
P^k, and ideal arithmetic modulo the composite class I moduli of its rho
lines.  At a split-ramified P that cubic degenerates to T^3 mod P, since
v_P(A) = v_P(I) = 1; there the rho root of the unramified branch is P*S,
with S the root of P*S^3 - (A/P)*S + F*(I/P)^2, whose derivative -A/P is a
unit, so the same lift serves.  omega = (rho^2 - A)/I follows from rho.
Each construction is closed-form in the lifted root.
`_basis_from_exponents` takes (P)^m = prod p^(m e) off as content,
m = min floor(x_p / e_p), and each local builder sees only the primitive
remainder.  Every unramified remainder is p^a q^b with a <= b, built by
`_basis_unramified` from the third prime t, the one with the least
exponent: the three lifted rho roots sum to 0, so p q = (P) t^-1 is named
by the root of t alone (w = r_t/I).  A single inertia-1 prime is a = 0, a
pair over a completely split P has a >= 1, and the inertia-2 q^j over a
partially split P is a = b = j, with t the inertia-1 prime.  A totally
ramified P prime to the index is named by a rho root the same way: there
A = 0 mod P, so -f, f the cube root of F*I^2, is a root of the rho cubic
mod P, and the same builder gives p (a = 0) and p^2 = (P) p^-1 (t = p).
`prime_basis` is the exponent-1 case of `prime_power_basis`.

`local_exponents` reads ramified places only, the one place ideal
arithmetic needs exponents, and reads them off the canonical shape: every
primitive part above a split-ramified P is p^a, q^b or p^a q, told apart by
v_P of s, s' and s'' and, at the one tie s = P, by v mod P.

A ramified place is met again by every operation on an ideal above it, so
its local data is kept on the curve (`OrderData.ramified`, keyed only by
places dividing delta): at a split-ramified P the root S, 1/(I/P), rho and
omega at the highest precision asked so far, reduced for a lower precision
and lifted from S for a higher one; at a totally ramified P prime to the
index the rho root -f mod P.  Unramified places are never stored.
"""

import enum
import functools
from dataclasses import dataclass, replace

from .errors import DomainError, InvariantError
from .ideals import make_ideal, unit_ideal
from .polyring import (
    Poly,
    cube_root_mod,
    is_irreducible,
    cubic_residue_factor,
    exact_div,
    invmod,
    valuation,
)


class SplitTag(enum.Enum):
    TOTALLY_RAMIFIED = "totally_ramified"
    PARTIALLY_RAMIFIED = "partially_ramified"
    INERT = "inert"
    PARTIALLY_SPLIT = "partially_split"
    COMPLETELY_SPLIT = "completely_split"


@dataclass(frozen=True, slots=True)
class PrimeAbove:
    e: int
    f: int
    key: str
    root: Poly | None = None  # rho-cubic residue root for f = 1 unramified
    quad: tuple | None = None  # (M, W) cofactor for the inertia-2 prime


@dataclass(frozen=True, slots=True)
class SplittingType:
    tag: SplitTag
    primes: tuple
    index_divides: bool = False  # totally ramified: distinguishes p | I

    def __post_init__(self):
        if sum(p.e * p.f for p in self.primes) != 3:
            raise InvariantError("splitting must satisfy sum(e*f) = 3")

    def prime(self, key):
        for p in self.primes:
            if p.key == key:
                return p
        raise DomainError(f"no prime with key {key!r} above this place")


# The splittings that carry no residue root, one shared instance each, so
# that a caller keeping many splittings holds no copies of them; a random
# curve is inert at about a third of its places.
INERT = SplittingType(SplitTag.INERT, (PrimeAbove(1, 3, "inert"),))
TOTALLY_RAMIFIED = SplittingType(
    SplitTag.TOTALLY_RAMIFIED, (PrimeAbove(3, 1, "p"),))
TOTALLY_RAMIFIED_AT_INDEX = SplittingType(
    SplitTag.TOTALLY_RAMIFIED, (PrimeAbove(3, 1, "p"),), index_divides=True)
PARTIALLY_RAMIFIED = SplittingType(
    SplitTag.PARTIALLY_RAMIFIED, (PrimeAbove(1, 1, "p"), PrimeAbove(2, 1, "q")))


@functools.lru_cache(maxsize=65536)
def split_finite(P, od):
    """Splitting of the finite place P (monic irreducible).

    P is proven irreducible once: for P prime to A by the residue solve of
    `cubic_residue_factor`, which raises DomainError on a reducible
    modulus, and for P | A here, in the same words.  Classification is
    deterministic, so results are memoized; the hits come from ideal
    arithmetic, which classifies the primes of A again in every operation
    on an ideal above them.
    """
    if not P.is_monic():
        raise DomainError("finite places are monic irreducibles")
    a = od.A % P
    if not a.is_zero():  # P does not divide A, hence not Delta = A^3 / I^2
        return _unramified(*cubic_residue_factor(a, od.FI2 % P, P))
    if not is_irreducible(P):
        raise DomainError("residue field needs an irreducible modulus")
    # v_P(Delta) = 3 v_P(A) - 2 v_P(I) with v_P(I) <= 1: never 0 or 2
    v = valuation(od.delta, P)
    if v > 2:
        if valuation(od.I, P) == 1:
            return TOTALLY_RAMIFIED_AT_INDEX
        return TOTALLY_RAMIFIED
    if v == 1:
        return PARTIALLY_RAMIFIED
    raise InvariantError(f"P | A but v_P(delta) = {v}")


def _unramified(ddeg, roots, quad):
    """The splitting type read off a residue-cubic classification."""
    if ddeg == 0:
        return INERT
    if ddeg == 1:
        return SplittingType(
            SplitTag.PARTIALLY_SPLIT,
            (
                PrimeAbove(1, 1, "p1", root=roots[0]),
                PrimeAbove(1, 2, "q", quad=quad),
            ),
        )
    primes = tuple(
        PrimeAbove(1, 1, key, root=r) for key, r in zip(("p1", "p2", "p3"), roots)
    )
    return SplittingType(SplitTag.COMPLETELY_SPLIT, primes)


def split_infinite(c):
    """Splitting of the place at infinity of a standard model."""
    if c.criterion_wild() == c.criterion_tame():
        raise DomainError("curve is not in standard form")
    F = c.ctx
    if c.criterion_wild():
        return TOTALLY_RAMIFIED
    if c.A.deg % 2 == 1:
        return PARTIALLY_RAMIFIED
    # the constant cubic is a residue cubic over F_q[x]/(x) = F_q
    n = c.A.deg // 2
    a2n = Poly.const(F, c.A.lc())
    b3n = Poly.const(F, c.B.coeff(3 * n))
    return _unramified(*cubic_residue_factor(a2n, b3n, Poly.x(F)))


# --- the Newton lift in the completions ---


def _lift(lead, a, b, r, M):
    """The root of H(T) = lead*T^3 - a*T + b mod M congruent to r at every
    prime of M, for a prime to M.

    In characteristic 3 the derivative is the constant -a and
    H(T + h) = H(T) - a*h + lead*h^3, so the Newton step T -> T + H(T)/a
    cubes the error.  A start that is already a root costs no inverse.  At
    a prime where r is not a root H stays a unit, so the loop raises rather
    than return a wrong root.
    """
    r = r % M
    val = (lead * r * r * r - a * r + b) % M
    if val.is_zero():
        return r
    inv = invmod(a, M)
    for _ in range(64):
        r = (r + val * inv) % M
        val = (lead * r * r * r - a * r + b) % M
        if val.is_zero():
            return r
    raise InvariantError("root lift failed to converge")


def lift_rho_root(od, r, M):
    """The root of G(T) = T^3 - A*T + F*I^2 mod M congruent to r at every
    prime of M, for M prime to A or r already a root mod M."""
    return _lift(od.ctx.poly_one, od.A, od.FI2, r, M)


# --- per-curve memo of local data at ramified places ---


def _typeIV_roots(od, P, k):
    """(S, 1/(I/P), rho, omega) mod P^k at the split-ramified P, on the
    unramified branch p of (P) = p q^2.

    There v_P(A) = v_P(I) = 1 and rho = P*S, where S is the root of
    P*S^3 - (A/P)*S + F*(I/P)^2, whose derivative is the unit -A/P; and
    omega = (rho^2 - A)/I = (P*S^2 - A/P)/(I/P).  The memo holds all four
    at the highest precision asked so far; a simple root has one Hensel
    lift, so a reduction equals a fresh lift, and a higher precision lifts
    from the stored S."""
    got = od.ramified.get(P)
    if got is None or got[0] < k:
        Pk = P ** k
        a = exact_div(od.A, P)
        ip = exact_div(od.I, P)
        S = _lift(P, a, od.F * ip * ip,
                  got[1] if got else od.ctx.poly_zero, Pk)
        ivp = invmod(ip, Pk)
        got = od.ramified[P] = (
            k, S, ivp, (P * S) % Pk, ((P * S * S - a) * ivp) % Pk)
    if got[0] == k:
        return got[1:]
    Pk = P ** k
    return tuple(t % Pk for t in got[1:])


def _typeII_root(od, P):
    """The rho root -f mod the totally ramified P prime to the index, f the
    cube root of F*I^2 (A = 0 mod P); computed once per curve and place."""
    got = od.ramified.get(P)
    if got is None:
        got = od.ramified[P] = -cube_root_mod(od.FI2, P)
    return got


# --- local bases of primitive prime-power products ---


def _basis_unramified(od, P, r_t, e_low, r_q, e_high):
    """p^e_low q^e_high over an unramified P, 0 <= e_low <= e_high, where
    p, q, t are the primes above P and r_q, r_t the residue roots of q, t.

    The three lifted rho roots sum to 0, so p q = (P) t^-1 is named by r_t
    alone: its omega row v + w*rho + omega has w = r_t/I and v = I*w^2 mod
    P^e_low.  Above that shared part, rho - r_q generates q mod
    P^(e_high - e_low), and v = -w*r_q - omega(r_q) mod P^e_high.  A single
    inertia-1 prime is e_low = 0 (r_t unused).  The inertia-2 q^j of a
    partially split P, whose two conjugate roots lie outside the residue
    field, is e_low = e_high = j with t the inertia-1 prime (r_q unused).
    Over a totally ramified P prime to the index p = q = t, e_high = 1."""
    one, zero = od.ctx.poly_one, od.ctx.poly_zero
    Pl, Ph = P ** e_low, P ** e_high
    iv = invmod(od.I, Ph)
    w = (lift_rho_root(od, r_t, Pl) * iv) % Pl if e_low else zero
    if e_low == e_high:
        return make_ideal(one, Ph, Pl, one, zero, w, od.I * w * w)
    r = lift_rho_root(od, r_q, Ph)
    return make_ideal(one, Ph, Pl, one, -r, w, -(w * r) - (r * r - od.A) * iv)


def _basis_typeIII(od, P, i):
    """p^i, i = 1, 2, above a totally ramified P dividing the index."""
    one, zero = od.ctx.poly_one, od.ctx.poly_zero
    return make_ideal(one, P, one, P if i == 2 else one, zero, zero, zero)


def _basis_typeIV(od, P, i, j):
    """p^i q^j above a split-ramified P ((P) = p q^2), i = 0 or j <= 1."""
    one, zero = od.ctx.poly_one, od.ctx.poly_zero
    S, ivp, r, z = _typeIV_roots(od, P, max(i, (j + 1) // 2 + 1))
    if i and j == 0:
        Pi = P ** i
        u = (-r) % Pi
        return make_ideal(one, Pi, one, one, u, zero, (-z) % Pi)
    if i == 0:
        # q^j: s = P^ceil(j/2), sp = P^floor(j/2); the rho value at the
        # unramified branch is P*S, divisible by P exactly once.
        kc, kf = (j + 1) // 2, j // 2
        Pc, Pf = P ** kc, P ** kf
        w = (S * ivp) % Pf
        v = (P * S * S * ivp) % Pc
        return make_ideal(one, Pc, Pf, one, zero, w, v)
    # p^i q with i >= 1, j = 1
    Pi = P ** i
    u = (-r) % Pi
    return make_ideal(one, Pi, one, P, u, zero, (-z) % P ** (i - 1))


def prime_basis(P, st, which, od):
    """Triangular basis of one prime above P, selected by its key."""
    return prime_power_basis(P, od, {which: 1}, st)


def prime_power_basis(P, od, powers, st=None):
    """Basis of prod(selected prime^exponent) above a single P.

    `powers` maps prime keys (as in split_finite(P, od)) to nonnegative
    exponents.  The result carries any principal content as d.
    """
    if st is None:
        st = split_finite(P, od)
    exps = {p.key: 0 for p in st.primes}
    for key, e in dict(powers).items():
        if key not in exps:
            raise DomainError(f"unknown prime key {key!r}")
        if e < 0:
            raise DomainError("negative exponent")
        exps[key] = e
    return _basis_from_exponents(P, od, st, exps)


def _basis_from_exponents(P, od, st, exps):
    """prod p^exps[p] over the primes p above P: (P)^m = prod p^(m e_p) is
    the content, m = min floor(exps[p] / e_p), and the remaining exponents
    go to the builder of the splitting type."""
    m = min(exps[p.key] // p.e for p in st.primes)
    x = {p.key: exps[p.key] - m * p.e for p in st.primes}
    if not any(x.values()):
        J = unit_ideal(od.ctx)
    elif st.index_divides:  # class III
        J = _basis_typeIII(od, P, x["p"])
    elif st.tag is SplitTag.TOTALLY_RAMIFIED:  # class II: p^2 = (P) p^-1
        r = _typeII_root(od, P)
        J = _basis_unramified(od, P, r, x["p"] - 1, r, 1)
    elif st.tag is SplitTag.PARTIALLY_RAMIFIED:
        J = _basis_typeIV(od, P, x["p"], x["q"])
    elif st.tag is SplitTag.PARTIALLY_SPLIT:
        r, j = st.prime("p1").root, x["q"]
        J = (_basis_unramified(od, P, r, j, None, j) if j
             else _basis_unramified(od, P, None, 0, r, x["p1"]))
    else:  # completely split: t has the least exponent, q the greatest
        t, p, q = sorted(st.primes, key=lambda pr: x[pr.key])
        J = _basis_unramified(od, P, t.root, x[p.key], q.root, x[q.key])
    return replace(J, d=P ** m)


# --- local exponent reader: the inverse of the constructions above ---


def local_exponents(P, st, J):
    """Exponent of each prime above the ramified place P in the primitive
    ideal J, read off v_P of s, s' and s'' and v mod P, which the primes of
    J at other places leave as they are.

    Above (P) = p q^2 the primitive part is p^a (s = P^a), q^b
    (s = P^ceil(b/2), sp = P^floor(b/2)) or p^a q (s = P^a, spp = P).  The
    one tie, s = P, is q when v = 0 mod P and p when v is the unit
    (A/P)/(I/P) mod P."""
    vs, vsp, vspp = (valuation(t, P) for t in (J.s, J.sp, J.spp))
    if st.tag is SplitTag.TOTALLY_RAMIFIED:
        return {"p": vs + vsp + vspp}
    if st.tag is not SplitTag.PARTIALLY_RAMIFIED:
        raise DomainError("local exponents are read at ramified places only")
    if vspp:
        return {"p": vs, "q": 1}
    if vsp or (vs == 1 and (J.v % P).is_zero()):
        return {"p": 0, "q": vs + vsp}
    return {"p": vs, "q": 0}
