"""Independent brute-force ground truth for the fast ideal arithmetic.

Nothing here calls the per-class proposition code: the only shared machinery
is field/polynomial arithmetic, the basis-product identities of the order,
and `ideals.module_triangularize` (re-exported here), which reduces any
generating set of an ideal (as an F_q[x]-module in coordinates 1, rho,
omega) to the canonical triangular basis by Euclidean row reduction.
`oracle_ideal_mul` expands all nine basis cross products and
triangularizes; `oracle_min_norm` enumerates bounded coordinate
combinations; `oracle_split` counts residue roots of the defining cubic by
exhaustive evaluation over the residue field (vectorized with numpy so the
acceptance sweeps stay fast).

Enumeration budgets are hard caps raising DomainError, never silent
truncation.
"""

import numpy as np

from .errors import DomainError, InvariantError
from .ideals import make_ideal, module_triangularize
from .order import element_mul, element_norm, norm_weight
from .places import PrimeAbove, SplitTag, SplittingType
from .polyring import NEG_INF, Poly, valuation


def oracle_ideal_mul(I1, I2, od):
    """Product by expanding the nine basis cross products; returns the full
    canonical ideal including content."""
    rows = []
    for e in I1.primitive_part().basis():
        for f in I2.primitive_part().basis():
            rows.append(element_mul(e, f, od))
    out = module_triangularize(rows)
    carried = (I1.d * I2.d).monic()
    return make_ideal(
        carried * out.d, out.s, out.sp, out.spp, out.u, out.w, out.v
    )


def oracle_min_norm(J, degree_bound, od):
    """Minimum norm degree over nonzero combinations c1*r1 + c2*r2 + c3*r3
    of the basis rows with deg(c_i) <= degree_bound.

    Uses the norm-degree maximum rule, so it requires distinguished_ok (the
    rule is itself cross-checked against determinant norms on the winning
    combination)."""
    if not od.distinguished_ok:
        raise DomainError("oracle_min_norm needs the distinguished setting")
    F = od.ctx
    if 3 ** (3 * (degree_bound + 1) * F.m) > 10**7:
        raise DomainError("enumeration budget exceeded")
    r1, r2, r3 = J.basis()
    s = r1.a
    combos = list(_bounded_polys(F, degree_bound))
    best = None
    best_wit = None
    for c2 in combos:
        b2 = c2 * r2.b
        a2 = c2 * r2.a
        for c3 in combos:
            b = b2 + c3 * r3.b
            c = c3 * r3.c
            t = a2 + c3 * r3.a
            w23 = max(norm_weight(b, 1, od), norm_weight(c, 2, od))
            # best reachable first-coordinate weight over allowed c1
            if t.is_zero():
                if w23 == NEG_INF:
                    cand = 3 * s.deg  # c1 must be a nonzero constant
                    wit = (Poly.one(F), c2, c3)
                else:
                    cand = w23
                    wit = (Poly.zero(F), c2, c3)
            else:
                q, r = divmod(t, s)
                if q.deg <= degree_bound:
                    a_min = r.deg
                    c1w = -q
                else:
                    a_min = t.deg
                    c1w = Poly.zero(F)
                w1 = 3 * a_min if a_min != NEG_INF else NEG_INF
                cand = max(w1, w23)
                wit = (c1w, c2, c3)
            if best is None or cand < best:
                best = cand
                best_wit = wit
    c1, c2, c3 = best_wit
    elem = r1.scale(c1) + r2.scale(c2) + r3.scale(c3)
    got = element_norm(elem, od).deg
    if got != best:
        raise InvariantError("max rule disagrees with determinant norm")
    return best


def _bounded_polys(F, bound):
    total = F.q ** (bound + 1)
    for code in range(total):
        digits = []
        c = code
        for _ in range(bound + 1):
            digits.append(c % F.q)
            c //= F.q
        yield Poly(F, digits)


# --- residue enumeration for place splitting ---

_residue_cache = {}


class _ResidueEnum:
    """All residues mod P as trit matrices, with the cube permutation."""

    def __init__(self, P):
        F = P.ctx
        k = P.deg
        n = F.m * k
        q1 = F.q**k
        if q1 > 3**10:
            raise DomainError("residue enumeration budget exceeded")
        elems = []
        for code in range(q1):
            c = code
            coeffs = []
            for _ in range(k):
                coeffs.append(c % F.q)
                c //= F.q
            elems.append(Poly(F, coeffs))
        digits = np.zeros((q1, n), dtype=np.int8)
        index = {}
        for idx, e in enumerate(elems):
            digits[idx] = _flat_digits(e, F, k)
            index[e.c] = idx
        cube = np.zeros(q1, dtype=np.int64)
        for idx, e in enumerate(elems):
            cube[idx] = index[((e * e * e) % P).c]
        self.P = P
        self.k = k
        self.n = n
        self.q1 = q1
        self.elems = elems
        self.digits = digits
        self.index = index
        self.cube = cube

    def mul_matrix(self, a):
        """Matrix M with digits(t*a) = digits(t) @ M over GF(3)."""
        F = self.P.ctx
        out = np.zeros((self.n, self.n), dtype=np.int8)
        col = 0
        for j in range(self.k):
            for i in range(F.m):
                basis = Poly(
                    F, [0] * j + [F.encode([0] * i + [1] + [0] * (F.m - i - 1))]
                )
                out[col] = _flat_digits((a * basis) % self.P, F, self.k)
                col += 1
        return out

    def vec(self, a):
        return np.array(_flat_digits(a % self.P, self.P.ctx, self.k), dtype=np.int8)


def _flat_digits(e, F, k):
    flat = []
    for j in range(k):
        flat.extend(F.decode(e.coeff(j)))
    return flat


def _residue_enum(P):
    key = (P.ctx, P.c)
    if key not in _residue_cache:
        _residue_cache[key] = _ResidueEnum(P)
    return _residue_cache[key]


def oracle_split(P, od):
    """Splitting of P read off by exhaustive residue enumeration of the
    defining cubic T^3 - (A mod P) T + (B mod P), combined with the
    discriminant valuation for the ramified cases.  Roots are shifted by -i
    so they are directly comparable with the rho-cubic roots."""
    v = valuation(od.delta, P)
    if v > 2:
        return SplittingType(
            SplitTag.TOTALLY_RAMIFIED,
            (PrimeAbove(3, 1, "p"),),
            index_divides=valuation(od.I, P) == 1,
        )
    if v == 1:
        return SplittingType(
            SplitTag.PARTIALLY_RAMIFIED,
            (PrimeAbove(1, 1, "p"), PrimeAbove(2, 1, "q")),
        )
    R = _residue_enum(P)
    a = od.A % P
    b = od.B % P
    amat = R.mul_matrix(a)
    at = R.digits @ amat % 3
    val = (R.digits[R.cube] - at + R.vec(b)) % 3
    root_idx = np.where(~val.any(axis=1))[0]
    roots = sorted(
        (((R.elems[int(k)] - od.i) % P) for k in root_idx), key=lambda r: r.c
    )
    if len(roots) == 0:
        return SplittingType(SplitTag.INERT, (PrimeAbove(1, 3, "inert"),))
    if len(roots) == 1:
        rt = roots[0]
        quad = ((-rt) % P, (rt * rt - od.A) % P)
        return SplittingType(
            SplitTag.PARTIALLY_SPLIT,
            (PrimeAbove(1, 1, "p1", root=rt), PrimeAbove(1, 2, "q", quad=quad)),
        )
    if len(roots) != 3:
        raise InvariantError("unramified cubic with two residue roots")
    primes = tuple(
        PrimeAbove(1, 1, f"p{k + 1}", root=r) for k, r in enumerate(roots)
    )
    return SplittingType(SplitTag.COMPLETELY_SPLIT, primes)
