"""Univariate polynomials over GF(3^m), plus the number theory the rest of
the package runs on: xgcd, CRT, factorization, cube roots mod P, and the
roots of T^3 - a T + b mod P and in F_q[x].  This is the package's one F_q[x]
implementation: `ff` checks its moduli with `is_irreducible` here, so this
module imports nothing from `ff`.

Every polynomial, whatever its degree, factors along one path: squarefree,
then distinct-degree, then equal-degree.  Roots in the coefficient field
are the roots of the linear factors.

Factoring raises to powers by cubing, not by square-and-multiply: h -> h^3
is additive in characteristic 3, so h^3 mod f is the sum of cube(c_i) times
the rows x^(3i) mod f, built once per modulus, and x^q mod f is m such
cubings.  Distinct-degree factoring walks x^(q^d) mod f that way, and
equal-degree splitting takes the absolute trace T = sum_{k < md} h^(3^k)
mod f of a random h, which lies in F_3 on every factor of degree d, so a
gcd with T - c splits f with no large exponent (von zur Gathen-Shoup,
Comput. Complexity 2, 1992).  The tests compare the cubing path against
square-and-multiply, which lives with them.

Roots of T^3 - a T + b in a residue field F_q[x]/(P) (and cube roots mod P,
the case a = 0), and its roots of degree <= k in F_q[x], come from one
linear solve over GF(3), `_affine_roots`, for the roots of degree < k
modulo any M: T^3 - a T is F_3-linear in characteristic 3, so the roots
are an affine subspace of the polynomials of degree < k viewed as
GF(3)^(m k), found by one Gaussian elimination (`_gf3_solve`) on packed
trit vectors, whose columns are built from field codes, one multiply-add
per coefficient and no polynomial operation per column.  A residue field
is M = P with k = deg P; roots in F_q[x] are M = x^N with N past the degree
of every value, so that nothing is reduced.  One path serves every field
size.

Representation: `.c` holds the codes densely, constant term first, no
trailing zeros: over GF(3) as bytes, one code per byte, else as a tuple;
both index to ints and compare, hash and sort alike.  The zero polynomial
has no codes; its degree is the float -inf sentinel, which compares below
every integer, so max() and degree comparisons need no special cases.

Over GF(3) the bytes are the packing: the ring operations read them as one
Python int (`int.from_bytes`) and return `to_bytes` of the result, one
`translate` through a 256-byte mod-3 table and `rstrip` of zero bytes.  A
product is one integer multiplication (Kronecker substitution, Harvey, J.
Symbolic Comput. 44, 2009): each product byte is at most 4 min(len a,
len b), exact while the shorter factor has at most 63 coefficients.  Long
division subtracts f * b from the packed dividend by adding 2b or b shifted
into place (Ahmadi-Hankerson-Menezes, WAIFI 2007): a byte starts at most 2
and gains at most 4 per quotient coefficient, so 2 + 4 * 63 = 254 holds
while the quotient has at most 63 coefficients.  Past either bound the
operands are cut into pieces within it.  For m >= 2 sums of elements are
not sums of byte slots, so the schoolbook loops run.  While the field has
exp/log tables (m <= `ff.LOG_EXP`) they run on them inline: a product of
codes is exp[log a + log b], the logs of one operand taken once per call,
and a sum is one lookup in the 5-trit table `_ADD5` built here (two for
m > 5).  Only larger fields call their own add and mul.  Every path sits
in the same methods behind tests of m and of the tables, so no field pays
an extra call per operation.

Trivial operands stop at the top of each ring operation, before any
kernel and alike for every field: a zero summand returns the other
operand, a zero factor itself, a constant factor is one scaling, a
constant divisor b0 gives (f / b0, 0), f itself for b0 = 1, and a dividend
shorter than its divisor is its own remainder (quotient 0; % and // build
no divmod pair).  Such a result is an operand or the field's shared zero
or one.  So callers pass any nonzero modulus, constants included, to %,
//, divmod, exact_div, invmod and crt2_general, and the quotients that
are 1 on class I ideals, such as s/s', need no guard of their own.

gcds are always returned monic; equal-degree splitting is randomized but
takes an explicit seed, so every caller is reproducible.
"""

import functools
import random

from .errors import DomainError, InvariantError

NEG_INF = float("-inf")

# --- the GF(3) kernel: the stored bytes read as one Python int ---

# The byte slots limit: a product byte sums at most 63 terms of at most 4,
# and a dividend byte gains at most 4 per quotient coefficient on top of its
# own code, so with at most 63 of either every byte stays below 256.
_SLOTS = 63
_MOD3 = bytes(v % 3 for v in range(256))
_NEG3 = bytes(-v % 3 for v in range(256))


def _trimmed(ctx, c):
    """The Poly of codes (bytes over GF(3)) that have no trailing zeros."""
    p = object.__new__(Poly)
    p.ctx = ctx
    p.c = c
    return p


# --- the table kernel: _ADD5[a][b] is the trit-wise sum mod 3 of the 5-trit
# codes a and b, built one trit at a time, the k-trit table from the
# (k-1)-trit one; `ff` imports it and _NEG5 ---

_ADD5 = [[0]]
for _ in range(5):
    _ADD5 = [[(a + b) % 3 + 3 * t for t in _ADD5[a // 3] for b in range(3)]
             for a in range(3 * len(_ADD5))]
_NEG5 = [row[c] for c, row in enumerate(_ADD5)]  # -c = c + c in characteristic 3


def _sum(F, a, b, t):
    """The Poly a + t(b) of code tuples over a field with log tables, with t
    the identity row _ADD5[0] for a + b and _NEG5 for a - b: trit-wise
    through _ADD5, one lookup per 5-trit chunk of the codes."""
    out = list(a) + [0] * (len(b) - len(a))
    if F.m <= 5:
        for i, y in enumerate(b):
            out[i] = _ADD5[out[i]][t[y]]
    else:
        for i, y in enumerate(b):
            s = out[i]
            out[i] = (_ADD5[s % 243][t[y % 243]]
                      + 243 * _ADD5[s // 243][t[y // 243]])
    while out and not out[-1]:
        out.pop()
    return _trimmed(F, tuple(out)) if out else F.poly_zero


class Poly:
    __slots__ = ("ctx", "c")

    def __init__(self, ctx, codes):
        cs = list(codes)
        while cs and cs[-1] == 0:
            cs.pop()
        self.ctx = ctx
        self.c = bytes(cs) if ctx.m == 1 else tuple(cs)

    # --- constructors ---

    @staticmethod
    def zero(ctx):
        return ctx.poly_zero

    @staticmethod
    def one(ctx):
        return ctx.poly_one

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (0, 1))

    @classmethod
    def const(cls, ctx, code):
        return cls(ctx, (code,))

    @classmethod
    def from_ints(cls, ctx, ints):
        """Prime-field coefficients given as plain integers (signed ok)."""
        return cls(ctx, ((n % 3) for n in ints))

    @classmethod
    def monomial(cls, ctx, deg, code=1):
        return cls(ctx, (0,) * deg + (code,))

    # --- basic queries ---

    @property
    def deg(self):
        return len(self.c) - 1 if self.c else NEG_INF

    def is_zero(self):
        return not self.c

    def is_one(self):
        return len(self.c) == 1 and self.c[0] == 1

    def is_const(self):
        return len(self.c) <= 1

    def lc(self):
        """Leading coefficient code (0 for the zero polynomial)."""
        return self.c[-1] if self.c else 0

    def coeff(self, k):
        return self.c[k] if 0 <= k < len(self.c) else 0

    def is_monic(self):
        return bool(self.c) and self.c[-1] == 1

    # --- ring operations ---

    def __add__(self, other):
        F = self.ctx
        a, b = self.c, other.c
        if not a or not b:  # a zero summand: the other one
            return self if a else other
        if F.m == 1:
            n = int.from_bytes(a, "little") + int.from_bytes(b, "little")
            n = n.to_bytes(max(len(a), len(b)), "little")
            return _trimmed(F, n.translate(_MOD3).rstrip(b"\0"))
        if len(a) < len(b):
            a, b = b, a
        if F.tables:
            return _sum(F, a, b, _ADD5[0])
        out = list(a)
        add = F.add
        for i, cb in enumerate(b):
            out[i] = add(out[i], cb)
        return Poly(F, out)

    def __neg__(self):
        F = self.ctx
        if not self.c:
            return self
        if F.m == 1:
            return _trimmed(F, self.c.translate(_NEG3))
        if F.tables:
            return _sum(F, (), self.c, _NEG5)
        neg = F.neg
        return Poly(F, tuple(neg(c) for c in self.c))

    def __sub__(self, other):
        F = self.ctx
        if not self.c or not other.c:  # a zero operand
            return self if self.c else -other
        if F.m == 1:
            a, b = self.c, other.c
            n = int.from_bytes(a, "little") + 2 * int.from_bytes(b, "little")
            n = n.to_bytes(max(len(a), len(b)), "little")
            return _trimmed(F, n.translate(_MOD3).rstrip(b"\0"))
        if F.tables:
            return _sum(F, self.c, other.c, _NEG5)
        return self + (-other)

    def __mul__(self, other):
        F = self.ctx
        a, b = self.c, other.c
        if len(a) <= 1 or len(b) <= 1:  # zero absorbs; a constant scales
            if not a or not b:
                return self if not a else other
            return other.scale(a[0]) if len(a) == 1 else self.scale(b[0])
        if F.m == 1:
            if len(a) > _SLOTS < len(b):  # a in pieces of _SLOTS codes
                return (Poly(F, a[:_SLOTS]) * other
                        + (_trimmed(F, a[_SLOTS:]) * other).shift(_SLOTS))
            # Kronecker substitution: each byte of the integer product is at
            # most 4 min(len a, len b) <= 252, so no byte carries, and the top
            # byte is lead(a) lead(b), nonzero mod 3
            n = int.from_bytes(a, "little") * int.from_bytes(b, "little")
            n = n.to_bytes(len(a) + len(b) - 1, "little")
            return _trimmed(F, n.translate(_MOD3))
        if F.tables:
            exp, log = F.tables
            # (j, log b_j) for b_j != 0; map takes the logs, so that no
            # comprehension closes over a local, which costs every call a cell
            lb = [(j, ly) for j, (y, ly)
                  in enumerate(zip(b, map(log.__getitem__, b))) if y]
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if not x:
                    continue
                lx = log[x]
                if F.m <= 5:
                    for j, ly in lb:
                        out[i + j] = _ADD5[out[i + j]][exp[lx + ly]]
                    continue
                for j, ly in lb:
                    s, y = out[i + j], exp[lx + ly]
                    out[i + j] = (_ADD5[s % 243][y % 243]
                                  + 243 * _ADD5[s // 243][y // 243] if s else y)
            return _trimmed(F, tuple(out))  # lead(a) lead(b) != 0
        out = [0] * (len(a) + len(b) - 1)
        add, mul = F.add, F.mul
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = add(out[i + j], mul(ca, cb))
        return Poly(F, out)

    def scale(self, code):
        F = self.ctx
        if code == 1 or not self.c:
            return self
        if not code:
            return F.poly_zero
        if F.m == 1:  # code 2 is -1
            return _trimmed(F, self.c.translate(_NEG3))
        if F.tables:
            exp, log = F.tables
            lc = log[code]
            c = tuple([exp[log[x] + lc] if x else 0 for x in self.c])
            return F.poly_one if c == (1,) else _trimmed(F, c)
        mul = F.mul
        return Poly(F, tuple(mul(c, code) for c in self.c))

    def shift(self, k):
        """Multiply by x^k."""
        if not self.c:
            return self
        return Poly(self.ctx, (0,) * k + tuple(self.c))

    def __divmod__(self, other):
        F = self.ctx
        a, b = self.c, other.c
        if not b:
            raise DomainError("division by the zero polynomial")
        if len(b) == 1:  # a unit divisor is one scaling, 1 none at all
            return (self if b[0] == 1 else self.scale(F.inv(b[0])),
                    F.poly_zero)
        db = len(b) - 1
        nq = len(a) - db
        if nq <= 0:
            return F.poly_zero, self
        if F.m == 1:
            if nq > _SLOTS:  # the top _SLOTS quotient codes, then the rest
                k = nq - _SLOTS
                q, r = divmod(_trimmed(F, a[k:]), other)
                q2, r = divmod(r.shift(k) + Poly(F, a[:k]), other)
                return q.shift(k) + q2, r
            # shifted subtraction on the packed dividend: adding 2B (f = 1)
            # or B (f = 2) subtracts f * B mod 3; each of the nq steps adds
            # at most 4 to a byte, so bytes stay <= 2 + 4 * 63 and never
            # carry; lead(b) is its own inverse mod 3
            A = int.from_bytes(a, "little")
            B = int.from_bytes(b, "little")
            lead = b[-1]
            q = bytearray(nq)
            for i in range(nq - 1, -1, -1):
                f = ((A >> 8 * (i + db)) & 255) * lead % 3
                if f:
                    q[i] = f
                    A += (2 * B if f == 1 else B) << 8 * i
            r = A.to_bytes(len(a), "little")[:db]  # no byte reached 256
            return (_trimmed(F, bytes(q)),
                    _trimmed(F, r.translate(_MOD3).rstrip(b"\0")))
        a = list(a)
        if F.tables:
            exp, log = F.tables
            n = len(log) - 1
            il = n - log[b[-1]]  # log(1 / lead b)
            lb = [(j, ly) for j, (y, ly)
                  in enumerate(zip(b[:db], map(log.__getitem__, b))) if y]
            q = [0] * nq
            for i in range(nq - 1, -1, -1):
                x = a[i + db]
                if not x:
                    continue
                lx = log[x] + il
                q[i] = exp[lx]
                lx = (lx + n // 2) % n  # log(-q_i), as -1 = exp[n / 2]
                if F.m <= 5:
                    for j, ly in lb:
                        a[i + j] = _ADD5[a[i + j]][exp[lx + ly]]
                    continue
                for j, ly in lb:
                    s, y = a[i + j], exp[lx + ly]
                    a[i + j] = (_ADD5[s % 243][y % 243]
                                + 243 * _ADD5[s // 243][y // 243])
            return _trimmed(F, tuple(q)), _sum(F, a[:db], (), None)  # trims
        inv_lead = F.inv(b[-1])
        q = [0] * nq
        add, mul, neg = F.add, F.mul, F.neg
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c:
                f = mul(c, inv_lead)
                q[i - db] = f
                nf = neg(f)
                for j in range(db + 1):
                    a[i - db + j] = add(a[i - db + j], mul(nf, b[j]))
        return Poly(F, q), Poly(F, a)

    def __floordiv__(self, other):
        if len(self.c) < len(other.c):  # a shorter dividend: quotient 0
            return self.ctx.poly_zero
        return divmod(self, other)[0]

    def __mod__(self, other):
        n = len(other.c)
        if n == 1:  # a unit divisor leaves no remainder
            return self.ctx.poly_zero
        if len(self.c) < n:  # a shorter dividend is its own remainder
            return self
        return divmod(self, other)[1]

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative polynomial power")
        acc = Poly.one(self.ctx)
        base = self
        while True:
            if e & 1:
                acc = acc * base
            e >>= 1
            if not e:  # no square after the last bit
                return acc
            base = base * base

    def monic(self):
        if not self.c:
            return self
        if self.c[-1] == 1:
            return self
        return self.scale(self.ctx.inv(self.c[-1]))

    def derivative(self):
        """Formal derivative; k*c_k with k reduced mod 3."""
        F = self.ctx
        out = []
        for k in range(1, len(self.c)):
            r = k % 3
            if r == 0:
                out.append(0)
            elif r == 1:
                out.append(self.c[k])
            else:
                out.append(F.neg(self.c[k]))
        return Poly(F, out)

    def eval(self, code):
        """Evaluate at a field element code (Horner)."""
        F = self.ctx
        acc = 0
        add, mul = F.add, F.mul
        for c in reversed(self.c):
            acc = add(mul(acc, code), c)
        return acc

    def cube_root(self):
        """For f with f' = 0 (so f = g(x^3)): the g with g^3 = f."""
        F = self.ctx
        out = []
        for k, c in enumerate(self.c):
            if k % 3 == 0:
                out.append(F.cube_root(c))
            elif c != 0:
                raise InvariantError("cube_root of a polynomial that is not a cube")
        return Poly(F, out)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.c == other.c
                and (self.ctx is other.ctx or self.ctx == other.ctx))

    def __hash__(self):
        return hash((self.ctx, self.c))

    def __repr__(self):
        return f"Poly[{poly_str(self)}]"


def poly_str(f):
    """Human form like 'x^4 + (0,1)' with digits ascending in alpha."""
    if f.is_zero():
        return "0"
    parts = []
    for k in range(len(f.c) - 1, -1, -1):
        c = f.c[k]
        if c == 0:
            continue
        if f.ctx.m == 1:
            cs = str(c)
        else:
            cs = "(" + ",".join(str(d) for d in f.ctx.decode(c)) + ")"
        if k == 0:
            parts.append(cs)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            parts.append(xs if cs == "1" else f"{cs}*{xs}")
    return " + ".join(parts)


# --- gcd machinery ---


def xgcd(f, g):
    """(d, s, t) with d = gcd(f, g) monic and s*f + t*g = d."""
    if f.is_zero() and g.is_zero():
        raise DomainError("xgcd of two zero polynomials")
    F = f.ctx
    r0, r1 = f, g
    s0, s1 = Poly.one(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.lc()
    if lead != 1:
        il = F.inv(lead)
        r0, s0, t0 = r0.scale(il), s0.scale(il), t0.scale(il)
    return r0, s0, t0


def gcd(f, g):
    """The monic gcd; one of f, g may be zero, not both."""
    while not g.is_zero():
        f, g = g, f % g
    if f.is_zero():
        raise DomainError("gcd of two zero polynomials")
    return f.monic()


def gcd_many(polys):
    acc = None
    for p in polys:
        acc = p if acc is None else gcd(acc, p)
        if acc.is_one():
            return acc
    if acc is None or acc.is_zero():
        raise DomainError("gcd of an empty or all-zero family")
    return acc.monic()


def invmod(f, m):
    """Inverse of f modulo m; raises InvariantError if gcd(f, m) != 1."""
    d, s, _ = xgcd(f % m, m)
    if not d.is_one():
        raise InvariantError(f"non-invertible element mod {poly_str(m)}")
    return s % m


def exact_div(f, g):
    """f / g asserting zero remainder."""
    if g.is_one():
        return f
    q, r = divmod(f, g)
    if not r.is_zero():
        raise InvariantError("exact division has a remainder")
    return q


def valuation(f, P):
    """v_P(f) for f != 0 and P of positive degree."""
    if f.is_zero():
        raise DomainError("valuation of the zero polynomial")
    v = 0
    while True:
        q, r = divmod(f, P)
        if not r.is_zero():
            return v
        v += 1
        f = q


def crt2_general(r1, m1, r2, m2):
    """CRT with possibly non-coprime moduli; raises if inconsistent."""
    d, s, _ = xgcd(m1, m2)
    diff = r2 - r1
    q, rem = divmod(diff, d)
    if not rem.is_zero():
        raise InvariantError("inconsistent congruences in general CRT")
    lcm = m1 * exact_div(m2, d)
    x = (r1 + m1 * (s * q % exact_div(m2, d))) % lcm
    return x, lcm


# --- factorization ---


def squarefree_decomposition(f):
    """Monic squarefree decomposition in characteristic 3.

    Returns [(g_i, e_i)] with f = lc * prod g_i^e_i, the g_i squarefree,
    pairwise coprime, non-constant.  Handles f' = 0 by the x -> x^(1/3)
    cube-root substitution.
    """
    if f.deg < 1:
        return []
    f = f.monic()
    out = []

    def rec(g, mult):
        if g.deg < 1:
            return
        gp = g.derivative()
        if gp.is_zero():
            rec(g.cube_root(), 3 * mult)
            return
        c = gcd(g, gp)
        if c.is_one():  # g is squarefree: the loop below would return g
            out.append((g, mult))
            return
        w = exact_div(g, c)  # product of factors with mult not divisible by 3
        i = 1
        while not w.is_one():
            y = gcd(w, c)
            z = exact_div(w, y)
            if z.deg >= 1:
                out.append((z, i * mult))
            w = y
            c = exact_div(c, y)
            i += 1
        if c.deg >= 1:
            rec(c.cube_root(), 3 * mult)

    rec(f, 1)
    out.sort(key=lambda ge: (ge[1], ge[0].deg, ge[0].c))
    return out


def _cubing_rows(f):
    """The rows x^(3i) mod f for i < deg f of the F_3-linear map h -> h^3 mod f,
    each from the last by a shift of 3 and one short reduction."""
    rows = [Poly.one(f.ctx)]
    for _ in range(1, f.deg):
        rows.append(rows[-1].shift(3) % f)
    return rows


def _cube_mod(h, rows):
    """h^3 mod f for h reduced mod f: in characteristic 3 cubing is additive,
    so h^3 = sum of cube(c_i) * x^(3i), one pass over the rows of f."""
    F = h.ctx
    add, mul, pow_ = F.add, F.mul, F.pow
    out = [0] * len(rows)
    for c, row in zip(h.c, rows):
        if c:
            c3 = pow_(c, 3)
            for j, r in enumerate(row.c):
                if r:
                    out[j] = add(out[j], mul(c3, r))
    return Poly(F, out)


def _frobenius(h, rows):
    """h^q mod f by m cubings."""
    for _ in range(h.ctx.m):
        h = _cube_mod(h, rows)
    return h


def _distinct_degree(f):
    """f monic squarefree -> [(product of irreducible factors of degree d, d)].

    h runs through x^(q^d) mod f; since rest divides f, gcd(h - x, rest)
    taken mod rest collects the factors of degree d that remain.
    """
    F = f.ctx
    rows = _cubing_rows(f)
    out = []
    x = Poly.x(F)
    h = x % f
    d = 0
    rest = f
    while rest.deg >= 1:
        d += 1
        if 2 * d > rest.deg:
            out.append((rest, rest.deg))
            break
        h = _frobenius(h, rows)
        g = gcd((h - x) % rest, rest)
        if g.deg >= 1:
            out.append((g, d))
            rest = exact_div(rest, g)
    return out


def _equal_degree_split(f, d, rng):
    """Split monic squarefree f, all of whose factors have degree d, by the
    absolute trace T = sum_{k < md} h^(3^k) mod f of random h: T is in F_3
    on every factor, so one of gcd(T - c, f), c in F_3, is proper unless T
    takes the same value on all of them (von zur Gathen-Shoup, Comput.
    Complexity 2, 1992).  A draw fails with probability at most 1/3, so
    after 64 failed draws f is taken not to be of that shape and
    InvariantError is raised."""
    F = f.ctx
    n = f.deg
    if n == d:
        return [f]
    rows = _cubing_rows(f)
    for _ in range(64):
        h = Poly(F, [rng.randrange(F.q) for _ in range(n)])
        if h.deg < 1:
            continue
        t = p = h
        for _ in range(F.m * d - 1):
            p = _cube_mod(p, rows)
            t = t + p
        for c in range(3):
            g = gcd(t - Poly.const(F, c), f)
            if 1 <= g.deg < n:
                left = _equal_degree_split(g, d, rng)
                right = _equal_degree_split(exact_div(f, g), d, rng)
                return left + right
    raise InvariantError(
        f"{poly_str(f)} is not a product of distinct degree-{d} factors")


def factor(f, seed=0):
    """Monic irreducible factors with multiplicities, canonically sorted.

    lc(f) * prod(p_i^e_i) reassembles f exactly.
    """
    if f.is_zero() or f.deg < 1:
        raise DomainError("factor needs a non-constant polynomial")
    rng = None  # seeded on first use: seeding costs as much as a small gcd
    out = []
    for g, e in squarefree_decomposition(f):
        for h, d in _distinct_degree(g):
            if h.deg == d:
                out.append((h, e))
            else:
                rng = rng or random.Random(seed)
                out.extend((p, e) for p in _equal_degree_split(h, d, rng))
    out.sort(key=lambda pe: (pe[0].deg, pe[0].c, pe[1]))
    return out


@functools.lru_cache(maxsize=65536)
def is_irreducible(P):
    if P.deg < 1:
        return False
    if P.deg == 1:
        return True
    fs = factor(P)
    return len(fs) == 1 and fs[0][1] == 1


# --- roots of T^3 - a T + b over K = F_q[x]/(P) and in F_q[x] ---
#
# In characteristic 3, L(T) = T^3 - a T is F_3-linear on K, so the roots of
# T^3 - a T + b are the solutions of the GF(3) linear system L(r) = -b: empty
# or a coset of ker L, and ker L = {T : T^3 = a T} is {0} or {0, s, -s} with
# s^2 = a.  Elements of K are coordinate vectors over the F_3-basis
# alpha^i x^j (slot j*m + i), packed into integers with one 3-bit slot per
# trit so that vector addition is carry-free integer arithmetic.  A field
# code enters its m slots through one field-independent table that spreads
# each 5-trit chunk of the code over 15 bits, and leaves through its inverse
# (the chunking of Harrison-Page-Smart that `ff` uses for add and neg).

_SPREAD5 = tuple(sum(c // 3**t % 3 << 3 * t for t in range(5))
                 for c in range(243))
_GATHER5 = {v: c for c, v in enumerate(_SPREAD5)}


def _pack(codes, m):
    """The trit vector of a residue given by its coefficient codes."""
    v = 0
    for c in reversed(codes):
        v <<= 3 * m
        shift = 0
        while c:
            v |= _SPREAD5[c % 243] << shift
            c //= 243
            shift += 15
    return v


def _unpack(F, v, k):
    """The residue of k coefficients whose trits fill the slots of v."""
    width = 3 * F.m
    mask = (1 << width) - 1
    coeffs = []
    for _ in range(k):
        s, c, unit = v & mask, 0, 1
        while s:
            c += _GATHER5[s & 0x7FFF] * unit
            s >>= 15
            unit *= 243
        coeffs.append(c)
        v >>= width
    return Poly(F, coeffs)


def _gf3_solve(columns, b, n, dim):
    """Gaussian elimination over GF(3) for L(r) = -b, L F_3-linear.

    `columns` streams the packed (L(e) | e) of `dim` basis vectors e, the
    image in the n low slots.  A column whose image reduces to zero is a
    kernel vector, and reducing (b | 0) by the pivots leaves (0 | r).
    Returns (r, s) as packed preimages: r is None when b is not in the
    image, s is the last kernel vector found, or None.
    """
    width = 3 * n  # image slots below, preimage slots above
    low = (1 << width) - 1
    ones = int("001" * (n + dim), 2)
    highs, threes = ones << 2, 3 * ones
    pivots = {}  # top image slot -> reduced column with digit 1 there
    kernel = None

    def norm(v):  # slot values 3..5 -> 0..2
        return v - (((v + ones) & highs) >> 2) * 3

    def reduce(v):
        """(v minus pivot multiples, its top image slot or None if zero)."""
        while True:
            image = v & low
            if not image:
                return v, None
            top = (image.bit_length() - 1) // 3
            w = pivots.get(top)
            if w is None:
                return v, top
            d = (image >> 3 * top) & 7
            v = norm(v + threes - w) if d == 1 else norm(v + w)

    for v in columns:
        v, top = reduce(v)
        if top is None:
            kernel = v >> width
        else:
            if (v >> 3 * top) & 7 == 2:
                v = norm(threes - v)
            pivots[top] = v
    t, top = reduce(b)
    return (None if top is not None else t >> width), kernel


def _affine_roots(a, b, M, k):
    """The roots r of T^3 - a T + b mod M with deg r < k, as r0 + ker L.

    Returns (r0, s) as reduced residues: r0 is None when there is no root,
    s is None when ker L = 0 and spans ker L otherwise.  The column of
    e = alpha^i x^j is cube(alpha^i) (x^(3j) mod M) - alpha^i (a x^j mod M),
    computed code by code from the two residues, which are built once per j,
    and streamed into one `_gf3_solve`.
    """
    F = M.ctx
    m, n = F.m, M.deg
    add, mul, neg = F.add, F.mul, F.neg
    scalars = [(3**i, F.pow(3**i, 3)) for i in range(m)]  # alpha^i, its cube
    lead = F.inv(M.c[-1])
    red = [mul(neg(c), lead) for c in M.c[:-1]]  # x^n = sum red[t] x^t

    def times_x(r):  # r x mod M, on n codes
        top = r[-1]
        r = [0] + r[:-1]
        return [add(c, mul(top, e)) for c, e in zip(r, red)] if top else r

    def columns():
        e = 1 << 3 * m * n  # the preimage slot of alpha^i x^j
        frob = [1] + [0] * (n - 1)  # x^(3j) mod M
        nax = [neg(c) for c in (a % M).c]  # -a x^j mod M
        nax += [0] * (n - len(nax))
        for j in range(k):
            if j:
                frob = times_x(times_x(times_x(frob)))
                nax = times_x(nax)
            for ai, ci in scalars:
                col = [add(mul(ci, f), mul(ai, g)) for f, g in zip(frob, nax)]
                yield _pack(col, m) | e
                e <<= 3

    r, s = _gf3_solve(columns(), _pack((b % M).c, m), m * n, m * k)
    return (None if r is None else _unpack(F, r, k),
            None if s is None else _unpack(F, s, k))


def cubic_poly_root(a, b, k):
    """A root r in F_q[x] of T^3 - a T + b with deg r <= k, or None.

    The solve modulo x^N, N = max(3k, deg a + k, deg b) + 1: L(T) = T^3 - a T
    maps degree <= k below degree N, where nothing is reduced, so a root mod
    x^N of degree <= k is a root.
    """
    N = max(3 * k, a.deg + k, b.deg) + 1
    return _affine_roots(a, b, Poly.monomial(a.ctx, N), k + 1)[0]


def cube_root_mod(c, P):
    """The unique f with f^3 = c (mod P), P irreducible: the a = 0 case of
    the residue-cubic solve, since T^3 is bijective on a finite field of
    characteristic 3."""
    return cubic_residue_factor(Poly.zero(c.ctx), -c, P)[1][0]


def cubic_residue_factor(a, b, P):
    """Classify T^3 - a T + b over the residue field F_q[x]/(P).

    Returns (gcd_degree, roots, quad) where gcd_degree is the degree of
    gcd(T^size - T, cubic) in {0, 1, 3}, roots are the residue-field roots
    sorted canonically, and quad = (M, W) gives the irreducible quadratic
    cofactor T^2 - M T + W when exactly one root exists (otherwise None).
    """
    if not is_irreducible(P):
        raise DomainError("residue field needs an irreducible modulus")
    r, s = _affine_roots(a, b, P, P.deg)
    if r is None:
        return 0, [], None
    if s is None:
        # cubic = (T - r)(T^2 + r T + (r^2 - a))
        return 1, [r], (-r, (r * r - a) % P)
    return 3, sorted((r, r + s, r - s), key=lambda p: p.c), None
