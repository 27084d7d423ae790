"""Arithmetic in GF(3^m).

Elements are vectors of m trits (coefficients of powers of the generator
alpha), packed little-endian into a single integer code in base 3: the code
sum(d_k * 3^k) stands for sum(d_k * alpha^k).  All digits live in {0, 1, 2};
signed notation (-1) is normalised to 2 on input.  The zero element is code 0
and the one element is code 1, independent of m.

A context (`Fq`) owns the modulus, as a polynomial over GF(3).  Add and neg
go trit-wise through one field-independent table of 5-trit sums, one lookup
per 5-trit chunk of the code (Harrison-Page-Smart, "Software implementation
of finite fields of characteristic three", LMS J. Comput. Math. 5, 2002).
A product is a residue of GF(3)[alpha]: the digit vectors of the operands
are multiplied and reduced by the modulus in `polyring`'s GF(3) byte
kernel, the one F_q[x] implementation (which imports nothing from here);
the same kernel checks the modulus by factoring it.  That is the digit path,
the only path for m > LOG_EXP.  For m <= LOG_EXP the context also owns
exp/log lists over a primitive element g, built once at construction by
the digit path, so that mul, inv, pow, cube roots and the square test are
index arithmetic on logarithms.  The 5-trit table, `_ADD5`, is built once
in `polyring`, whose `Poly` kernel reads it and the field's `tables` =
(exp, log) inline; `tables` is None for m > LOG_EXP.  The tests keep a
schoolbook GF(3)[alpha] product and a digit-wise sum as the reference for
both paths.  Contexts are immutable after construction and safe to share
across threads.
"""

from itertools import product

from .errors import DomainError
from .polyring import _ADD5, _NEG5, Poly, invmod, is_irreducible

# exp/log tables are built for m <= LOG_EXP.  Their size and build time grow
# as 3^m and every process that constructs the field pays them: for m = 10
# they hold 3.2 MiB (tracemalloc) and build in about 20 ms on a 2-vCPU VM.
# The table build works on two 5-trit chunks of a code.
LOG_EXP = 10

# The 243 five-trit digit tuples, little-endian: _TRITS5[c][k] = (c // 3^k) % 3.
_TRITS5 = tuple(t[::-1] for t in product(range(3), repeat=5))


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Fq:
    """The field GF(3^m) = GF(3)[alpha]/(modulus).

    `modulus` is a list of m+1 digits, constant term first, leading digit 1.
    Irreducibility is verified at construction by `polyring.is_irreducible`
    over GF3 (a monic linear modulus always passes); a reducible modulus is
    rejected rather than trusted.

    The code-level operations add, neg, mul, inv, pow, cube_root and
    is_square are the digit path below: add and neg chunk-wise through
    `_ADD5`, mul as a product of `Poly`s over GF(3) reduced by the modulus,
    inv as `invmod` of the digit vector modulo the modulus.  For
    m <= LOG_EXP the constructor replaces mul, inv, pow, cube_root and
    is_square on the instance with the table operations of
    `_install_log_tables`, and for m <= 5, where a code is one chunk, add
    and neg with one lookup each.
    """

    def __init__(self, m, modulus):
        modulus = [d % 3 for d in modulus]
        if m < 1 or len(modulus) != m + 1:
            raise DomainError("modulus must have m+1 digits")
        if modulus[-1] != 1:
            raise DomainError("modulus must be monic")
        self.m = m
        self.q = 3**m
        self.modulus = tuple(modulus)
        # the modulus over GF(3), which GF(3) itself is while it is built
        self._mod = Poly(self if m == 1 else GF3, modulus)
        if m > 1 and not is_irreducible(self._mod):
            raise DomainError("modulus is reducible over GF(3)")
        self._hash = hash((m, self.modulus))  # every Poly hash asks for it
        # one unit and one zero polynomial per field: Poly.one and Poly.zero
        self.poly_one = Poly(self, (1,))
        self.poly_zero = Poly(self, ())
        self.tables = None  # (exp, log) for m <= LOG_EXP
        if m <= LOG_EXP:
            self._install_log_tables()

    # --- packing ---

    def encode(self, digits):
        code = 0
        p = 1
        for d in digits:
            code += (d % 3) * p
            p *= 3
        return code

    def decode(self, code):
        m = self.m
        digits = _TRITS5[code % 243]
        while len(digits) < m:
            code //= 243
            digits += _TRITS5[code % 243]
        return digits[:m]

    # --- digit path: all of m > LOG_EXP, and add and neg for m > 5 ---

    def _add_codes(self, a, b):
        out, p = 0, 1
        while a or b:
            out += _ADD5[a % 243][b % 243] * p
            a, b, p = a // 243, b // 243, p * 243
        return out

    def _neg_code(self, a):
        return self._add_codes(a, a)  # -a = a + a in characteristic 3

    def _mul_codes(self, a, b):
        mod = self._mod
        pa, pb = Poly(mod.ctx, self.decode(a)), Poly(mod.ctx, self.decode(b))
        return self.encode((pa * pb % mod).c)

    def _pow_code(self, a, e):
        if e == 0:
            return 1
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self._mul_codes(acc, base)
            base = self._mul_codes(base, base)
            e >>= 1
        return acc

    add = _add_codes
    neg = _neg_code
    mul = _mul_codes

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if a < 3:  # a = +-1
            return a
        mod = self._mod  # xgcd of the digit vector against the modulus
        return self.encode(invmod(Poly(mod.ctx, self.decode(a)), mod).c)

    def pow(self, a, e):
        if e < 0:
            return self._pow_code(self.inv(a), -e)
        return self._pow_code(a, e)

    def cube_root(self, a):
        """Inverse Frobenius: the unique b with b^3 = a (GF(3^m) is perfect)."""
        return self._pow_code(a, 3 ** (self.m - 1))

    def is_square(self, a):
        return a == 0 or self._pow_code(a, (self.q - 1) // 2) == 1

    # --- table path, m <= LOG_EXP ---

    def _install_log_tables(self):
        """Build exp/log lists over the smallest primitive code g and install
        the table operations on this instance.

        exp[i] = g^i for 0 <= i < 2(q-1), so exp[log a + log b] needs no
        reduction; log[g^i] = i.  Both lists refer to one int object per
        value.  A code splits into 5-trit chunks lo + 243 hi (hi = 0 when
        m <= 5); multiplication by g is F_3-linear, so the walk g^i -> g^(i+1)
        adds the images of lo and of 243 hi, each kept as its two chunks.
        """
        q, n, add5, neg5 = self.q, self.q - 1, _ADD5, _NEG5
        g = next(
            g for g in range(2, q)
            if all(self._pow_code(g, n // p) != 1 for p in _prime_divisors(n))
        )
        images = []  # per chunk j: the chunks of (c * 243^j) * g for c < 3^5
        for j in (0, 1):
            lo, hi = [0], [0]
            for k in range(5 * j, min(5 * j + 5, self.m)):
                b = self._mul_codes(3**k, g)
                bl, bh = b % 243, b // 243
                nl, nh = neg5[bl], neg5[bh]
                lo = lo + [add5[x][bl] for x in lo] + [add5[x][nl] for x in lo]
                hi = hi + [add5[x][bh] for x in hi] + [add5[x][nh] for x in hi]
            images.append((lo, hi))
        (lo0, hi0), (lo1, hi1) = images
        ints = list(range(q))
        exp, log = [0] * n, [0] * q
        xl, xh = 1, 0
        for i in ints[:n]:
            x = ints[xl + 243 * xh]
            exp[i] = x
            log[x] = i
            xl, xh = add5[lo0[xl]][lo1[xh]], add5[hi0[xl]][hi1[xh]]
        exp += exp
        self.tables = exp, log
        third = 3 ** (self.m - 1) % n  # a^(1/3) = a^(3^(m-1))

        if self.m <= 5:  # a code is one chunk: one lookup

            def add(a, b):
                return add5[a][b]

            def neg(a):
                return neg5[a]

            self.add, self.neg = add, neg

        def mul(a, b):
            if a and b:
                return exp[log[a] + log[b]]
            return 0

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return exp[n - log[a]]

        def pow(a, e):
            if a:
                return exp[log[a] * e % n]
            if e < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0 if e else 1

        def cube_root(a):
            return exp[log[a] * third % n] if a else 0

        def is_square(a):
            return a == 0 or log[a] % 2 == 0

        self.mul, self.inv = mul, inv
        self.pow, self.cube_root, self.is_square = pow, cube_root, is_square

    # --- derived operations ---

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def __repr__(self):
        return f"Fq(3^{self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, Fq)
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # the table operations are closures, which do not pickle: rebuild
        return Fq, (self.m, list(self.modulus))


GF3 = Fq(1, [0, 1])  # handy shared GF(3): modulus is just x (alpha = 0)

