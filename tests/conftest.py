"""Shared fixtures: small fields, a curve zoo covering all four prime
classes, the worked-example field, distinguished GF(3) curves with and
without ramified finite places, random generators for polynomials,
canonical primitive ideals and products of primes, and two polynomial
references the tests compare the package against: square-and-multiply
powering and roots from factor."""

import random

import pytest

from cubicff.ff import Fq, GF3
from cubicff.errors import DomainError
from cubicff.polyring import Poly, crt2_general, factor, is_irreducible
from cubicff.curve import Curve, standardize
from cubicff.order import Element, compute_order_data
from cubicff.places import prime_basis, split_finite
from cubicff.idealarith import ideal_mul
from cubicff.classgroup import can_basis


@pytest.fixture(scope="session")
def gf3():
    return GF3


@pytest.fixture(scope="session")
def gf9():
    return Fq(2, [1, 0, 1])  # t^2 + 1


@pytest.fixture(scope="session")
def gf27():
    return Fq(3, [1, 2, 0, 1])  # t^3 + 2t^2 + 1 (irreducible over GF(3))


# GF(3^5) and GF(3^6): a code fills one 5-trit chunk exactly, or spills one
# trit into a second
@pytest.fixture(scope="session")
def gf243():
    return Fq(5, [1, 0, 0, 0, 2, 1])  # t^5 + 2t^4 + 1


@pytest.fixture(scope="session")
def gf729():
    return Fq(6, [1, 0, 0, 0, 1, 1, 1])  # t^6 + t^5 + t^4 + 1


# the first irreducible modulus of degree 11 in digit order: beyond LOG_EXP,
# so every operation takes the digit path
F3_11 = Fq(11, [1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1])


@pytest.fixture(scope="session")
def f311():
    return F3_11


@pytest.fixture(scope="session")
def f310():
    # the worked-example field: a^10 - a^6 - a^5 - a^4 + a - 1
    return Fq(10, [2, 1, 0, 0, 2, 2, 2, 0, 0, 0, 1])


def alpha_code(F, *signed):
    """Encode a field constant from signed digits, alpha^0 first."""
    return F.encode([d % 3 for d in signed] + [0] * (F.m - len(signed)))


@pytest.fixture(scope="session")
def s13(f310):
    """Worked-example curve, order data, and golden constants."""
    F = f310
    x = Poly.x(F)
    B = x ** 4 + Poly.const(F, alpha_code(F, 0, 1))
    curve = Curve(Poly.one(F), B)
    od = compute_order_data(curve)
    u1 = Poly.const(F, alpha_code(F, 0, 0, 0, -1, -1, 1, 1, 1, -1, -1))
    r = -u1
    v1 = Poly.one(F) - r * r
    return {
        "F": F,
        "curve": curve,
        "od": od,
        "u1": u1,
        "root": r,
        "v1": v1,
        # printed step-3 constants (these match the source table verbatim)
        "a3": Poly.const(F, alpha_code(F, -1, 0, 1, -1, 1, -1, -1, 0, 1)),
        "b3": Poly.const(F, alpha_code(F, 0, 0, 0, 1, 1, -1, -1, -1, 1, 1)),
    }


def example62_curve():
    F = GF3
    A = Poly.from_ints(F, [2, 1, 0, 1, 1])  # (x^2+x-1)(x^2+1)
    B = Poly.from_ints(F, [1, 0, 1, 0, 1, 1, 1, 0, 2])  # -x^8+x^6+x^5+x^4+x^2+1
    return Curve(A, B)


@pytest.fixture(scope="session")
def ex62():
    c = example62_curve()
    return c, compute_order_data(c)


def curve_zoo(F):
    """Standard-form curves over F hitting all four prime classes at x."""
    x = Poly.x(F)
    one = Poly.one(F)
    two = Poly.const(F, 2)
    zoo = [
        Curve(one, x),                 # unramified-rich, genus 0
        Curve(x, x + one),             # class II at x (wild, no index)
        Curve(x * x, one + x * x),     # class III at x (wild index)
        # class IV at x (v_x(A) = 1, x | I since v_x(B) = 2 with i0 = 0),
        # and class II at x + 1
        Curve(x * x + x, x ** 3 + two * x * x),
    ]
    if F.m == 1:
        zoo.append(example62_curve())
    return [standardize(c)[0] for c in zoo]


@pytest.fixture(scope="session")
def zoo3():
    return curve_zoo(GF3)


@pytest.fixture(scope="session")
def zoo9(gf9):
    return curve_zoo(gf9)


@pytest.fixture(scope="session")
def dist3():
    """A distinguished-setting curve over GF(3) with genus 3."""
    F = GF3
    x = Poly.x(F)
    c = Curve(Poly.one(F), x ** 4 + x + Poly.const(F, 2))
    return c, compute_order_data(c)


@pytest.fixture(scope="session")
def ram3():
    """Distinguished-setting GF(3) curves with ramified finite places, as
    (curve, order data): C1 (genus 3) is class II at x and class IV at
    x + 1, C2 (genus 4) is class III at x and class IV at x + 2."""
    F = GF3
    out = []
    for A, B in (([0, 2, 2], [1, 0, 0, 2, 2, 1]),
                 ([0, 0, 2, 1], [2, 0, 0, 2, 1, 0, 2, 2])):
        c = Curve(Poly.from_ints(F, A), Poly.from_ints(F, B))
        out.append((c, compute_order_data(c)))
    return out


def rand_poly(rng, F, maxdeg, nonzero=False, monic=False):
    d = rng.randrange(0, maxdeg + 1)
    c = [rng.randrange(F.q) for _ in range(d)]
    c.append(1 if monic else rng.randrange(F.q))
    p = Poly(F, c)
    if (nonzero or monic) and p.is_zero():
        return rand_poly(rng, F, maxdeg, nonzero, monic)
    return p


def rand_ideal(rng, od, maxdeg=2, cap=6):
    """Canonical primitive ideal: the primitive part of a random principal
    ideal (guaranteed valid by construction)."""
    F = od.ctx
    for _ in range(20000):
        el = Element(
            rand_poly(rng, F, maxdeg),
            rand_poly(rng, F, maxdeg),
            rand_poly(rng, F, maxdeg),
        )
        if el.is_zero():
            continue
        J = can_basis(el, od).primitive_part()
        if J.s.deg <= cap:
            return J
    raise RuntimeError("rand_ideal cap is unreachable for this field")


def monic_irreducibles(F, maxdeg):
    out = []
    for d in range(1, maxdeg + 1):
        for code in range(F.q ** d):
            cs, cc = [], code
            for _ in range(d):
                cs.append(cc % F.q)
                cc //= F.q
            P = Poly(F, cs + [1])
            if is_irreducible(P):
                out.append(P)
    return out


def prime_pool(od, maxdeg=3):
    """Every prime of residue degree 1 above a place of degree <= maxdeg, as
    the benchmark's chain pools hold them (they stop at degree 2)."""
    pool = []
    for P in monic_irreducibles(od.ctx, maxdeg):
        st = split_finite(P, od)
        pool += [prime_basis(P, st, p.key, od) for p in st.primes if p.f == 1]
    return pool


def rand_prime_product(rng, od, pool):
    """The primitive part of a product of 1-3 primes drawn from `pool`: the
    unit ideal only when the primes multiply to a principal ideal."""
    J = pool[rng.randrange(len(pool))]
    for _ in range(rng.randrange(3)):
        J = ideal_mul(J, pool[rng.randrange(len(pool))], od)[1]
    return J


def seeded(n):
    return random.Random(n)


def crt_fold(residues):
    """x with x = r mod m for every (r, m) in the list, reduced mod the lcm
    of the moduli: crt2_general folded from (0, 1).  Inconsistent
    congruences raise InvariantError."""
    ctx = residues[0][1].ctx
    x, m = Poly.zero(ctx), Poly.one(ctx)
    for r, mi in residues:
        x, m = crt2_general(x, m, r, mi)
    return x


def modexp(base, e, mod):
    """base^e mod `mod` by square-and-multiply."""
    if mod.is_zero() or mod.deg < 1:
        raise DomainError("modexp needs a modulus of degree >= 1")
    acc = Poly.one(base.ctx)
    base = base % mod
    while e:
        if e & 1:
            acc = (acc * base) % mod
        base = (base * base) % mod
        e >>= 1
    return acc


def poly_roots(f):
    """All roots of f in the coefficient field, sorted by code: those of its
    linear factors."""
    if f.is_zero():
        raise DomainError("roots of the zero polynomial")
    if f.deg < 1:
        return []
    F = f.ctx
    return sorted(F.neg(p.c[0]) for p, _ in factor(f) if p.deg == 1)
