"""Base field GF(3^m): arithmetic, inverse Frobenius, modulus validation.

The table operations (m <= LOG_EXP) are checked against the digit path
(`_add_codes`, `_neg_code`, `_mul_codes`, `_pow_code`), which is also the
only path for m > LOG_EXP."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from cubicff.errors import DomainError
from cubicff.ff import LOG_EXP, Fq, GF3

from conftest import F3_11, alpha_code, seeded


def _agrees_with_digit_path(F, a, b, exps=(0, 1, 2, 5, -1, -4)):
    q = F.q
    assert F.add(a, b) == F._add_codes(a, b)
    assert F.sub(a, b) == F._add_codes(a, F._neg_code(b))
    assert F.neg(a) == F._neg_code(a)
    assert F.mul(a, b) == F._mul_codes(a, b)
    assert F.cube_root(a) == F._pow_code(a, 3 ** (F.m - 1))
    assert F.is_square(a) == (a == 0 or F._pow_code(a, (q - 1) // 2) == 1)
    if a:
        ia = F._pow_code(a, q - 2)
        assert F.inv(a) == ia
        for e in exps:
            assert F.pow(a, e) == (F._pow_code(a, e) if e >= 0
                                   else F._pow_code(ia, -e))


def test_prime_field_basics(gf3):
    assert gf3.add(1, 1) == 2
    assert gf3.mul(2, 2) == 1
    assert gf3.inv(1) == 1
    assert gf3.inv(2) == 2
    assert gf3.neg(1) == 2


def test_gf9_inverse_and_cube_root(gf9):
    t = gf9.encode([0, 1])
    assert gf9.inv(t) == gf9.encode([0, 2])  # t * 2t = 2t^2 = 1
    assert gf9.cube_root(t) == gf9.encode([0, 2])  # (2t)^3 = t
    assert gf9.mul(t, gf9.inv(t)) == 1


def test_section13_field_reduction(f310):
    # alpha * alpha^9 reduces through the degree-10 modulus
    a = f310.encode([0, 1] + [0] * 8)
    prod = f310.mul(a, f310.pow(a, 9))
    assert prod == alpha_code(f310, 1, -1, 0, 0, 1, 1, 1)


def test_pow_conventions(gf9):
    t = gf9.encode([0, 1])
    assert gf9.pow(t, 0) == 1
    assert gf9.pow(0, 0) == 1
    assert gf9.pow(t, gf9.q) == t  # a^(3^m) = a for all a
    assert GF3.pow(2, 2) == 1
    assert gf9.pow(t, -1) == gf9.inv(t)
    assert gf9.pow(t, -3) == gf9.pow(gf9.inv(t), 3)
    assert gf9.pow(t, -gf9.q) == gf9.inv(t)


def test_cube_root_trivia(gf3):
    assert gf3.cube_root(0) == 0
    for c in range(3):
        assert gf3.cube_root(c) == c  # c^3 = c in GF(3)


@pytest.mark.parametrize("m,mod", [
    (1, [0, 1]),
    (2, [1, 0, 1]),  # t^2 + 1: alpha has order 4, not primitive
    (3, [1, 2, 0, 1]),  # alpha primitive
    (2, [2, 1, 1]),  # alpha primitive
    (4, [1, 0, 1, 1, 1]),  # alpha not primitive
    (4, [2, 0, 0, 1, 1]),  # alpha primitive
    (5, [1, 0, 0, 0, 2, 1]),  # alpha primitive
])
def test_cube_root_bijection_and_inverse_exhaustive(m, mod):
    F = Fq(m, mod)
    seen = set()
    for a in range(F.q):
        r = F.cube_root(a)
        assert F.mul(F.mul(r, r), r) == a
        assert F.cube_root(F.mul(F.mul(a, a), a)) == a
        seen.add(r)
        if a:
            assert F.mul(a, F.inv(a)) == 1
        _agrees_with_digit_path(F, a, a, exps=(0, 1, 2, 5, F.q - 1, F.q, -1, -3))
        for b in range(F.q):
            assert F.add(a, b) == F._add_codes(a, b)
            assert F.mul(a, b) == F._mul_codes(a, b)
    assert len(seen) == F.q
    # exp/log: a bijection between [0, q-1) and the nonzero codes
    n = F.q - 1
    exp, log = F.tables
    assert sorted(exp[:n]) == list(range(1, F.q))
    assert exp[n:] == exp[:n]
    assert all(log[exp[i]] == i for i in range(n))


def test_f3_10_agrees_with_digit_path(f310):
    F = f310
    n = F.q - 1
    exp, log = F.tables
    assert sorted(exp[:n]) == list(range(1, F.q))
    assert all(log[exp[i]] == i for i in range(n))
    rng = seeded(310)
    special = [0, 1, 2, 3, n]  # zero, one, minus one, alpha, the last code
    pairs = [(a, b) for a in special for b in special]
    pairs += [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(2000)]
    for a, b in pairs:
        _agrees_with_digit_path(F, a, b, exps=(0, 1, rng.randrange(-n, n)))


def test_digit_path_beyond_log_exp():
    F = F3_11
    assert F.m > LOG_EXP and F.mul == F._mul_codes and not hasattr(F, "_exp")
    rng = seeded(11)
    for _ in range(40):
        a, b, c = (rng.randrange(1, F.q) for _ in range(3))
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0 and F.sub(a, b) == F.add(a, F.neg(b))
        assert F.mul(a, F.inv(a)) == 1
        r = F.cube_root(a)
        assert F.mul(F.mul(r, r), r) == a
        assert F.pow(a, -2) == F.inv(F.mul(a, a))
        assert F.is_square(F.mul(a, a))
        assert F.encode(F.decode(a)) == a and len(F.decode(a)) == F.m


def test_zero_inverse_raises(gf3, gf9, f310):
    for F in (gf3, gf9, f310, F3_11):
        with pytest.raises(ZeroDivisionError):
            F.inv(0)
        with pytest.raises(ZeroDivisionError):
            F.pow(0, -1)
        assert F.pow(0, 0) == 1 and F.pow(0, 5) == 0


def test_modulus_validation():
    with pytest.raises(DomainError):
        Fq(2, [0, 0, 1])  # t^2 reducible
    with pytest.raises(DomainError):
        Fq(2, [2, 0, 1])  # t^2 - 1 = (t-1)(t+1)
    with pytest.raises(DomainError):
        Fq(2, [1, 0, 2])  # not monic
    with pytest.raises(DomainError):
        Fq(3, [1, 0, 1])  # wrong digit count
    with pytest.raises(DomainError):
        Fq(4, [1, 0, 2, 0, 1])  # (t^2 + 1)^2: reducible with no root
    # exactly the Gauss count of monic irreducibles of each degree passes
    for m, count in ((2, 3), (3, 8), (4, 18), (5, 48)):
        accepted = 0
        for code in range(3**m):
            try:
                Fq(m, [code // 3**k % 3 for k in range(m)] + [1])
            except DomainError:
                continue
            accepted += 1
        assert accepted == count, m
    assert Fq(11, list(F3_11.modulus)) == F3_11  # beyond LOG_EXP


def test_pickle_round_trip(gf9, f310):
    for F in (gf9, f310, F3_11):
        G = pickle.loads(pickle.dumps(F))
        assert G == F and G.mul(5, 7) == F.mul(5, 7)


@settings(max_examples=200, derandomize=True)
@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_axioms_gf27(a, b, c):
    F = Fq(3, [1, 2, 0, 1])
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(a, b) == F.mul(b, a)


def test_element_operators(gf9):
    t = gf9.encode([0, 1])
    assert gf9.add(gf9.mul(t, t), 1) == 0  # t^2 = -1
    assert gf9.mul(t, gf9.inv(t)) == 1
    assert gf9.add(gf9.neg(t), t) == 0
    assert gf9.cube_root(gf9.mul(t, gf9.mul(t, t))) == t
    assert gf9.decode(t) == (0, 1)
