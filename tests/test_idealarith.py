"""Triangular ideal arithmetic against the brute-force oracle."""

import pytest

from cubicff.errors import DomainError
from cubicff.ff import GF3
from cubicff.polyring import Poly, gcd, is_irreducible
from cubicff.curve import Curve
from cubicff.order import compute_order_data, Element
from cubicff.places import (
    SplitTag,
    prime_basis,
    prime_power_basis,
    split_finite,
)
from cubicff.ideals import (
    ideal_member,
    ideal_validate,
    make_ideal,
    principal_ideal,
    unit_ideal,
)
from cubicff.idealarith import (
    ideal_contains,
    ideal_divide,
    ideal_divide_nonprimitive,
    ideal_invert,
    ideal_mul,
    ideal_mul_coprime,
    ideal_norm,
    type_factor,
)
from cubicff.oracle import oracle_ideal_mul
from cubicff.classgroup import can_basis

from conftest import monic_irreducibles, rand_ideal, rand_poly, seeded


def full(D, J):
    return make_ideal(D * J.d, J.s, J.sp, J.spp, J.u, J.w, J.v)


def exact_quotient(I2, I1, od):
    """I2 * I1^(-1), required to be a primitive integral ideal."""
    content, Q = ideal_divide_nonprimitive(Poly.one(I2.ctx), I2, I1, od)
    assert content.is_one()
    return Q


def s13_I1(s13):
    od = s13["od"]
    x = Poly.x(od.ctx)
    st = split_finite(x, od)
    key = next(p.key for p in st.primes if p.root == s13["root"])
    return prime_basis(x, st, key, od)


def test_ideal_norm_examples(s13):
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    assert ideal_norm(unit_ideal(F)).is_one()
    I1 = s13_I1(s13)
    assert ideal_norm(I1) == x
    _, I2 = ideal_mul(I1, I1, od)
    _, I3 = ideal_mul(I2, I1, od)
    _, I6 = ideal_mul(I3, I3, od)
    assert ideal_norm(I6) == x ** 6


def test_contains_examples(s13):
    od = s13["od"]
    F = od.ctx
    I1 = s13_I1(s13)
    _, I2 = ideal_mul(I1, I1, od)
    _, I3 = ideal_mul(I2, I1, od)
    _, I6 = ideal_mul(I3, I3, od)
    assert ideal_contains(I1, I1)
    assert ideal_contains(I1, unit_ideal(F))
    assert not ideal_contains(I1, I6)
    assert ideal_contains(I6, I1)


def test_contains_matches_membership(zoo3):
    rng = seeded(41)
    for c in zoo3:
        od = compute_order_data(c)
        for _ in range(25):
            J1 = rand_ideal(rng, od, cap=5)
            J2 = rand_ideal(rng, od, cap=5)
            member_all = all(ideal_member(J2, e) for e in J1.basis())
            assert ideal_contains(J1, J2) == member_all


def test_type_factor(zoo3, ex62):
    rng = seeded(43)
    curves = list(zoo3)
    for c in curves:
        od = compute_order_data(c)
        for _ in range(15):
            J = rand_ideal(rng, od, cap=6)
            parts = type_factor(J, od)
            acc = unit_ideal(od.ctx)
            for p in parts:
                if not p.is_unit():
                    acc = ideal_mul_coprime(acc, p)
            assert acc == J
    # the worked-example ideals have all mass in the unramified part
    _, od62 = ex62
    s13_like = rand_ideal(seeded(1), od62, cap=4)
    parts = type_factor(s13_like, od62)
    assert all(p.is_primitive() for p in parts)


def test_invert_examples(s13):
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    assert ideal_invert(unit_ideal(F), od).is_unit()
    I1 = s13_I1(s13)
    _, I2 = ideal_mul(I1, I1, od)
    _, I3 = ideal_mul(I2, I1, od)
    _, I6 = ideal_mul(I3, I3, od)
    inv = ideal_invert(I6, od)
    assert inv.s == x ** 6 and inv.sp == x ** 6
    # w = -u2 and v = E - v2 (the omega-line congruences)
    assert inv.w == (-I6.u) % (x ** 6)
    assert inv.v == (od.E - I6.v) % (x ** 6)
    prod = oracle_ideal_mul(I6, inv, od)
    assert prod.primitive_part().is_unit() and prod.d == x ** 6


def test_invert_fuzz(zoo3, zoo9):
    rng = seeded(47)
    for zoo in (zoo3, zoo9):
        for c in zoo:
            od = compute_order_data(c)
            for _ in range(12):
                J = rand_ideal(rng, od, cap=5)
                bar = ideal_invert(J, od)
                ideal_validate(bar, od)
                prod = oracle_ideal_mul(J, bar, od)
                assert prod.primitive_part().is_unit() and prod.d == J.s


def test_split_conjugate(gf3, zoo3):
    """The conjugate splitting identities as exact quotients: pq / p = q
    above a completely split place, [s, rho, s omega] / [s, rho, omega] =
    [s, rho, omega] at a class III place, and pq / q = p, pq / p = q,
    q^2 / q = q at a class IV place."""
    od = compute_order_data(Curve(Poly.one(gf3), Poly.x(gf3)))
    x = Poly.x(gf3)
    st = split_finite(x, od)
    k1, k2 = st.primes[0].key, st.primes[1].key
    for i in (1, 2, 3):
        pq_i = prime_power_basis(x, od, {k1: i, k2: i})
        p_i = prime_power_basis(x, od, {k1: i})
        q_i = prime_power_basis(x, od, {k2: i})
        assert exact_quotient(pq_i, p_i, od) == q_i, i
        assert ideal_divide(pq_i, p_i, od) == q_i, i
    od3 = compute_order_data(zoo3[2])
    st3 = split_finite(x, od3)
    p1 = prime_basis(x, st3, "p", od3)
    p2 = prime_power_basis(x, od3, {"p": 2})
    assert exact_quotient(p2, p1, od3) == p1
    # trivial s = 1
    u = unit_ideal(gf3)
    assert exact_quotient(u, u, od).is_unit()
    od4 = compute_order_data(zoo3[3])
    st4 = split_finite(x, od4)
    p = prime_basis(x, st4, "p", od4)
    q = prime_basis(x, st4, "q", od4)
    pq = prime_power_basis(x, od4, {"p": 1, "q": 1}, st4)
    q2 = prime_power_basis(x, od4, {"q": 2}, st4)
    assert exact_quotient(pq, q, od4) == p
    assert exact_quotient(pq, p, od4) == q
    assert exact_quotient(q2, q, od4) == q


def test_divide_examples(s13):
    od = s13["od"]
    F = od.ctx
    I1 = s13_I1(s13)
    assert ideal_divide(I1, unit_ideal(F), od) == I1
    assert ideal_divide(I1, I1, od).is_unit()
    with pytest.raises(DomainError):
        ideal_divide(unit_ideal(F), I1, od)  # containment fails


def test_divide_fuzz_roundtrip(zoo3, zoo9):
    rng = seeded(53)
    for zoo in (zoo3, zoo9):
        for c in zoo:
            od = compute_order_data(c)
            for _ in range(12):
                J1 = rand_ideal(rng, od, cap=4)
                J2 = rand_ideal(rng, od, cap=4)
                D, P3 = ideal_mul(J1, J2, od)
                if not D.is_one():
                    continue
                assert ideal_divide(P3, J1, od) == J2
                assert ideal_divide(P3, J2, od) == J1


def test_divide_nonprimitive(s13, zoo3):
    od = s13["od"]
    F = od.ctx
    I1 = s13_I1(s13)
    # d = 1 reduces to plain division
    _, I2 = ideal_mul(I1, I1, od)
    c0, q0 = ideal_divide_nonprimitive(Poly.one(F), I2, I1, od)
    assert c0.is_one() and q0 == I1
    # fuzzed identity <c> q * I1 = <d> I2
    rng = seeded(59)
    for c in zoo3:
        odc = compute_order_data(c)
        for _ in range(8):
            J1 = rand_ideal(rng, odc, cap=3)
            J2 = rand_ideal(rng, odc, cap=3)
            D, P3 = ideal_mul(J1, J2, odc)
            dd = (J1.s * D).monic()
            cc, qq = ideal_divide_nonprimitive(dd, P3, J1, odc)
            lhs_c, lhs = ideal_mul(qq, J1, odc)
            assert full((cc * lhs_c).monic(), lhs) == full(dd, P3)
    # dd meets a class II, III and IV place at x, where both operands lie
    xg = Poly.x(GF3)
    for k, I1_exps, I2_exps, dd in (
        (1, {"p": 1}, {"p": 2}, xg),
        (2, {"p": 1}, {"p": 2}, xg * (xg + Poly.one(GF3))),
        (3, {"p": 1}, {"q": 1}, xg),
        (3, {"p": 1, "q": 1}, {"q": 2}, xg * xg),
    ):
        odc = compute_order_data(zoo3[k])
        I1 = prime_power_basis(xg, odc, I1_exps)
        I2 = prime_power_basis(xg, odc, I2_exps)
        assert not (I1.is_unit() or I2.is_unit())
        cc, qq = ideal_divide_nonprimitive(dd, I2, I1, odc)
        assert oracle_ideal_mul(full(cc, qq), I1, odc) == full(dd, I2)


def test_ramified_exponent_rule_oracle(zoo3, zoo9, ram3):
    """Every primitive power product (exponents <= 3) of the primes above
    each ramified place of degree <= 2, in pairs: products, inverses and
    quotients against the oracle."""
    ramified = (SplitTag.TOTALLY_RAMIFIED, SplitTag.PARTIALLY_RAMIFIED)
    curves = list(zoo3) + list(zoo9) + [c for c, _ in ram3]
    places = 0
    for c in curves:
        od = compute_order_data(c)
        for P in monic_irreducibles(od.ctx, 2):
            st = split_finite(P, od)
            if st.tag not in ramified:
                continue
            places += 1
            keys = [p.key for p in st.primes]
            powers = []
            for code in range(1, 4 ** len(keys)):
                exps = {k: code // 4 ** n % 4 for n, k in enumerate(keys)}
                J = prime_power_basis(P, od, exps, st)
                if J.is_primitive():
                    powers.append(J)
            for i, J1 in enumerate(powers):
                bar = ideal_invert(J1, od)
                prod = oracle_ideal_mul(J1, bar, od)
                assert prod.primitive_part().is_unit() and prod.d == J1.s
                for J2 in powers[i:]:
                    D, P3 = ideal_mul(J1, J2, od)
                    assert full(D, P3) == oracle_ideal_mul(J1, J2, od)
                    if D.is_one():
                        assert ideal_divide(P3, J1, od) == J2
                        assert ideal_divide(P3, J2, od) == J1
                for J2 in powers:
                    # the quotient Q = <P^k> J2 J1^(-1) has <s1> Q = <P^k> O
                    # for the oracle product O = J2 * J1-bar
                    O = oracle_ideal_mul(J2, bar, od)
                    for k in (1, 2):
                        dd = P ** k
                        if not ideal_contains(full(dd, J2), J1):
                            continue
                        cc, qq = ideal_divide_nonprimitive(dd, J2, J1, od)
                        assert full(cc * J1.s, qq) == full(dd, O)
    # six on zoo3 (two of degree 2 on ex62), four on zoo9, two each on C1, C2
    assert places == 14


def test_mul_coprime(s13, zoo3):
    """The unit passes through; s parts that share a factor are refused: a
    prime against itself and its square, and seeded ideals against
    themselves."""
    od = s13["od"]
    F = od.ctx
    I1 = s13_I1(s13)
    assert ideal_mul_coprime(I1, unit_ideal(F)) == I1
    with pytest.raises(DomainError):
        ideal_mul_coprime(I1, I1)
    _, I2 = ideal_mul(I1, I1, od)
    with pytest.raises(DomainError, match="coprime s parts"):
        ideal_mul_coprime(I2, I1)
    od = compute_order_data(zoo3[0])
    rng = seeded(151)
    refused = 0
    for _ in range(10):
        J = rand_ideal(rng, od, cap=4)
        if J.s.deg >= 1:
            with pytest.raises(DomainError, match="coprime s parts"):
                ideal_mul_coprime(J, J)
            refused += 1
    assert refused


def test_mul_coprime_f3_10_pool_oracle(s13):
    """Coprime products over F_3^10 of ideals above distinct completely split
    places of degree 1 and 2 equal the nine-product oracle, through ideal_mul
    and ideal_mul_coprime.  Above each place the pool holds a prime p, its
    square or the product of two primes, so sp = 1 and sp = P both occur."""
    od = s13["od"]
    F = od.ctx
    rng = seeded(157)
    pool = []
    while len(pool) < 8:
        P = Poly(F, [rng.randrange(F.q) for _ in range(len(pool) % 2 + 1)]
                 + [1])
        if any(Q == P for Q, _ in pool) or not is_irreducible(P):
            continue
        st = split_finite(P, od)
        if st.tag != SplitTag.COMPLETELY_SPLIT:
            continue
        p1, p2 = (prime_basis(P, st, p.key, od)
                  for p in rng.sample(st.primes, 2))
        J = (p1, oracle_ideal_mul(p1, p1, od),
             oracle_ideal_mul(p1, p2, od))[len(pool) % 3]
        assert J.is_primitive()
        pool.append((P, J))
    assert {J.sp.deg for _, J in pool} == {0, 1, 2}
    checked = 0
    for _ in range(12):
        picks = rng.sample(pool, rng.randrange(2, 4))
        acc = picks[0][1]
        for _, J in picks[1:]:
            want = oracle_ideal_mul(acc, J, od)
            D, got = ideal_mul(acc, J, od)
            assert D.is_one() and got == want
            assert ideal_mul_coprime(acc, J) == want
            acc = want
            checked += 1
    assert checked >= 12


def test_mul_examples(s13, zoo3):
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    I1 = s13_I1(s13)
    # the worked-example squares equal the oracle and the printed shape
    D, sq = ideal_mul(I1, I1, od)
    assert D.is_one()
    assert sq == oracle_ideal_mul(I1, I1, od)
    assert sq.s == x * x and sq.u == s13_I1(s13).u and sq.v == s13["v1"]
    # J * its inverse = <s> * unit
    D, out = ideal_mul(I1, ideal_invert(I1, od), od)
    assert D == I1.s and out.is_unit()
    # class II: p * p^2 = <P>
    od2 = compute_order_data(zoo3[1])
    xg = Poly.x(GF3)
    p1 = prime_power_basis(xg, od2, {"p": 1})
    p2 = prime_power_basis(xg, od2, {"p": 2})
    D, out = ideal_mul(p1, p2, od2)
    assert D == xg and out.is_unit()


def test_mul_oracle_fuzz(zoo3, zoo9):
    rng = seeded(61)
    for zoo in (zoo3, zoo9):
        for c in zoo:
            od = compute_order_data(c)
            for _ in range(15):
                J1 = rand_ideal(rng, od, cap=5)
                J2 = rand_ideal(rng, od, cap=5)
                D, P3 = ideal_mul(J1, J2, od)
                ideal_validate(P3, od)
                assert full(D, P3) == oracle_ideal_mul(J1, J2, od)
                assert ideal_norm(full(D, P3)) == (
                    ideal_norm(J1) * ideal_norm(J2)
                ).monic()


def test_mul_oracle_gf27(gf27):
    from conftest import curve_zoo

    rng = seeded(63)
    for c in curve_zoo(gf27)[:3]:
        od = compute_order_data(c)
        for _ in range(5):
            J1 = rand_ideal(rng, od, cap=6)
            J2 = rand_ideal(rng, od, cap=6)
            D, P3 = ideal_mul(J1, J2, od)
            assert full(D, P3) == oracle_ideal_mul(J1, J2, od)
            bar = ideal_invert(J1, od)
            prod = oracle_ideal_mul(J1, bar, od)
            assert prod.primitive_part().is_unit() and prod.d == J1.s


def test_principal_ideal_contents():
    F = GF3
    x = Poly.x(F)
    J = principal_ideal(x * x + x)
    assert J.d == x * x + x and J.primitive_part().is_unit()


def test_ideal_equality_hash_pickle_print(zoo3):
    """An ideal's value is its seven fields: results computed twice are
    equal, hash alike and print alike, and survive pickling."""
    import pickle

    from cubicff.cli import ideal_print

    rng = seeded(89)
    for c in zoo3:
        od = compute_order_data(c)
        for _ in range(6):
            J = rand_ideal(rng, od, cap=4)
            J2 = rand_ideal(rng, od, cap=4)
            D, P3 = ideal_mul(J, J2, od)
            dd = (J.s * D).monic()
            got = (ideal_invert(J, od), type_factor(J, od),
                   ideal_divide_nonprimitive(dd, P3, J, od))
            assert got == (ideal_invert(J, od), type_factor(J, od),
                           ideal_divide_nonprimitive(dd, P3, J, od))
            V = make_ideal(J.d, J.s, J.sp, J.spp, J.u, J.w, J.v)
            assert V is not J
            assert V == J and hash(V) == hash(J) and repr(V) == repr(J)
            assert ideal_print(V) == ideal_print(J)
            back = pickle.loads(pickle.dumps(V))
            assert back == J and hash(back) == hash(J)
            assert repr(back) == repr(J)


def _ref_parts(J, od):
    """The old route to the class parts of J: factor s and classify every
    prime with split_finite.  Returns {class: part}, classes 1-4, and
    checks on the way that a prime is ramified exactly when it divides A."""
    from cubicff.polyring import factor

    mass = {k: Poly.one(od.ctx) for k in (1, 2, 3, 4)}
    for P, e in (factor(J.s) if J.s.deg >= 1 else ()):
        st = split_finite(P, od)
        if st.tag is SplitTag.TOTALLY_RAMIFIED:
            k = 3 if st.index_divides else 2
        else:
            k = 4 if st.tag is SplitTag.PARTIALLY_RAMIFIED else 1
        assert (k == 1) == (not (od.A % P).is_zero())
        mass[k] = mass[k] * P ** e
    return {k: (unit_ideal(od.ctx) if m.is_one() else
                make_ideal(Poly.one(od.ctx), m, gcd(J.sp, m),
                           gcd(J.spp, m), J.u, J.w, J.v))
            for k, m in mass.items()}


def test_support_split_matches_factoring(zoo3, zoo9, gf27, s13):
    """type_factor and ideal_invert, which find the ramified part by trial
    division by the primes of A, agree with factoring s and classifying
    every prime: on random ideals over the GF(3), GF(9) and GF(27) zoos
    and over the F_3^10 worked-example curve."""
    from conftest import curve_zoo

    rng = seeded(97)
    ods = [compute_order_data(c)
           for c in list(zoo3) + list(zoo9) + curve_zoo(gf27)]
    # over F_3^10 a random element with an omega coordinate has norm degree
    # at least 8, so the ideals there are the primitive parts of <a + b rho>,
    # deg a <= 1 and b a nonzero constant (norm degree 4)
    od13 = s13["od"]
    F = od13.ctx
    z = Poly.zero(F)
    big = [can_basis(Element(rand_poly(rng, F, 1),
                             Poly.const(F, rng.randrange(1, F.q)), z),
                     od13).primitive_part() for _ in range(4)]
    assert not any(J.is_unit() for J in big)
    cases = [(od, rand_ideal(rng, od, cap=5)) for od in ods for _ in range(10)]
    classes = set()
    for od, J in cases + [(od13, J) for J in big]:
        ref = _ref_parts(J, od)
        classes.update(k for k, p in ref.items() if not p.is_unit())
        assert type_factor(J, od) == tuple(ref[k] for k in (1, 2, 3, 4))
        want = unit_ideal(od.ctx)
        for part in ref.values():
            if not part.is_unit():
                want = ideal_mul_coprime(want, ideal_invert(part, od))
        assert ideal_invert(J, od) == want
    assert classes == {1, 2, 3, 4}
