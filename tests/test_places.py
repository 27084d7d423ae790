"""Place splitting and prime-power bases, checked against enumeration and
repeated oracle products, and the per-curve memo of local data at ramified
places."""

import dataclasses
import pickle
import random

import pytest

from cubicff.errors import DomainError, InvariantError
from cubicff.ff import GF3
from cubicff import places, polyring
from cubicff.polyring import (
    Poly, exact_div, factor, invmod, is_irreducible, valuation)
from cubicff.curve import Curve
from cubicff.order import compute_order_data
from cubicff.places import (
    INERT,
    PARTIALLY_RAMIFIED,
    TOTALLY_RAMIFIED,
    TOTALLY_RAMIFIED_AT_INDEX,
    PrimeAbove,
    SplitTag,
    SplittingType,
    lift_rho_root,
    local_exponents,
    prime_basis,
    prime_power_basis,
    split_finite,
    split_infinite,
)
from cubicff.oracle import oracle_ideal_mul, oracle_split
from cubicff.ideals import (
    ideal_norm, ideal_validate, principal_ideal, unit_ideal)
from cubicff.classgroup import comp_red
from cubicff.idealarith import ideal_mul_coprime

from conftest import crt_fold, monic_irreducibles, prime_pool, seeded
from test_acceptance import random_standard_curve


def test_split_finite_examples(gf3):
    x = Poly.x(gf3)
    one = Poly.one(gf3)
    od = compute_order_data(Curve(one, x))
    st = split_finite(x, od)
    assert st.tag is SplitTag.COMPLETELY_SPLIT
    assert sorted(tuple(p.root.c) for p in st.primes) == [(), (1,), (2,)]
    st = split_finite(x - one, od)
    assert st.tag is SplitTag.INERT
    assert st.primes[0].f == 3


def test_split_finite_ramified(zoo3):
    # zoo curves 1..3 have class II, III, IV places at x
    x = Poly.x(GF3)
    tags = []
    for c in zoo3[1:4]:
        od = compute_order_data(c)
        st = split_finite(x, od)
        tags.append((st.tag, st.index_divides))
    assert tags[0] == (SplitTag.TOTALLY_RAMIFIED, False)
    assert tags[1] == (SplitTag.TOTALLY_RAMIFIED, True)
    assert tags[2] == (SplitTag.PARTIALLY_RAMIFIED, False)


def test_sum_ef_is_three(zoo3, gf9, zoo9):
    for zoo in (zoo3, zoo9):
        for c in zoo:
            od = compute_order_data(c)
            for P in monic_irreducibles(od.ctx, 1):
                st = split_finite(P, od)
                assert sum(p.e * p.f for p in st.primes) == 3


def test_split_infinite_cases(gf3, s13):
    x = Poly.x(gf3)
    one = Poly.one(gf3)
    assert split_infinite(s13["curve"]).tag is SplitTag.TOTALLY_RAMIFIED
    # tame with odd deg A
    assert split_infinite(Curve(x, one)).tag is SplitTag.PARTIALLY_RAMIFIED
    # tame, even deg A, Y^3 - Y splits completely
    st = split_infinite(Curve(x * x, one + x * x))
    assert st.tag in (
        SplitTag.COMPLETELY_SPLIT, SplitTag.PARTIALLY_SPLIT, SplitTag.INERT
    )
    # A = x^2 (a_2n = 1), B degree <= 3 with b_3 = 0: Y^3 - Y has 3 roots
    st = split_infinite(Curve(x * x, x + one))
    assert st.tag is SplitTag.COMPLETELY_SPLIT


def test_split_agrees_with_oracle(zoo3, zoo9):
    for zoo in (zoo3, zoo9):
        for c in zoo:
            od = compute_order_data(c)
            for P in monic_irreducibles(od.ctx, 2 if od.ctx.m == 1 else 1):
                a = split_finite(P, od)
                b = oracle_split(P, od)
                assert a.tag == b.tag and a.index_divides == b.index_divides
                assert [(p.e, p.f, p.root, p.quad) for p in a.primes] == [
                    (p.e, p.f, p.root, p.quad) for p in b.primes
                ]


def test_prime_basis_shapes(zoo3):
    x = Poly.x(GF3)
    one = Poly.one(GF3)
    # class III: [P, rho, omega]
    od = compute_order_data(zoo3[2])
    st = split_finite(x, od)
    J = prime_basis(x, st, "p", od)
    assert (J.s, J.sp, J.spp) == (x, one, one) and J.u.is_zero() and J.v.is_zero()
    # class IV: p = [P, rho, E + omega], q = [P, rho, omega]
    od = compute_order_data(zoo3[3])
    st = split_finite(x, od)
    Jp = prime_basis(x, st, "p", od)
    Jq = prime_basis(x, st, "q", od)
    assert Jp.v == od.E % x and Jq.v.is_zero()


def test_prime_products_reassemble_P(zoo3, zoo9):
    """Product of the primes above P with their ramification multiplicities
    is exactly <P>."""
    for zoo in (zoo3, zoo9):
        for c in zoo:
            od = compute_order_data(c)
            for P in monic_irreducibles(od.ctx, 1):
                st = split_finite(P, od)
                if any(p.f == 3 for p in st.primes):
                    continue
                acc = unit_ideal(od.ctx)
                for p in st.primes:
                    b = prime_basis(P, st, p.key, od)
                    for _ in range(p.e):
                        acc = oracle_ideal_mul(acc, b, od)
                assert acc.primitive_part().is_unit()
                assert acc.d == P


def test_prime_power_basis_matches_oracle_chains(zoo3, zoo9):
    for zoo in (zoo3, zoo9):
        for c in zoo:
            od = compute_order_data(c)
            for P in monic_irreducibles(od.ctx, 1):
                st = split_finite(P, od)
                for pr in st.primes:
                    if pr.f == 3:
                        continue
                    base = prime_basis(P, st, pr.key, od)
                    acc = base
                    for i in range(2, 5):
                        acc = oracle_ideal_mul(acc, base, od)
                        got = prime_power_basis(P, od, {pr.key: i}, st)
                        assert got == acc, (c.A, P, pr.key, i)
                        ideal_validate(got.primitive_part(), od)


def test_pair_powers_completely_split(gf3):
    od = compute_order_data(Curve(Poly.one(gf3), Poly.x(gf3)))
    x = Poly.x(gf3)
    st = split_finite(x, od)
    assert st.tag is SplitTag.COMPLETELY_SPLIT
    k1, k2 = st.primes[0].key, st.primes[1].key
    b1 = prime_basis(x, st, k1, od)
    b2 = prime_basis(x, st, k2, od)
    for i in range(0, 3):
        for j in range(0, 3):
            if i + j == 0 or i + j > 4:
                continue
            acc = unit_ideal(gf3)
            for _ in range(i):
                acc = oracle_ideal_mul(acc, b1, od)
            for _ in range(j):
                acc = oracle_ideal_mul(acc, b2, od)
            got = prime_power_basis(x, od, {k1: i, k2: j}, st)
            assert got == acc, (i, j)


def _random_place(rng, F, deg):
    while True:
        P = Poly(F, [rng.randrange(F.q) for _ in range(deg)] + [1])
        if is_irreducible(P):
            return P


@pytest.mark.parametrize("field", ["gf9", "gf27", "f310"])
def test_third_root_rule_matches_oracle_products(request, field):
    # p^a q^b at completely split places, a < b and a = b, where the pair
    # is named by the root of the third prime, and q^j at partially split
    # places equal repeated oracle products of the prime bases, which
    # themselves multiply to (P)
    F = request.getfixturevalue(field)
    rng = seeded(1901)
    want = {SplitTag.COMPLETELY_SPLIT: 3, SplitTag.PARTIALLY_SPLIT: 3}
    while any(want.values()):
        od = compute_order_data(random_standard_curve(rng, F))
        for _ in range(6):
            P = _random_place(rng, F, 1 + rng.randrange(2))
            st = split_finite(P, od)
            if not want.get(st.tag):
                continue
            want[st.tag] -= 1
            bases = {p.key: prime_basis(P, st, p.key, od) for p in st.primes}
            acc = unit_ideal(F)
            for b in bases.values():
                acc = oracle_ideal_mul(acc, b, od)
            assert acc == principal_ideal(P)
            if st.tag is SplitTag.COMPLETELY_SPLIT:
                k = [p.key for p in st.primes]
                rng.shuffle(k)
                cases = [{k[0]: 1, k[1]: 2}, {k[0]: 2, k[1]: 2},
                         {k[1]: 1, k[2]: 3}]
            else:
                cases = [{"q": 2}, {"q": 3}]
            for exps in cases:
                acc = unit_ideal(F)
                for key, e in exps.items():
                    for _ in range(e):
                        acc = oracle_ideal_mul(acc, bases[key], od)
                got = prime_power_basis(P, od, exps, st)
                assert got == acc, (P, exps)
                ideal_validate(got, od)


def test_typeII_power_content(zoo3):
    od = compute_order_data(zoo3[1])
    x = Poly.x(GF3)
    J = prime_power_basis(x, od, {"p": 3})
    assert J.d == x and J.primitive_part().is_unit()
    J4 = prime_power_basis(x, od, {"p": 4})
    assert J4.d == x and J4.s == x


def _rho_cubic(od, r, M):
    return (r ** 3 - od.A * r + od.FI2) % M


def test_newton_lifts(zoo3, zoo9, monkeypatch):
    # a rho-root lift modulo a product of powers of two or three class I
    # places is the CRT of the lifts at each place and a root of
    # T^3 - A*T + F*I^2 there; a start that is already a root costs no
    # inverse, and a start that is no root at one prime raises
    inverses = []
    real = places.invmod
    monkeypatch.setattr(places, "invmod",
                        lambda f, m: inverses.append(m) or real(f, m))
    rng = seeded(131)
    lifts = rejected = 0
    for c in zoo3 + zoo9:
        od = compute_order_data(c)
        roots = {}
        for P in monic_irreducibles(od.ctx, 2 if od.ctx.m == 1 else 1):
            rs = [p.root for p in split_finite(P, od).primes
                  if p.root is not None]
            if rs:
                roots[P] = rs
        for n in (2, 3):
            if len(roots) < n:
                continue
            for _ in range(4):
                picks = [(P, rng.choice(roots[P]), rng.choice((1, 2, 3, 5)))
                         for P in rng.sample(sorted(roots, key=str), n)]
                M = Poly.one(od.ctx)
                for P, _, k in picks:
                    M = M * P ** k
                start = crt_fold([(r0, P) for P, r0, _ in picks])
                r = lift_rho_root(od, start, M)
                want = crt_fold([(lift_rho_root(od, r0, P ** k), P ** k)
                                 for P, r0, k in picks])
                assert r == want and _rho_cubic(od, r, M).is_zero()
                lifts += 1
                inverses.clear()
                assert lift_rho_root(od, r, M) == r
                for P, r0, _ in picks:
                    assert lift_rho_root(od, r0, P) == r0 % P
                assert not inverses
                # a start that is no root at one place (a completely split
                # place of degree 1 has none)
                x = Poly.x(od.ctx)
                for i, (P, _, _) in enumerate(picks):
                    bad = [t for t in (Poly.const(od.ctx, a) + b
                                       for a in range(od.ctx.q)
                                       for b in (Poly.zero(od.ctx), x))
                           if not _rho_cubic(od, t, P).is_zero()]
                    if bad:
                        break
                else:
                    continue
                start = crt_fold([(bad[0] if j == i else r0, Q)
                                  for j, (Q, r0, _) in enumerate(picks)])
                with pytest.raises(InvariantError):
                    lift_rho_root(od, start, M)
                rejected += 1
    assert lifts >= 16 and rejected >= 8


def test_local_exponents_reads_ramified_places_only(zoo3):
    # ideal arithmetic reads exponents at the primes of A only; an
    # unramified splitting is a domain error
    tags = set()
    for c in zoo3:
        od = compute_order_data(c)
        for P in monic_irreducibles(GF3, 2):
            st = split_finite(P, od)
            if (od.A % P).is_zero():
                continue
            tags.add(st.tag)
            J = prime_power_basis(P, od, {st.primes[0].key: 1}, st)
            with pytest.raises(DomainError):
                local_exponents(P, st, J.primitive_part())
    assert tags == {SplitTag.INERT, SplitTag.PARTIALLY_SPLIT,
                    SplitTag.COMPLETELY_SPLIT}


# The GF(9) curve of the benchmark's ideal triples with a class IV place
# (`IDEAL_CURVES` in bench/sections.py), standard form, codes constant term
# first.
GF9_IV_CURVE = ([0, 3, 7], [6, 1, 5, 4, 6])


def test_local_exponents_read_back_every_shape(zoo3, gf9):
    # above a ramified P every primitive part is p^a, or, at a class IV
    # place (P) = p q^2, one of p^a, q^b and p^a q; the reader returns the
    # exponents the ideal was built from, alone, in a CRT product with a
    # class I prime, and in CRT products with the small shapes above
    # another ramified place of the curve, the ties s = P included
    A, B = GF9_IV_CURVE
    curves = zoo3 + [Curve(Poly(gf9, A), Poly(gf9, B))]
    rows = (ramified_places(curves, SplitTag.TOTALLY_RAMIFIED)
            + ramified_places(curves, SplitTag.PARTIALLY_RAMIFIED))
    tags = {(st.tag, st.index_divides) for _, _, st in rows}
    assert len(tags) == 3 and any(c.ctx is gf9 for c, _, _ in rows)
    reads = far_reads = 0
    for c, P, st in rows:
        od = compute_order_data(c)
        Q, key = next((Q, p.key) for Q in monic_irreducibles(od.ctx, 2)
                      if not (od.A % Q).is_zero()
                      for p in split_finite(Q, od).primes if p.f == 1)
        other = prime_basis(Q, split_finite(Q, od), key, od)
        far = [prime_power_basis(P2, od, exps, st2).primitive_part()
               for c2, P2, st2 in rows if c2 is c and P2 != P
               for exps in _local_shapes(st2, 2)]
        for exps in _local_shapes(st, 6):
            m = min(exps[p.key] // p.e for p in st.primes)
            want = {p.key: exps[p.key] - m * p.e for p in st.primes}
            J = prime_power_basis(P, od, exps, st).primitive_part()
            assert local_exponents(P, st, J) == want, (P, exps)
            mixed = ideal_mul_coprime(J, other)
            assert local_exponents(P, st, mixed) == want, (P, exps)
            reads += 2
            for K in far:
                for L in (ideal_mul_coprime(J, K),
                          ideal_mul_coprime(mixed, K)):
                    assert local_exponents(P, st, L) == want, (P, exps, K)
                    far_reads += 1
    assert reads >= 150 and far_reads >= 100


def _local_shapes(st, top):
    """The exponents of the primitive parts above a ramified place: p^a for
    1 <= a <= top, or p^a, q^b and p^a q with a, b <= top, not both 0."""
    if st.tag is SplitTag.TOTALLY_RAMIFIED:
        return [{"p": a} for a in range(1, top + 1)]
    return [{"p": a, "q": b} for a in range(top + 1) for b in range(top + 1)
            if a + b and (a == 0 or b <= 1)]


def test_prime_power_norms(zoo3):
    for c in zoo3:
        od = compute_order_data(c)
        x = Poly.x(GF3)
        st = split_finite(x, od)
        for pr in st.primes:
            if pr.f == 3:
                continue
            b = prime_basis(x, st, pr.key, od)
            full = ideal_norm(b)
            assert full == x ** pr.f, (c.A, pr.key)


@pytest.mark.parametrize("field", ["gf243", "gf729"])
def test_split_agrees_with_oracle_large_residue_fields(request, field):
    # degree-1 places over GF(3^5) and GF(3^6): residue fields of 243 and
    # 729 elements, which the oracle still enumerates
    F = request.getfixturevalue(field)
    rng = seeded(53)
    x = Poly.x(F)
    for _ in range(3):
        od = compute_order_data(random_standard_curve(rng, F))
        for _ in range(20):
            P = x - Poly.const(F, rng.randrange(F.q))
            assert split_finite(P, od) == oracle_split(P, od)


def test_split_tag_agrees_with_discriminant_valuation(zoo3, zoo9):
    # split_finite reads ramification off A mod P; here v_P(Delta) and
    # v_P(I) are taken directly, at every place of degree <= 2
    for zoo in (zoo3, zoo9):
        for c in zoo:
            od = compute_order_data(c)
            for P in monic_irreducibles(od.ctx, 2):
                st = split_finite(P, od)
                v = valuation(od.delta, P)
                if v > 2:
                    assert st.tag is SplitTag.TOTALLY_RAMIFIED
                    assert st.index_divides == (valuation(od.I, P) == 1)
                elif v == 1:
                    assert st.tag is SplitTag.PARTIALLY_RAMIFIED
                else:
                    assert v == 0 and st.tag in (
                        SplitTag.INERT, SplitTag.PARTIALLY_SPLIT,
                        SplitTag.COMPLETELY_SPLIT)


def test_splitting_records_are_slotted_values(gf3, zoo3):
    x, one = Poly.x(gf3), Poly.one(gf3)
    od = compute_order_data(Curve(one, x))
    assert split_finite(x - one, od) is INERT
    st = split_finite(x, od)
    p = st.primes[0]
    assert not hasattr(st, "__dict__") and not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.tag = SplitTag.INERT
    q = dataclasses.replace(p, key="p9")
    assert q != p and dataclasses.replace(q, key=p.key) == p
    assert hash(dataclasses.replace(q, key=p.key)) == hash(p)
    st2 = dataclasses.replace(st, index_divides=True)
    assert st2 != st and dataclasses.replace(st2, index_divides=False) == st
    assert hash(dataclasses.replace(st2, index_divides=False)) == hash(st)
    with pytest.raises(InvariantError):
        dataclasses.replace(st, primes=st.primes[:2])
    shared = (INERT, TOTALLY_RAMIFIED, TOTALLY_RAMIFIED_AT_INDEX,
              PARTIALLY_RAMIFIED)
    for got in shared + (st,):
        back = pickle.loads(pickle.dumps(got))
        assert back == got and hash(back) == hash(got)
    assert INERT == SplittingType(SplitTag.INERT, (PrimeAbove(1, 3, "inert"),))
    # OrderData pickles with its infinite splitting, shared or not
    for c in zoo3:
        od = compute_order_data(c)
        back = pickle.loads(pickle.dumps(od))
        assert back == od and back.infinite == od.infinite


def test_split_rejects_reducible_place(s13):
    od = s13["od"]
    x = Poly.x(od.ctx)
    with pytest.raises(DomainError):
        split_finite(x * x, od)


def test_split_rejects_reducible_place_dividing_A(ram3):
    # x^2 + x = x (x + 1) divides A = 2x^2 + 2x on ram3 C1, so split_finite
    # proves irreducibility itself; x^2 is prime to A, so the residue solve
    # proves it
    _, od = ram3[0]
    x = Poly.x(od.ctx)
    assert (od.A % (x * x + x)).is_zero() and not (od.A % (x * x)).is_zero()
    for P in (x * x + x, x * x):
        with pytest.raises(DomainError):
            split_finite(P, od)


def test_split_finite_proves_irreducibility_once(ram3, monkeypatch):
    # one is_irreducible call per split: by the residue solve at a place
    # prime to A, by split_finite at a place dividing A
    calls = []
    real = polyring.is_irreducible

    def spy(P):
        calls.append(P)
        return real(P)

    monkeypatch.setattr(polyring, "is_irreducible", spy)
    monkeypatch.setattr(places, "is_irreducible", spy)
    _, od = ram3[0]
    F = od.ctx
    x, one = Poly.x(F), Poly.one(F)
    unramified = (SplitTag.INERT, SplitTag.PARTIALLY_SPLIT,
                  SplitTag.COMPLETELY_SPLIT)
    for P, ramified in ((x - one, False), (x * x + one, False),
                        (x * x + x - one, False), (x, True), (x + one, True)):
        calls.clear()
        st = split_finite.__wrapped__(P, od)
        assert (st.tag not in unramified) == ramified, P
        assert calls == [P], P


# --- Newton lifting and the per-curve memo at ramified places ---


def ref_lift_omega(od, P, z0, k):
    """The per-step Newton loop: a full-precision inverse of the derivative
    at every step, until z is a root mod P^k."""
    Pk = P ** k
    z = z0 % Pk
    while True:
        val = (z * z * z + od.E * z * z - od.F2I) % Pk
        if val.is_zero():
            return z
        z = (z - val * invmod((-(od.E * z)) % Pk, Pk)) % Pk


def ramified_places(zoo, tag):
    """(curve, place, splitting) for every place of the given tag that
    divides delta on a curve of the zoo."""
    out = []
    for c in zoo:
        od = compute_order_data(c)
        for P, _ in factor(od.delta) if od.delta.deg >= 1 else ():
            st = split_finite(P, od)
            if st.tag is tag:
                out.append((c, P, st))
    return out


def test_typeIV_roots_match_per_step_newton(zoo3, zoo9):
    # at a split-ramified place the memo's omega is the root of the omega
    # cubic above -E, its rho is -F*I/omega, rho = P*S and 1/(I/P) inverts
    # I/P, at every precision k, from a fresh memo and from a memo holding
    # a lower or a higher precision
    rows = ramified_places(zoo3 + zoo9, SplitTag.PARTIALLY_RAMIFIED)
    assert len(rows) >= 4
    for c, P, _ in rows:
        od = compute_order_data(c)
        ip = exact_div(od.I, P)
        ref = {k: ref_lift_omega(od, P, (-od.E) % P, k) for k in range(1, 13)}
        for k in range(1, 13):
            Pk = P ** k
            rho = (-(od.FI * invmod(ref[k], Pk))) % Pk
            for K in (None, 1, 2, 3, 5, 8, 12):
                od.ramified.clear()
                if K is not None:
                    places._typeIV_roots(od, P, K)
                S, ivp, r, z = places._typeIV_roots(od, P, k)
                assert (z, r) == (ref[k], rho), (P, K, k)
                assert r == (P * S) % Pk and S.deg < Pk.deg
                assert (ivp * ip % Pk).is_one() and ivp.deg < Pk.deg
                assert od.ramified[P][0] == max(k, K or 0)


def _exponent_vectors(st, e):
    if st.tag is SplitTag.TOTALLY_RAMIFIED:
        return [{"p": e}]
    return [{"p": e, "q": 0}, {"p": 0, "q": e}, {"p": e, "q": 1},
            {"p": 1, "q": e}]


def _local_reads(c, places, exps_order):
    """Bases and local exponents of their primitive parts, on one fresh
    OrderData, at every place for every exponent in the given order."""
    od = compute_order_data(c)
    out = {}
    for e in exps_order:
        for P, st in places:
            for exps in _exponent_vectors(st, e):
                J = prime_power_basis(P, od, exps, st)
                got = local_exponents(P, st, J.primitive_part())
                out[(P, e, tuple(sorted(exps.items())))] = (J, got)
    return out


def test_ramified_memo_order_independent(zoo3, zoo9):
    # a stored root reduced to a lower precision, or lifted further, gives
    # what a fresh lift gives, whichever precision came first
    rows = (ramified_places(zoo3 + zoo9, SplitTag.TOTALLY_RAMIFIED)
            + ramified_places(zoo3 + zoo9, SplitTag.PARTIALLY_RAMIFIED))
    by_curve = {}
    for c, P, st in rows:
        if st.tag is SplitTag.PARTIALLY_RAMIFIED or not st.index_divides:
            by_curve.setdefault(c, []).append((P, st))
    assert any(len(v) >= 2 for v in by_curve.values())
    for c, places in by_curve.items():
        up = _local_reads(c, places, range(1, 9))
        assert _local_reads(c, places, range(8, 0, -1)) == up
        for P, st in places:
            for e in range(1, 9):
                for key, want in _local_reads(c, [(P, st)], [e]).items():
                    assert up[key] == want


def _chain(od, pool, seed, steps):
    rng = random.Random(seed)
    D = pool[0]
    out = []
    for _ in range(steps):
        D = comp_red(D, pool[rng.randrange(len(pool))], od)
        out.append(D)
    return out


def test_ramified_memo_bounded_by_delta(ram3):
    for c, _ in ram3:
        od = compute_order_data(c)
        _chain(od, prime_pool(od, 2), 5, 60)
        primes = [P for P, _ in factor(od.delta)]
        assert od.ramified, "the chain never met a ramified place"
        assert len(od.ramified) <= len(primes)
        assert all(P in primes for P in od.ramified)


def test_ramified_memo_outside_identity_and_pickled(ram3):
    c, _ = ram3[0]
    od, od2 = compute_order_data(c), compute_order_data(c)
    pool = prime_pool(od, 2)
    want = _chain(od, pool, 11, 20)
    assert od.ramified and not od2.__dict__.get("ramified")
    assert od == od2 and hash(od) == hash(od2)
    od3 = pickle.loads(pickle.dumps(od))
    assert od3 == od and od3.ramified.keys() == od.ramified.keys()
    assert _chain(od3, pool, 11, 20) == want
    assert _chain(od2, pool, 11, 20) == want
