"""Canonical outputs pinned by digest: seeded comp_red chains, the
splittings and prime-power bases of every place of degree <= 2 on the GF(3)
curve zoo, and products, inverses, quotients and type factors of seeded
ideal pairs on the GF(3) and GF(9) zoos, and the splittings of every
GF(27) place of degree <= 2 on three seeded curves and of seeded F_3^10
places of degree 1-3 on the worked-example curve.  Every result is rendered
with repr, one per line, and hashed with SHA-256.  The chain_s13,
chain_dist3 and split_zoo3 constants were computed before the F_q[x] layer
was reduced to one code path per operation, split_gf27 and split_f3_10
before the residue solve built its matrix from field codes, the others
before the ramified classes moved to one exponent rule; so any change of a
canonical ideal, a splitting or a prime key shows here."""

import hashlib

from cubicff.polyring import Poly, is_irreducible
from cubicff.order import compute_order_data
from cubicff.places import (
    SplitTag,
    prime_basis,
    prime_power_basis,
    split_finite,
)
from cubicff.classgroup import comp_red
from cubicff.idealarith import (
    ideal_divide,
    ideal_divide_nonprimitive,
    ideal_invert,
    ideal_mul,
    type_factor,
)
from cubicff.oracle import oracle_ideal_mul

from conftest import monic_irreducibles, rand_ideal, seeded
from test_acceptance import random_standard_curve

DIGESTS = {
    "chain_s13": "0a5ee035c7583ec5396b9cfd21af96847195302f1aa31709bc51c04f1993b3df",
    "chain_dist3": "aa6e89dde5b3a1e4fa0512f297f4077375dde4685402c957659bdf41c509745e",
    "split_zoo3": "b02d515883704de6a339d6a9b54cae1e5b142754fc541bb5ae8bc10a88e6a24d",
    "chain_c1": "5ddda47808411e7848c0435e71b5426888c9111c2fd00db5edaaf740dc109681",
    "chain_c2": "8b0e5548a2c8f53a58d3ce9f326e0022248922146b9d859d756a4adeb717c0db",
    "ideal_ops_zoo3": "210c6e5cc524bbecc072116aef77605011b6ab6bdb227755e7527024aac1646e",
    "ideal_ops_zoo9": "0f0294c64f05e29c48c7cccbcd337ad47abd54b21edc8454b8425cb6adc218df",
    "split_gf27": "fe3f3bc130a14ac519c8afafc6c583810e70c869c42d17ec071224deaa4f636c",
    "split_f3_10": "40c0e29f34fac07171c7bc4b4202e25123ed42c7a6760ef02fd2f36a894c91e4",
}


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def chain(od, places, seed, steps):
    """reprs of `steps` comp_red results, each step composing the running
    divisor with a residue-degree-1 prime drawn from the pool above
    `places`."""
    pool = []
    for P in places:
        st = split_finite(P, od)
        pool += [prime_basis(P, st, p.key, od) for p in st.primes if p.f == 1]
    rng = seeded(seed)
    D = pool[0]
    out = []
    for _ in range(steps):
        D = comp_red(D, pool[rng.randrange(len(pool))], od)
        out.append(repr(D))
    return out


def ideal_ops(zoo, seed, pairs):
    """reprs of the product, the inverse, the quotients and the type factors
    of `pairs` seeded ideal pairs on each curve of `zoo`.  Each ideal is a
    random one times a random power product of the primes above a ramified
    place of degree 1 (the oracle multiplies), so that the pairs meet at
    ramified places."""
    rng = seeded(seed)
    out = []
    for c in zoo:
        od = compute_order_data(c)
        ramified = [(P, st) for P, st in (
            (P, split_finite(P, od)) for P in monic_irreducibles(od.ctx, 1))
            if st.tag in (SplitTag.TOTALLY_RAMIFIED,
                          SplitTag.PARTIALLY_RAMIFIED)]

        def draw():
            J = rand_ideal(rng, od, cap=4)
            if not ramified:
                return J
            P, st = ramified[rng.randrange(len(ramified))]
            local = prime_power_basis(
                P, od, {p.key: rng.randrange(3) for p in st.primes}, st)
            return oracle_ideal_mul(J, local, od).primitive_part()

        for _ in range(pairs):
            J1, J2 = draw(), draw()
            D, P3 = ideal_mul(J1, J2, od)
            out += [repr(D), repr(P3), repr(ideal_invert(J1, od)),
                    repr(type_factor(J1, od))]
            if D.is_one():
                out.append(repr(ideal_divide(P3, J2, od)))
            out.append(repr(ideal_divide_nonprimitive(D, P3, J1, od)))
            out.append(repr(ideal_divide_nonprimitive(
                (J2.s * D).monic(), P3, J2, od)))
    return out


def random_places(F, deg, count, rng):
    """`count` distinct seeded monic irreducibles of degree `deg`."""
    out = []
    while len(out) < count:
        P = Poly(F, [rng.randrange(F.q) for _ in range(deg)] + [1])
        if P not in out and is_irreducible(P):
            out.append(P)
    return out


def test_canonical_outputs(s13, dist3, zoo3, zoo9, ram3, gf27):
    got = {}
    od = s13["od"]
    F = od.ctx
    x = Poly.x(F)
    rng = seeded(89)
    places = []
    while len(places) < 6:
        P = x - Poly.const(F, rng.randrange(F.q))
        if P not in places and any(
                p.f == 1 for p in split_finite(P, od).primes):
            places.append(P)
    got["chain_s13"] = digest(chain(od, places, 97, 40))

    _, od = dist3
    got["chain_dist3"] = digest(chain(od, monic_irreducibles(od.ctx, 2), 101, 40))

    lines = []
    for c in zoo3:
        od = compute_order_data(c)
        for P in monic_irreducibles(od.ctx, 2):
            st = split_finite(P, od)
            lines.append(repr(st))
            keys = [p.key for p in st.primes]
            for key in keys:
                for i in range(1, 5):
                    lines.append(repr(prime_power_basis(P, od, {key: i}, st)))
            joint = {key: 1 + k for k, key in enumerate(keys)}
            lines.append(repr(prime_power_basis(P, od, joint, st)))
    got["split_zoo3"] = digest(lines)

    for name, (_, od), seed in zip(("chain_c1", "chain_c2"), ram3, (103, 107)):
        got[name] = digest(chain(od, monic_irreducibles(od.ctx, 2), seed, 40))
    got["ideal_ops_zoo3"] = digest(ideal_ops(zoo3, 109, 8))
    got["ideal_ops_zoo9"] = digest(ideal_ops(zoo9, 113, 6))

    rng = seeded(127)
    places = monic_irreducibles(gf27, 2)
    lines = []
    for _ in range(3):
        od = compute_order_data(random_standard_curve(rng, gf27))
        lines += [repr(split_finite(P, od)) for P in places]
    got["split_gf27"] = digest(lines)
    od = s13["od"]
    rng = seeded(131)
    places = [P for d in (1, 2, 3) for P in random_places(od.ctx, d, 6, rng)]
    got["split_f3_10"] = digest([repr(split_finite(P, od)) for P in places])
    assert got == DIGESTS
