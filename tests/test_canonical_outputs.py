"""Canonical outputs pinned by digest: two seeded comp_red chains and the
splittings and prime-power bases of every place of degree <= 2 on the GF(3)
curve zoo.  Every result is rendered with repr, one per line, and hashed
with SHA-256; the constants below were computed before the F_q[x] layer was
reduced to one code path per operation, so any change of a canonical
ideal, a splitting or a prime key shows here."""

import hashlib

from cubicff.polyring import Poly
from cubicff.order import compute_order_data
from cubicff.places import prime_basis, prime_power_basis, split_finite
from cubicff.classgroup import comp_red

from conftest import seeded
from test_places import monic_irreducibles

DIGESTS = {
    "chain_s13": "0a5ee035c7583ec5396b9cfd21af96847195302f1aa31709bc51c04f1993b3df",
    "chain_dist3": "aa6e89dde5b3a1e4fa0512f297f4077375dde4685402c957659bdf41c509745e",
    "split_zoo3": "b02d515883704de6a339d6a9b54cae1e5b142754fc541bb5ae8bc10a88e6a24d",
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


def test_canonical_outputs(s13, dist3, zoo3):
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
    assert got == DIGESTS
