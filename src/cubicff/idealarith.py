"""Ideal arithmetic in canonical triangular form.

Operations dispatch on the four prime classes of the underlying place:

  type I    unramified
  type II   totally ramified, prime to the index
  type III  totally ramified, dividing the index
  type IV   split ramified

Mixed-support ideals are first split into their four homogeneous parts
(`type_factor`); the parts are processed by the per-class rules and
recombined by the coprime CRT multiplication.  Inversion always returns the
primitive ideal <s> * J^(-1).

An ideal's support, the primes of s with the splitting of their places, is
found once by `_support`, the one caller of `factor` here, and every class
dispatch reads it.  The parts, and the products and inverses built from
them, record their primes (`Ideal.primes`), which `_support` divides out
before it factors the rest; so `comp_red` factors no polynomial twice, and
<alpha> only outside the inverse's primes (a cofactor of degree at most g).

Class I multiplication follows the global formulas (gcd extraction of the
non-primitive mass, a CRT lift for the rho-line, and an incremental xgcd over
the omega coefficients of basis cross products to land the third basis
element).  Class II and IV products are assembled prime by prime from the
local power bases in `places`; the global closed forms for these classes
couple their congruences in ways that do not survive mixed local shapes, and
the prime-by-prime route is exactly how their correctness proofs proceed.

Every k-lift and congruence solve is verified on the spot (norm divisibility
of the rho-line, exact divisibility before divisions); a failure raises
InvariantError rather than returning a plausible-looking ideal.
"""

from dataclasses import replace

from .errors import DomainError, InvariantError
from .ideals import (
    Ideal,
    divides,
    ideal_contains,
    ideal_norm,
    make_ideal,
    principal_ideal,
    unit_ideal,
)
from .order import element_mul as _emul
from .places import (
    SplitTag,
    _basis_from_exponents,
    basis_typeII_power,
    basis_typeIV_power,
    local_exponents,
    split_finite,
)
from .polyring import (
    Poly,
    crt,
    crt2_general,
    exact_div,
    factor,
    g_or,
    gcd_many,
    invmod,
    valuation,
    xgcd,
)

__all__ = [
    "Ideal",
    "ideal_norm",
    "ideal_contains",
    "type_factor",
    "ideal_invert",
    "ideal_split_conjugate",
    "ideal_divide",
    "ideal_divide_nonprimitive",
    "ideal_mul_coprime",
    "ideal_mul_primitive",
    "ideal_mul",
    "unit_ideal",
    "principal_ideal",
]

_T12, _T3, _T4 = 0, 1, 2


def _support(f, od, known=()):
    """[(P, split_finite(P, od))] over the primes P of f, in (deg, c) order.

    The `known` primes are tried first by division; only the cofactor they
    leave reaches `factor`, so a support known in full is never factored
    again and one known in part costs the factoring of the rest."""
    primes = []
    for P in known:
        q, r = divmod(f, P)
        if r.is_zero():
            primes.append(P)
            while r.is_zero():
                f = q
                q, r = divmod(f, P)
    if f.deg >= 1:
        primes.extend(P for P, _ in factor(f))
    primes.sort(key=lambda P: (P.deg, P.c))
    return [(P, split_finite(P, od)) for P in primes]


def _primes_by_group(f, od, known=()):
    """The primes of f in three lists, for the class I/II, III and IV
    rules."""
    groups = ([], [], [])
    for P, st in _support(f, od, known):
        if st.tag is SplitTag.TOTALLY_RAMIFIED:
            groups[_T3 if st.index_divides else _T12].append(P)
        else:
            groups[_T4 if st.tag is SplitTag.PARTIALLY_RAMIFIED else _T12].append(P)
    return groups


def _power_part(f, primes):
    """The largest divisor of f whose primes are all among `primes`."""
    out = Poly.one(f.ctx)
    for P in primes:
        out = out * P ** valuation(f, P)
    return out


def _part_for_primes(J, primes):
    """Restriction of the primitive ideal J to the listed support primes,
    which it records."""
    part = make_ideal(Poly.one(J.ctx), _power_part(J.s, primes),
                      _power_part(J.sp, primes), _power_part(J.spp, primes),
                      J.u, J.w, J.v)
    return replace(part, primes=tuple(primes))


def _split_parts(J, od, known=()):
    """Split a primitive ideal into its (I+II, III, IV) homogeneous parts,
    each recording its primes; J's recorded primes and `known` are tried
    before `factor`."""
    return tuple(_part_for_primes(J, g)
                 for g in _primes_by_group(J.s, od, J.primes + tuple(known)))


def _primes_of(parts):
    return sum((p.primes for p in parts), ())


def type_factor(J, od):
    """(J1, J2, J3, J4): unramified, wild non-index, wild index, split
    ramified parts; their product (coprime CRT) reproduces J."""
    if not J.is_primitive():
        raise DomainError("type_factor expects a primitive ideal")
    p12, p3, p4 = _split_parts(J, od)
    wild = [P for P, st in _support(p12.s, od, p12.primes)
            if st.tag is SplitTag.TOTALLY_RAMIFIED]
    tame = [P for P in p12.primes if P not in wild]
    return (_part_for_primes(J, tame), _part_for_primes(J, wild), p3, p4)


# --- inversion ---


def _invert12(J, od):
    """<s> J^(-1) for ideals of class I/II shape (spp = 1)."""
    F = J.ctx
    one = Poly.one(F)
    S = J.s
    Sp = exact_div(J.s, J.sp)
    U = (-(od.I * J.w)) % J.sp if J.sp.deg >= 1 else Poly.zero(F)
    W = (-(J.u * invmod(od.I % Sp, Sp))) % Sp if Sp.deg >= 1 else Poly.zero(F)
    V = (od.E - J.v - W * od.I * J.w) % S if S.deg >= 1 else Poly.zero(F)
    return make_ideal(one, S, Sp, one, U, W, V)


def _invert3(J, od):
    F = J.ctx
    one = Poly.one(F)
    z = Poly.zero(F)
    return make_ideal(one, J.s, one, exact_div(J.s, J.spp), z, z, z)


def _invert4(J, od):
    """<s> J^(-1) for a class IV part, prime by prime: if J has local
    exponents p^i q^j and a = v_P(s), the inverse part is p^(a-i) q^(2a-j)
    (since <P> = p q^2), rebuilt from the power bases."""
    acc = unit_ideal(J.ctx)
    for P, (_, exps) in _locals_by_prime(J, od).items():
        a = valuation(J.s, P)
        i, j = a - exps["p"], 2 * a - exps["q"]
        if i < 0 or j < 0:
            raise InvariantError("class IV inversion exponents out of range")
        part = basis_typeIV_power(od, P, i, j)
        if not part.d.is_one():
            raise InvariantError("class IV inverse part is not primitive")
        if not part.is_unit():
            acc = ideal_mul_coprime(acc, part)
    return acc


def ideal_invert(J, od):
    """The primitive ideal <s> * J^(-1) (written J-bar); it records J's
    primes, among which are its own."""
    if not J.is_primitive():
        raise DomainError("ideal_invert expects a primitive ideal")
    parts = _split_parts(J, od)
    out = [inv(p, od) for p, inv in zip(parts, _INVERT) if not p.is_unit()]
    acc = out[0] if out else unit_ideal(J.ctx)
    for part in out[1:]:
        acc = ideal_mul_coprime(acc, part)
    return replace(acc, primes=_primes_of(parts))


# --- conjugate splitting identities ---


def ideal_split_conjugate(I2, I1, od):
    """I2 * I1^(-1) for the matched conjugate shapes: I2 = [s, s rho, ...]
    against I1 = [s, u + rho, v + omega] (class I/II), and the class III/IV
    analogues.  I2 must be contained in I1 and the support must be
    class-homogeneous (class III and IV shapes are indistinguishable by the
    triangular data alone, so the dispatch goes by the place class)."""
    F = I2.ctx
    one = Poly.one(F)
    z = Poly.zero(F)
    if not ideal_contains(I2, I1):
        raise DomainError("conjugate splitting needs I2 inside I1")
    if I2.is_unit() and I1.is_unit():
        return unit_ideal(F)
    if I2.s != I1.s:
        raise DomainError("conjugate splitting needs matching s")
    s = I2.s
    classes = [k for k, g in enumerate(_primes_by_group(s, od, I2.primes)) if g]
    if len(classes) != 1:
        raise DomainError("conjugate splitting needs a homogeneous class")
    cls = classes[0]
    if cls == _T3:
        # [s, rho, s omega] / [s, rho, omega] = [s, rho, omega]
        if not (I2.spp == s and I2.sp.is_one() and I1.sp.is_one()
                and I1.spp.is_one() and I2.v.is_zero() and I1.v.is_zero()):
            raise DomainError("class III splitting shape mismatch")
        return make_ideal(one, s, one, one, z, z, z)
    if cls == _T4:
        # I2 = [sp*spp, sp rho, spp(v2 + w2 rho + omega)],
        # I1 = [sp*spp, rho, v1 + omega]
        if not (I1.sp.is_one() and I1.spp.is_one() and I1.w.is_zero()
                and s == I2.sp * I2.spp):
            raise DomainError("class IV splitting shape mismatch")
        dd = g_or(I2.spp, I1.v)
        res = []
        if dd.deg >= 1:
            res.append((od.E % dd, dd))
        rest = exact_div(s, dd)
        if rest.deg >= 1:
            res.append((z, rest))
        V = crt(res) if res else z
        return make_ideal(one, s, one, one, z, z, V)
    if not (I2.spp.is_one() and I2.sp == s and I1.sp.is_one()
            and I1.spp.is_one()):
        raise DomainError("class I/II splitting shape mismatch")
    U = (od.I * I2.w - I1.u) % s
    V = (I2.v - od.I * I2.w * I2.w + I1.u * I2.w) % s
    return make_ideal(one, s, one, one, U, z, V)


# --- division ---


def _divide12(I2, I1, od):
    F = I2.ctx
    one = Poly.one(F)
    z = Poly.zero(F)
    m2 = exact_div(I2.s, I2.sp)
    m1 = exact_div(I1.s, I1.sp)
    d = gcd_many([m2, m1, I1.u - I2.u])
    S = exact_div(I2.s, I1.sp * d)
    Sp = exact_div(I2.sp * d, I1.s)
    mod1 = exact_div(m1, d)
    mod2 = exact_div(m2, d)
    r1 = (od.I * I2.w - I1.u) % mod1 if mod1.deg >= 1 else z
    r2 = I2.u % mod2 if mod2.deg >= 1 else z
    if mod1.deg >= 1 or mod2.deg >= 1:
        U, lcm = crt2_general(r1, mod1, r2, mod2)
    else:
        U, lcm = z, one
    U = _complete_rho_line(U, lcm, exact_div(S, Sp), od)
    W = I2.w % Sp if Sp.deg >= 1 else z
    V = ((W - I2.w) * U + I2.v) % S if S.deg >= 1 else z
    return make_ideal(one, S, Sp, one, U, W, V)


def _complete_rho_line(u0, known, target, od):
    """Lift u0 (correct mod `known`) to U with target | N(U + rho).

    The congruence formulas pin the rho line only up to the lcm of their
    moduli; the missing digits are recovered by Newton on
    G(T) = T^3 - A*T + F*I^2 (derivative -A), exactly the device the
    primitive-multiplication lift uses.  Only unramified prime powers can be
    missing, so the wild part of `target` (where A is not invertible) must
    already be known; that is asserted rather than assumed.
    """
    if target.deg < 1:
        return Poly.zero(od.ctx)
    if divides(target, known):
        return u0 % target
    t_wild = gcd_many([target, od.A ** max(1, target.deg)])
    t1 = exact_div(target, t_wild)
    if not divides(t_wild, known):
        raise InvariantError("wild part of the rho line is underdetermined")
    fi2 = od.FI2
    if t1.deg >= 1:
        inv = invmod((-od.A) % t1, t1)
        U = u0 % t1
        for _ in range(64):
            val = (U * U * U - od.A * U - fi2) % t1
            if val.is_zero():
                break
            U = (U - val * inv) % t1
        else:
            raise InvariantError("rho-line completion failed to converge")
        if t_wild.deg >= 1:
            U = crt([(U, t1), (u0 % t_wild, t_wild)])
    else:
        U = u0 % t_wild
    chk = (U * U * U - od.A * U - fi2) % target
    if not chk.is_zero():
        raise InvariantError("completed rho line fails the norm divisibility")
    return U % target


def _divide3(I2, I1, od):
    F = I2.ctx
    one = Poly.one(F)
    z = Poly.zero(F)
    d = g_or(exact_div(I1.s, I1.spp), exact_div(I2.s, I2.spp))
    S = exact_div(I2.s, I1.spp * d)
    Spp = exact_div(I2.spp * d, I1.s)
    return make_ideal(one, S, one, Spp, z, z, z)


def _divide4(I2, I1, od):
    """Class IV quotient, prime by prime: subtract local (p, q) exponents and
    rebuild from the split-ramified power bases."""
    acc = unit_ideal(I2.ctx)
    for P, _, e2, e1 in _local_pairs(I2, I1, od):
        i = e2["p"] - e1["p"]
        j = e2["q"] - e1["q"]
        if i < 0 or j < 0:
            raise DomainError("class IV division without containment")
        J = basis_typeIV_power(od, P, i, j)
        if not J.d.is_one():
            raise InvariantError("class IV quotient is not primitive")
        if not J.is_unit():
            acc = ideal_mul_coprime(acc, J)
    return acc


# the per-class rules, indexed like the parts of _split_parts
_DIVIDE = (_divide12, _divide3, _divide4)
_INVERT = (_invert12, _invert3, _invert4)


def ideal_divide(I2, I1, od):
    """The exact integral quotient I2 * I1^(-1); needs I2 inside I1."""
    if not (I2.is_primitive() and I1.is_primitive()):
        raise DomainError("ideal_divide expects primitive ideals")
    if not ideal_contains(I2, I1):
        raise DomainError("division needs I2 contained in I1")
    b = _split_parts(I1, od)
    a = _split_parts(I2, od, _primes_of(b))
    acc = unit_ideal(I2.ctx)
    for x, y, divide in zip(a, b, _DIVIDE):
        if not (x.is_unit() and y.is_unit()):
            acc = ideal_mul_coprime(acc, divide(x, y, od))
    return acc


def ideal_divide_nonprimitive(dd, I2, I1, od):
    """(<dd> * I2) * I1^(-1) for primitive I2, I1 with <dd> I2 inside I1.

    Returns (content, primitive ideal).  One rule serves every class: the
    primes of dd that I1 holds through sp, spp or s/(sp spp) are inverted
    out of I1 (D1, D2, D3) and the rest of dd (D4) stays content; classes
    I/II have spp = 1 and class III has sp = 1."""
    F = I2.ctx
    one = Poly.one(F)
    dd = dd.monic()
    if not (I2.is_primitive() and I1.is_primitive()):
        raise DomainError("nonprimitive division expects primitive I2, I1")
    scaled = make_ideal(dd, I2.s, I2.sp, I2.spp, I2.u, I2.w, I2.v)
    if not ideal_contains(scaled, I1):
        raise DomainError("nonprimitive division containment failed")
    b = _split_parts(I1, od)
    a = _split_parts(I2, od, _primes_of(b))
    d_groups = _primes_by_group(dd, od, _primes_of(a + b))
    content = one
    acc = unit_ideal(F)
    for x, y, dg, divide, invert in zip(a, b, d_groups, _DIVIDE, _INVERT):
        d0 = _power_part(dd, dg)
        if x.is_unit() and y.is_unit() and d0.is_one():
            continue
        D1 = g_or(y.sp, d0)
        D2 = g_or(y.spp, d0)
        D3 = g_or(exact_div(y.s, y.sp * y.spp), exact_div(d0, D1 * D2))
        D4 = exact_div(d0, D1 * D2 * D3)
        keep = make_ideal(one, exact_div(y.s, D1 * D2 * D3),
                          exact_div(y.sp, D1), exact_div(y.spp, D2),
                          y.u, y.w, y.v)
        out = make_ideal(one, D1 * D2 * D3, D1, D2, y.u, y.w, y.v)
        cm, Jm = ideal_mul(divide(x, replace(keep, primes=y.primes), od),
                           invert(replace(out, primes=y.primes), od), od)
        content = content * D4 * cm
        if not Jm.is_unit():
            acc = ideal_mul_coprime(acc, Jm)
    return content, acc


# --- multiplication ---


def ideal_mul_coprime(I1, I2):
    """CRT product for gcd(s1, s2) = 1 (contents multiply through)."""
    F = I1.ctx
    z = Poly.zero(F)
    if not g_or(I1.s, I2.s).is_one():
        raise DomainError("ideal_mul_coprime needs coprime s parts")
    s3 = I1.s * I2.s
    sp3 = I1.sp * I2.sp
    spp3 = I1.spp * I2.spp
    m1 = exact_div(I1.s, I1.sp)
    m2 = exact_div(I2.s, I2.sp)
    u3 = crt([(I1.u, m1), (I2.u, m2)]) if (m1.deg >= 1 or m2.deg >= 1) else z
    w3 = (
        crt([(I1.w, I1.sp), (I2.w, I2.sp)])
        if (I1.sp.deg >= 1 or I2.sp.deg >= 1)
        else z
    )
    k1 = exact_div(I1.s, I1.spp)
    k2 = exact_div(I2.s, I2.spp)
    v3 = (
        crt(
            [
                ((I1.v + I1.u * (w3 - I1.w)) % k1 if k1.deg >= 1 else z, k1),
                ((I2.v + I2.u * (w3 - I2.w)) % k2 if k2.deg >= 1 else z, k2),
            ]
        )
        if (k1.deg >= 1 or k2.deg >= 1)
        else z
    )
    return make_ideal(I1.d * I2.d, s3, sp3, spp3, u3, w3, v3)


def _omega_line(I1, I2, od):
    """An element v3 + w3*rho + omega of I1*I2 via the incremental xgcd over
    the omega coefficients of basis cross products.  Raises if the gcd never
    reaches 1 (the product was not primitive)."""
    e1, e2, e3 = I1.basis()
    f1, f2, f3 = I2.basis()
    pairs = ((e3, f1), (e1, f3), (e2, f2), (e2, f3), (e3, f2), (e3, f3))
    g = None
    combo = None
    for a, b in pairs:
        prod = _emul(a, b, od)
        if prod.c.is_zero():
            continue
        if g is None:
            lead = prod.c.lc()
            g = prod.c.monic()
            combo = prod.scale(Poly.const(prod.c.ctx, prod.c.ctx.inv(lead)))
        else:
            gn, sco, tco = xgcd(g, prod.c)
            if gn.deg < g.deg:
                combo = combo.scale(sco) + prod.scale(tco)
                g = gn
        if g.is_one():
            break
    if g is None or not g.is_one():
        raise InvariantError(
            "omega-coefficient gcd is not 1: product is not primitive"
        )
    return combo.a, combo.b


def _mul_primitive_12(I1, I2, od):
    """Class I/II-shape primitive product via the global gcd/CRT formulas."""
    F = I1.ctx
    one = Poly.one(F)
    z = Poly.zero(F)
    m1 = exact_div(I1.s, I1.sp)
    m2 = exact_div(I2.s, I2.sp)
    d = g_or(m1, m2)
    d1 = g_or(d, I1.u - I2.u) if d.deg >= 1 else one
    S = exact_div(I1.s * I2.s * d1, d)
    Sp = exact_div(I1.sp * I2.sp * d, d1)
    mod1 = exact_div(m1 * d1, d)
    mod2 = exact_div(m2 * d1, d)
    if mod1.deg >= 1 or mod2.deg >= 1:
        u3, lcm = crt2_general(I1.u % mod1 if mod1.deg >= 1 else z, mod1,
                               I2.u % mod2 if mod2.deg >= 1 else z, mod2)
    else:
        u3, lcm = z, one
    S_over_Sp = exact_div(S, Sp)
    if not d1.is_one():
        # Hensel lift along the rho line: S/Sp must divide N(U + rho)
        L = exact_div(S_over_Sp, d1)
        Q = exact_div(u3 * u3 * u3 - u3 * od.A - od.FI2, L)
        k = (Q * invmod(od.A % d1, d1)) % d1
        U = (u3 + k * L) % S_over_Sp
    else:
        U = u3 % S_over_Sp if S_over_Sp.deg >= 1 else z
    if S_over_Sp.deg >= 1:
        chk = (U * U * U - U * od.A - od.FI2) % S_over_Sp
        if not chk.is_zero():
            raise InvariantError("rho-line lift failed the norm divisibility")
    v3, w3 = _omega_line(I1, I2, od)
    if Sp.deg >= 1:
        c, W = divmod(w3, Sp)
    else:
        c, W = w3, z
    V = (v3 - c * Sp * U) % S if S.deg >= 1 else z
    return make_ideal(one, S, Sp, one, U, W, V)


def _mul_primitive_3(I1, I2):
    F = I1.ctx
    one = Poly.one(F)
    z = Poly.zero(F)
    d = g_or(exact_div(I1.s, I1.spp), exact_div(I2.s, I2.spp))
    return make_ideal(
        one, exact_div(I1.s * I2.s, d), one, I1.spp * I2.spp * d, z, z, z
    )


def _locals_by_prime(J, od):
    """{P: (splitting, exponents-dict)} over the support of the primitive
    ideal J."""
    return {P: (st, local_exponents(P, od, st, _part_for_primes(J, [P])))
            for P, st in _support(J.s, od, J.primes)}


def _local_pairs(I1, I2, od):
    """(P, splitting, exponents in I1, exponents in I2) over the primes of
    either ideal, in (deg, c) order."""
    loc1, loc2 = _locals_by_prime(I1, od), _locals_by_prime(I2, od)
    for P in sorted(set(loc1) | set(loc2), key=lambda p: (p.deg, p.c)):
        st = (loc1.get(P) or loc2.get(P))[0]
        zero = (st, {pr.key: 0 for pr in st.primes})
        yield P, st, loc1.get(P, zero)[1], loc2.get(P, zero)[1]


def _mul_by_primes(I1, I2, od, builder):
    """Per-prime product for class II / IV parts: read local exponents, add,
    rebuild through `builder(P, st, exps) -> Ideal-with-content`."""
    F = I1.ctx
    content = Poly.one(F)
    acc = unit_ideal(F)
    for P, st, e1, e2 in _local_pairs(I1, I2, od):
        J = builder(P, st, {k: e1[k] + e2[k] for k in e1})
        content = content * J.d
        if not J.primitive_part().is_unit():
            acc = ideal_mul_coprime(acc, J.primitive_part())
    return content, acc


def _mul4(I1, I2, od):
    """Class IV product, prime by prime from the split-ramified bases."""
    return _mul_by_primes(
        I1, I2, od, lambda P, st, e: basis_typeIV_power(od, P, e["p"], e["q"])
    )


def ideal_mul_primitive(I1, I2, od):
    """Product of two primitive ideals of one homogeneous class whose product
    is known to be primitive."""
    a, b = _split_parts(I1, od), _split_parts(I2, od)
    live = [k for k in range(3) if not (a[k].is_unit() and b[k].is_unit())]
    if len(live) > 1:
        raise DomainError("ideal_mul_primitive needs a homogeneous class")
    if not live:
        return unit_ideal(I1.ctx)
    c = live[0]
    I1, I2 = a[c], b[c]
    if c == _T3:
        return _mul_primitive_3(I1, I2)
    if c == _T4:
        cont, J = _mul4(I1, I2, od)
        if not cont.is_one():
            raise InvariantError("type IV primitive product produced content")
        return J
    # class I/II share the spp = 1 shape; wild class II primes still need the
    # cube-root local basis when both operands meet at the same P
    if _has_shared_wild(I1, I2, od):
        cont, J = _mul_by_primes(I1, I2, od, _builder_12(od))
        if not cont.is_one():
            raise InvariantError("class II primitive product produced content")
        return J
    return _mul_primitive_12(I1, I2, od)


def _has_shared_wild(I1, I2, od):
    wild = {P for P, st in _support(I1.s, od, I1.primes)
            if st.tag is SplitTag.TOTALLY_RAMIFIED}
    return any(P in wild for P, _ in _support(I2.s, od, I2.primes))


def _builder_12(od):
    def build(P, st, exps):
        if st.tag is SplitTag.TOTALLY_RAMIFIED:
            return basis_typeII_power(od, P, exps["p"])
        return _basis_from_exponents(P, od, st, exps)

    return build


def _mul_general_12(I1, I2, od):
    """Class I/II product with non-primitive mass extracted first."""
    F = I1.ctx
    one = Poly.one(F)
    if _has_shared_wild(I1, I2, od):
        return _mul_by_primes(I1, I2, od, _builder_12(od))
    D1 = gcd_many([I2.sp, exact_div(I1.s, I1.sp), I1.u + od.I * I2.w])
    D2 = gcd_many([I1.sp, exact_div(I2.s, I2.sp), I2.u + od.I * I1.w])
    g = g_or(exact_div(I1.sp, D2), exact_div(I2.sp, D1))
    D3 = exact_div(g, gcd_many([g, I1.w - I2.w]))
    I1p = make_ideal(
        one,
        exact_div(I1.s, D1 * D2 * D3),
        exact_div(I1.sp, D2 * D3),
        one,
        I1.u,
        I1.w,
        I1.v,
    )
    I2p = make_ideal(
        one,
        exact_div(I2.s, D1 * D2 * D3),
        exact_div(I2.sp, D1 * D3),
        one,
        I2.u,
        I2.w,
        I2.v,
    )
    if D3.is_one():
        Jpart = unit_ideal(F)
        cJ = one
    else:
        b1 = _invert12(make_ideal(one, D3, D3, one, I1.u, I1.w, I1.v), od)
        b2 = _invert12(make_ideal(one, D3, D3, one, I2.u, I2.w, I2.v), od)
        # bp.s divides D3^2, and D3 divides I1.sp
        bp = replace(_mul_primitive_12(b1, b2, od), primes=I1.primes)
        cJ, Jpart = ideal_divide_nonprimitive(D3, unit_ideal(F), bp, od)
    out = _mul_primitive_12(I1p, I2p, od)
    if not Jpart.is_unit():
        out = _mul_primitive_12(out, Jpart, od)
    return D1 * D2 * D3 * cJ, out


def _mul_general_3(I1, I2, od):
    F = I1.ctx
    one = Poly.one(F)
    D1 = g_or(exact_div(I1.s, I1.spp), I2.spp)
    D2 = g_or(exact_div(I2.s, I2.spp), I1.spp)
    D3 = g_or(I1.spp, I2.spp)
    I1p = make_ideal(
        one, exact_div(I1.s, D1 * D2 * D3), one,
        exact_div(I1.spp, D2 * D3), I1.u, I1.w, I1.v,
    )
    I2p = make_ideal(
        one, exact_div(I2.s, D1 * D2 * D3), one,
        exact_div(I2.spp, D1 * D3), I2.u, I2.w, I2.v,
    )
    z = Poly.zero(F)
    J = make_ideal(one, D3, one, one, z, z, z) if not D3.is_one() else unit_ideal(F)
    out = _mul_primitive_3(I1p, I2p)
    if not J.is_unit():
        out = _mul_primitive_3(out, J)
    return D1 * D2 * D3, out


def ideal_mul(I1, I2, od):
    """General product: returns (content D, primitive I3) with
    <D> * I3 = I1 * I2.  Contents of the operands pass straight through."""
    F = I1.ctx
    carried = I1.d * I2.d
    I1, I2 = I1.primitive_part(), I2.primitive_part()
    if I1.is_unit() or I2.is_unit():
        other = I2 if I1.is_unit() else I1
        return carried.monic(), other
    if g_or(I1.s, I2.s).is_one():
        return carried.monic(), ideal_mul_coprime(I1, I2)
    a = _split_parts(I1, od)
    b = _split_parts(I2, od, _primes_of(a))
    content = carried
    acc = unit_ideal(F)
    for x, y, mul in zip(a, b, (_mul_general_12, _mul_general_3, _mul4)):
        if x.is_unit() and y.is_unit():
            continue
        if g_or(x.s, y.s).is_one():
            J = ideal_mul_coprime(x, y)
        else:
            c, J = mul(x, y, od)
            content = content * c
        if not J.is_unit():
            acc = ideal_mul_coprime(acc, J)
    return content.monic(), replace(acc, primes=_primes_of(a + b))
