"""Ideal arithmetic in canonical triangular form.

The places fall into four classes:

  type I    unramified
  type II   totally ramified, prime to the index
  type III  totally ramified, dividing the index
  type IV   split ramified

and the arithmetic into two rules.  Class I ideals (spp = 1) follow the
global formulas: gcd extraction of the non-primitive mass (inverted out
by `_invert1`, so a product never divides), a CRT lift for the rho-line,
and an incremental xgcd over the omega coefficients of basis cross
products to land the third basis element.  Every ramified prime
(classes II-IV) follows one exponent rule: the local exponents x of the
operands at P (`places.local_exponents`) are combined, x1 + x2 for a
product, e*v_P(s) - x for the inverse and x2 - x1 + e*v_P(dd) for a
quotient (e the ramification index of the prime), and the ideal above P is
rebuilt from the local power bases with (P) = prod p^e peeled off as
content.  A mixed-support ideal is split into its class I and its ramified
part; the results are recombined by the coprime CRT multiplication.
Inversion always returns the primitive ideal <s> * J^(-1).

The class I rho lines of a product or quotient are pinned by congruences
up to the lcm of their moduli; the missing digits come from
`places.lift_rho_root`, the Newton lift on G(T) = T^3 - A*T + F*I^2
(derivative -A) that also builds the prime-power bases: U is a rho line mod
S/Sp exactly when -U is a root of G there.  In characteristic 3 the
discriminant of T^3 - A*T + B is A^3, so v_P(Delta) = 3 v_P(A) - 2 v_P(I)
>= 1 at every P | A: no class I prime divides A, and -A is invertible
modulo every class I modulus.

So the class I part of an ideal is the part of s prime to A, and
`_support` finds the ramified part by trial division by the primes of A
(`OrderData.A_primes`, factored once per curve): nothing here factors a
polynomial, and only ramified places are classified.

Every k-lift and congruence solve is verified on the spot (norm divisibility
of the rho-line, exact divisibility before divisions); a failure raises
InvariantError rather than returning a plausible-looking ideal.
"""

from collections import Counter

from .errors import DomainError, InvariantError
from .ideals import (
    Ideal,
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
    lift_rho_root,
    local_exponents,
    split_finite,
)
from .polyring import (
    Poly,
    crt2_general,
    exact_div,
    gcd,
    gcd_many,
    invmod,
    xgcd,
)

__all__ = [
    "Ideal",
    "ideal_norm",
    "ideal_contains",
    "type_factor",
    "ideal_invert",
    "ideal_divide",
    "ideal_divide_nonprimitive",
    "ideal_mul_coprime",
    "ideal_mul",
    "unit_ideal",
    "principal_ideal",
]


def _support(f, od):
    """(f', [(P, v_P(f), split_finite(P, od))]): the class I cofactor f' of
    f and its ramified places P, in (deg, c) order, by trial division by the
    primes of A."""
    sup = []
    for P in od.A_primes:
        e = 0
        q, r = divmod(f, P)
        while r.is_zero():
            f, e = q, e + 1
            q, r = divmod(f, P)
        if e:
            sup.append((P, e, split_finite(P, od)))
    return f, sup


def _class(st):
    """The class of a place: 1 unramified, 2 totally ramified prime to the
    index, 3 totally ramified dividing it, 4 split ramified."""
    if st.tag is SplitTag.TOTALLY_RAMIFIED:
        return 3 if st.index_divides else 2
    return 4 if st.tag is SplitTag.PARTIALLY_RAMIFIED else 1


def _part(J, s):
    """Restriction of the primitive ideal J to the primes of s, a divisor
    of J.s made of whole prime powers of it."""
    if s.is_const():
        return unit_ideal(J.ctx)
    if s == J.s:
        return J
    return make_ideal(Poly.one(J.ctx), s, gcd(J.sp, s), gcd(J.spp, s),
                      J.u, J.w, J.v)


def _split_parts(J, od):
    """(class I part, ramified part, ramified support) of the primitive
    ideal J."""
    s1, sup = _support(J.s, od)
    if not sup:
        return J, unit_ideal(J.ctx), sup
    return _part(J, s1), _part(J, _mass(sup, od)), sup


def _mass(sup, od):
    """The product of P^v_P over the entries of a support."""
    s = Poly.one(od.ctx)
    for P, e, _ in sup:
        s = s * P ** e
    return s


def type_factor(J, od):
    """(J1, J2, J3, J4): the class I, II, III and IV parts of J; their
    product (coprime CRT) reproduces J."""
    if not J.is_primitive():
        raise DomainError("type_factor expects a primitive ideal")
    s1, sup = _support(J.s, od)
    return (_part(J, s1),) + tuple(
        _part(J, _mass([t for t in sup if _class(t[2]) == k], od))
        for k in (2, 3, 4))


# --- the exponent rule at ramified primes ---


def _exponents(J, sup, od):
    """Counter of (P, prime key) -> exponent in J, over the ramified support
    `sup` of J."""
    return Counter({(P, k): x for P, _, st in sup
                    for k, x in local_exponents(P, od, st, J).items()})


def _by_exponents(od, sup, rule):
    """(content, primitive ideal): the product over the places P of the
    support `sup` of the ideal above P in which each prime p has exponent
    rule(P, p), rebuilt from the local power bases."""
    content = Poly.one(od.ctx)
    acc = unit_ideal(od.ctx)
    for P, st in {P: st for P, _, st in sup}.items():
        exps = {p.key: rule(P, p) for p in st.primes}
        if min(exps.values()) < 0:
            raise InvariantError("ramified exponent rule went negative")
        J = _basis_from_exponents(P, od, st, exps)
        content = content * J.d
        acc = ideal_mul_coprime(acc, J.primitive_part())
    return content, acc


# --- inversion ---


def _invert1(J, od):
    """<s> J^(-1) for a class I ideal (spp = 1)."""
    one = Poly.one(J.ctx)
    S = J.s
    Sp = exact_div(J.s, J.sp)
    U = (-(od.I * J.w)) % J.sp
    W = (-(J.u * invmod(od.I, Sp))) % Sp
    V = (od.E - J.v - W * od.I * J.w) % S
    return make_ideal(one, S, Sp, one, U, W, V)


def ideal_invert(J, od):
    """The primitive ideal <s> * J^(-1) (written J-bar)."""
    if not J.is_primitive():
        raise DomainError("ideal_invert expects a primitive ideal")
    unram, ram, sup = _split_parts(J, od)
    acc = unram if unram.is_unit() else _invert1(unram, od)
    if sup:
        x = _exponents(ram, sup, od)
        v = {P: e for P, e, _ in sup}
        content, inv = _by_exponents(
            od, sup, lambda P, p: p.e * v[P] - x[P, p.key])
        if not content.is_one():
            raise InvariantError("ramified inverse is not primitive")
        acc = ideal_mul_coprime(acc, inv)
    return acc


# --- division ---


def _divide1(I2, I1, od):
    """I2 * I1^(-1) for class I ideals with I2 inside I1."""
    one = Poly.one(I2.ctx)
    m2 = exact_div(I2.s, I2.sp)
    m1 = exact_div(I1.s, I1.sp)
    d = gcd_many([m2, m1, I1.u - I2.u])
    S = exact_div(I2.s, I1.sp * d)
    Sp = exact_div(I2.sp * d, I1.s)
    mod1 = exact_div(m1, d)
    mod2 = exact_div(m2, d)
    r1 = (od.I * I2.w - I1.u) % mod1
    U = crt2_general(r1, mod1, I2.u % mod2, mod2)[0]
    # the congruences pin the rho line mod their lcm; Newton on
    # G(T) = T^3 - A*T + F*I^2 at -U recovers the rest of S/Sp
    S_over_Sp = exact_div(S, Sp)
    U = (-lift_rho_root(od, -U, S_over_Sp)) % S_over_Sp
    W = I2.w % Sp
    V = ((W - I2.w) * U + I2.v) % S
    return make_ideal(one, S, Sp, one, U, W, V)


def ideal_divide(I2, I1, od):
    """The exact integral quotient I2 * I1^(-1); needs I2 inside I1."""
    return ideal_divide_nonprimitive(Poly.one(I2.ctx), I2, I1, od)[1]


def ideal_divide_nonprimitive(dd, I2, I1, od):
    """(<dd> * I2) * I1^(-1) for primitive I2, I1 with <dd> I2 inside I1.

    Returns (content, primitive ideal).  At the ramified primes the local
    exponents give x2 - x1 + e*v_P(dd).  At the class I primes (spp = 1) the
    primes of dd that I1 holds through sp or s/sp are inverted out of I1
    (D1, D3) and the rest of dd (D4) stays content."""
    F = I2.ctx
    one = Poly.one(F)
    dd = dd.monic()
    if not (I2.is_primitive() and I1.is_primitive()):
        raise DomainError("division expects primitive I2, I1")
    scaled = make_ideal(dd, I2.s, I2.sp, I2.spp, I2.u, I2.w, I2.v)
    if not ideal_contains(scaled, I1):
        raise DomainError("division needs <dd> I2 inside I1")
    y, r1, sup1 = _split_parts(I1, od)
    x, r2, sup2 = _split_parts(I2, od)
    d0, d_ram = _support(dd, od)
    content = one
    acc = unit_ideal(F)
    if not (x.is_unit() and y.is_unit() and d0.is_one()):
        D1 = gcd(y.sp, d0)
        D3 = gcd(exact_div(y.s, y.sp), exact_div(d0, D1))
        D4 = exact_div(d0, D1 * D3)
        keep = make_ideal(one, exact_div(y.s, D1 * D3), exact_div(y.sp, D1),
                          one, y.u, y.w, y.v)
        out = make_ideal(one, D1 * D3, D1, one, y.u, y.w, y.v)
        cm, acc = ideal_mul(_divide1(x, keep, od), _invert1(out, od), od)
        content = D4 * cm
    if sup1 or sup2 or d_ram:
        x1, x2 = _exponents(r1, sup1, od), _exponents(r2, sup2, od)
        v = Counter({P: e for P, e, _ in d_ram})
        cr, quo = _by_exponents(
            od, sup1 + sup2 + d_ram,
            lambda P, p: x2[P, p.key] - x1[P, p.key] + p.e * v[P])
        content = content * cr
        acc = ideal_mul_coprime(acc, quo)
    return content, acc


# --- multiplication ---


def ideal_mul_coprime(I1, I2):
    """CRT product for gcd(s1, s2) = 1 (contents multiply through)."""
    a = _coprime_inverse(I1.s, I2.s)
    if a is None:
        raise DomainError("ideal_mul_coprime needs coprime s parts")
    return _mul_coprime(I1, I2, a)


def _coprime_inverse(s1, s2):
    """a with a * s1 = 1 mod s2, or None when s1 and s2 share a factor."""
    g, a, _ = xgcd(s1, s2)
    return a if g.is_one() else None


def _crt(r1, m1, r2, m2, c):
    """x mod m1*m2 with x = r1 mod m1 and x = r2 mod m2, given c*m1 = 1
    mod m2."""
    return (r1 + m1 * ((r2 - r1) * c % m2)) % (m1 * m2)


def _mul_coprime(I1, I2, a):
    """The CRT product, with a * s1 = 1 mod s2 from the coprimality test:
    for m1 | s1 and m2 | s2, a * (s1/m1) inverts m1 modulo m2, so the three
    CRTs need no gcd of their own."""
    if I1.is_unit():
        return I2
    if I2.is_unit():
        return I1
    m1, m2 = exact_div(I1.s, I1.sp), exact_div(I2.s, I2.sp)
    u3 = _crt(I1.u, m1, I2.u, m2, a * I1.sp)
    w3 = _crt(I1.w, I1.sp, I2.w, I2.sp, a * m1)
    k1, k2 = exact_div(I1.s, I1.spp), exact_div(I2.s, I2.spp)
    v3 = _crt(I1.v + I1.u * (w3 - I1.w), k1,
              I2.v + I2.u * (w3 - I2.w), k2, a * I1.spp)
    return make_ideal(I1.d * I2.d, I1.s * I2.s, I1.sp * I2.sp,
                      I1.spp * I2.spp, u3, w3, v3)


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


def _mul_primitive_1(I1, I2, od):
    """Class I primitive product via the global gcd/CRT formulas."""
    one = Poly.one(I1.ctx)
    m1 = exact_div(I1.s, I1.sp)
    m2 = exact_div(I2.s, I2.sp)
    d = gcd(m1, m2)
    d1 = gcd(d, I1.u - I2.u)
    S = exact_div(I1.s * I2.s * d1, d)
    Sp = exact_div(I1.sp * I2.sp * d, d1)
    mod1 = exact_div(m1 * d1, d)
    mod2 = exact_div(m2 * d1, d)
    u3 = crt2_general(I1.u % mod1, mod1, I2.u % mod2, mod2)[0]
    # S/Sp divides N(U + rho) = -G(-U): Newton supplies the digits at d1
    S_over_Sp = exact_div(S, Sp)
    U = (-lift_rho_root(od, -u3, S_over_Sp)) % S_over_Sp
    v3, w3 = _omega_line(I1, I2, od)
    c, W = divmod(w3, Sp)
    V = (v3 - c * Sp * U) % S
    return make_ideal(one, S, Sp, one, U, W, V)


def _mul_general_1(I1, I2, od):
    """Class I product with non-primitive mass extracted first."""
    F = I1.ctx
    one = Poly.one(F)
    D1 = gcd_many([I2.sp, exact_div(I1.s, I1.sp), I1.u + od.I * I2.w])
    D2 = gcd_many([I1.sp, exact_div(I2.s, I2.sp), I2.u + od.I * I1.w])
    g = gcd(exact_div(I1.sp, D2), exact_div(I2.sp, D1))
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
        b1 = _invert1(make_ideal(one, D3, D3, one, I1.u, I1.w, I1.v), od)
        b2 = _invert1(make_ideal(one, D3, D3, one, I2.u, I2.w, I2.v), od)
        # <D3> lies in bp, so <D3> bp^-1 = <D3 / s> * <s> bp^-1, s = bp.s
        bp = _mul_primitive_1(b1, b2, od)
        cJ, Jpart = exact_div(D3, bp.s), _invert1(bp, od)
    out = _mul_primitive_1(I1p, I2p, od)
    if not Jpart.is_unit():
        out = _mul_primitive_1(out, Jpart, od)
    return D1 * D2 * D3 * cJ, out


def ideal_mul(I1, I2, od):
    """General product: returns (content D, primitive I3) with
    <D> * I3 = I1 * I2.  Contents of the operands pass straight through."""
    carried = I1.d * I2.d
    I1, I2 = I1.primitive_part(), I2.primitive_part()
    a = _coprime_inverse(I1.s, I2.s)
    if a is not None:
        return carried.monic(), _mul_coprime(I1, I2, a)
    t1, r1, sup1 = _split_parts(I1, od)
    t2, r2, sup2 = _split_parts(I2, od)
    content = carried
    a = _coprime_inverse(t1.s, t2.s)
    if a is not None:
        acc = _mul_coprime(t1, t2, a)
    else:
        c, acc = _mul_general_1(t1, t2, od)
        content = content * c
    a = _coprime_inverse(r1.s, r2.s)
    if a is not None:
        ram = _mul_coprime(r1, r2, a)
    else:
        x1, x2 = _exponents(r1, sup1, od), _exponents(r2, sup2, od)
        c, ram = _by_exponents(od, sup1 + sup2,
                               lambda P, p: x1[P, p.key] + x2[P, p.key])
        content = content * c
    return content.monic(), ideal_mul_coprime(acc, ram)
