"""Command-line front end.

Curve files are line-oriented with '#' comments:

    characteristic 3
    extension 10
    modulus 2 1 0 0 2 2 2 0 0 0 1
    A 1
    B (0,1) 0 0 0 1

A polynomial is a space-separated list of coefficients, constant term first;
a coefficient is a digit (prime field) or a tuple (d,d,...) of digits in
{0,1,2}, ascending powers of the field generator.  Inside ideal literals the
same coefficients are separated by commas instead of spaces:

    ideal d=0,1 s=0,0,1 u=(0,1),2

Omitted ideal fields default to 1 (d, s, sp, spp) and 0 (u, v, w).

Exit codes: 0 ok, 2 parse error, 3 applicability error, 4 domain error,
5 internal invariant violation.
"""

import argparse
import sys

from .errors import ApplicabilityError, DomainError, InvariantError, ParseError
from .ff import Fq
from .polyring import Poly, exact_div, gcd
from .curve import Curve, is_artin_schreier, standardize
from .order import compute_order_data
from .places import prime_basis, split_finite, split_infinite
from .ideals import ideal_norm, ideal_validate, make_ideal
from .idealarith import (
    ideal_contains,
    ideal_divide_nonprimitive,
    ideal_invert,
    ideal_mul,
)
from .classgroup import can_basis, comp_red, min_element


# --- printing ---


def coeff_str(F, code):
    if F.m == 1:
        return str(code)
    return "(" + ",".join(str(d) for d in F.decode(code)) + ")"


def poly_print(f, sep=" "):
    if f.is_zero():
        return "0"
    return sep.join(coeff_str(f.ctx, c) for c in f.c)


def ideal_print(J):
    parts = []
    for key, val in (
        ("d", J.d), ("s", J.s), ("sp", J.sp), ("spp", J.spp),
        ("u", J.u), ("v", J.v), ("w", J.w),
    ):
        parts.append(f"{key}={poly_print(val, sep=',')}")
    return "ideal " + " ".join(parts)


# --- parsing ---


def _parse_coeff(F, tok, line_no):
    tok = tok.strip()
    if not tok:
        raise ParseError("empty coefficient", line=line_no)
    if tok.startswith("("):
        if not tok.endswith(")"):
            raise ParseError(f"unterminated coefficient {tok!r}", line=line_no)
        digits = []
        for p in tok[1:-1].split(","):
            p = p.strip()
            if p not in ("0", "1", "2"):
                raise ParseError(f"bad digit {p!r}", line=line_no)
            digits.append(int(p))
        if len(digits) > F.m:
            raise ParseError("coefficient has more digits than the extension",
                             line=line_no)
        digits += [0] * (F.m - len(digits))
        return F.encode(digits)
    if tok not in ("0", "1", "2"):
        raise ParseError(f"bad coefficient {tok!r} (digits are 0,1,2)",
                         line=line_no)
    return int(tok)


def parse_poly(F, text, line_no=None, sep=None):
    toks = text.split(sep) if sep else text.split()
    if not toks:
        raise ParseError("empty polynomial", line=line_no)
    return Poly(F, [_parse_coeff(F, t, line_no) for t in toks])


def _split_commas(text):
    """Split on top-level commas only (commas inside (...) stay)."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def parse_curve(text):
    """Parse a curve file into (FieldCtx, Curve)."""
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((no, body))
    fields = {}
    for no, body in lines:
        toks = body.split(None, 1)
        key = toks[0].lower()
        rest = toks[1] if len(toks) > 1 else ""
        if key in fields:
            raise ParseError(f"duplicate {key!r} line", line=no)
        fields[key] = (no, rest)
    for need in ("characteristic", "extension", "modulus", "a", "b"):
        if need not in fields:
            raise ParseError(f"missing {need!r} line")
    no, val = fields["characteristic"]
    if val.strip() != "3":
        raise ParseError("characteristic must be 3", line=no)
    no, val = fields["extension"]
    try:
        m = int(val.strip())
    except ValueError:
        raise ParseError("extension must be an integer", line=no)
    if m < 1:
        raise ParseError("extension must be positive", line=no)
    no, val = fields["modulus"]
    toks = val.split()
    if len(toks) != m + 1:
        raise ParseError(f"modulus needs {m + 1} digits", line=no)
    try:
        digits = [int(t) for t in toks]
    except ValueError:
        raise ParseError("modulus digits must be integers", line=no)
    if any(d not in (0, 1, 2) for d in digits):
        raise ParseError("modulus digits must be 0, 1 or 2", line=no)
    try:
        F = Fq(m, digits)
    except DomainError as e:
        raise ParseError(str(e), line=no)
    no, val = fields["a"]
    A = parse_poly(F, val, line_no=no)
    no, val = fields["b"]
    B = parse_poly(F, val, line_no=no)
    if B.is_zero():
        raise ParseError("B must be nonzero", line=fields["b"][0])
    if A.is_zero():
        raise ParseError("A = 0 gives a purely inseparable curve",
                         line=fields["a"][0])
    return F, Curve(A, B)


def parse_ideal(F, text):
    toks = text.split()
    if not toks or toks[0] != "ideal":
        raise ParseError("ideal literal must start with 'ideal'")
    vals = {}
    for tok in toks[1:]:
        if "=" not in tok:
            raise ParseError(f"bad ideal field {tok!r}")
        key, _, val = tok.partition("=")
        if key not in ("d", "s", "sp", "spp", "u", "v", "w"):
            raise ParseError(f"unknown ideal field {key!r}")
        coeffs = [_parse_coeff(F, t, None) for t in _split_commas(val)]
        vals[key] = Poly(F, coeffs)
        if key in ("d", "s", "sp", "spp") and vals[key].is_zero():
            raise DomainError(f"ideal field {key} must be nonzero")
    one = Poly.one(F)
    z = Poly.zero(F)
    s, sp, spp = (vals.get(key, one) for key in ("s", "sp", "spp"))
    if not ((s % sp).is_zero() and (s % spp).is_zero() and gcd(sp, spp).is_one()):
        raise DomainError("ideal literal needs sp | s, spp | s, gcd(sp, spp) = 1")
    return make_ideal(
        vals.get("d", one), s, sp, spp, vals.get("u", z), vals.get("w", z),
        vals.get("v", z),
    )


# --- commands ---


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_curve(fh.read())


def _load_order(path):
    """(field, standard model, order data) of a curve file."""
    F, c = _load(path)
    cs, _ = standardize(c)
    return F, cs, compute_order_data(cs)


def _parse_valid_ideal(F, text, od):
    """An ideal literal whose primitive part is checked to be an ideal of
    the order (DomainError otherwise)."""
    J = parse_ideal(F, text)
    ideal_validate(J.primitive_part(), od)
    return J


def cmd_standardize(args, out):
    _, c = _load(args.file)
    cs, transcript = standardize(c)
    out(f"A = {poly_print(cs.A)}")
    out(f"B = {poly_print(cs.B)}")
    out(f"criterion = {'wild' if cs.criterion_wild() else 'tame'}")
    out(f"steps = {len(transcript)}")
    for k, rec in enumerate(transcript):
        if rec[0] in ("depress", "depress_u0"):
            out(f"step{k} = {rec[0]} {poly_print(rec[1])}")
        elif rec[0] == "remove":
            out(f"step{k} = remove Q: {poly_print(rec[1])} i: {poly_print(rec[2])}")
        else:
            out(f"step{k} = frobshift c: {poly_print(rec[1])} n: {rec[2]}")
    return 0


def cmd_invariants(args, out):
    _, cs, od = _load_order(args.file)
    out(f"A = {poly_print(cs.A)}")
    out(f"B = {poly_print(cs.B)}")
    out(f"I = {poly_print(od.I)}")
    out(f"i = {poly_print(od.i)}")
    out(f"E = {poly_print(od.E)}")
    out(f"F = {poly_print(od.F)}")
    out(f"Delta = {poly_print(od.delta)}")
    out(f"genus = {od.genus}")
    out(f"infinite = {od.infinite.tag.value}")
    out(f"artin_schreier = {str(is_artin_schreier(cs)).lower()}")
    out(f"nonsingular = {str(not cs.singular_scan).lower()}")
    out(f"distinguished_ok = {str(od.distinguished_ok).lower()}")
    return 0


def cmd_split(args, out):
    F, cs, od = _load_order(args.file)
    if args.place.strip() == "inf":
        st = split_infinite(cs)
        out(f"place = inf")
        out(f"splitting = {st.tag.value}")
        for p in st.primes:
            out(f"prime {p.key} = e:{p.e} f:{p.f}")
        return 0
    P = parse_poly(F, args.place).monic()
    st = split_finite(P, od)
    out(f"place = {poly_print(P)}")
    out(f"splitting = {st.tag.value}")
    for p in st.primes:
        line = f"prime {p.key} = e:{p.e} f:{p.f}"
        if p.root is not None:
            line += f" root: {poly_print(p.root)}"
        out(line)
        if p.f != 3:
            out(f"basis {p.key} = {ideal_print(prime_basis(P, st, p.key, od))}")
    return 0


def cmd_ideal(args, out):
    F, _, od = _load_order(args.file)
    J1 = _parse_valid_ideal(F, args.ideals[0], od)
    if args.op == "inv":
        if len(args.ideals) != 1:
            raise DomainError("inv takes one ideal")
        res = ideal_invert(J1.primitive_part(), od)
        out(f"result = {ideal_print(res)}")
        return 0
    if len(args.ideals) != 2:
        raise DomainError(f"{args.op} takes two ideals")
    J2 = _parse_valid_ideal(F, args.ideals[1], od)
    if args.op == "mul":
        D, res = ideal_mul(J1, J2, od)
        full = make_ideal(D * res.d, res.s, res.sp, res.spp, res.u, res.w, res.v)
        out(f"result = {ideal_print(full)}")
        return 0
    if args.op == "div":
        if not ideal_contains(J1, J2):
            raise DomainError("division needs the first ideal inside the second")
        # <d1> P1 / (<d2> P2) = <c / d2> Q with <c> Q = <d1> P1 P2^(-1); Q is
        # primitive and inside <d2 / c>, so d2 divides c
        c, res = ideal_divide_nonprimitive(
            J1.d, J1.primitive_part(), J2.primitive_part(), od
        )
        full = make_ideal(exact_div(c, J2.d), res.s, res.sp, res.spp,
                          res.u, res.w, res.v)
        out(f"result = {ideal_print(full)}")
        return 0
    raise DomainError(f"unknown ideal operation {args.op!r}")


def cmd_compred(args, out):
    F, _, od = _load_order(args.file)
    J1 = _parse_valid_ideal(F, args.ideal1, od)
    J2 = _parse_valid_ideal(F, args.ideal2, od)
    res = comp_red(J1, J2, od)
    out(f"result = {ideal_print(res)}")
    out(f"norm_degree = {int(ideal_norm(res).deg)}")
    out(f"genus = {od.genus}")
    return 0


SECTION13_FILE = """\
characteristic 3
extension 10
modulus 2 1 0 0 2 2 2 0 0 0 1
A 1
B (0,1) 0 0 0 1
"""


def section13_golden(F):
    """The worked-example values: field, curve, and every intermediate.

    Two printed values in the source table fail their own defining
    congruences (the constant v1 and the x^4 signs inside u2/v2); the values
    here are the corrected ones, forced by the ideal-closure identities and
    cross-checked against the brute-force product oracle.
    """
    def enc(*signed):
        return F.encode([d % 3 for d in signed] + [0] * (10 - len(signed)))

    x = Poly.x(F)
    one = Poly.one(F)
    u1 = Poly.const(F, enc(0, 0, 0, -1, -1, 1, 1, 1, -1, -1))
    r = -u1
    v1 = one - r * r
    aconst = Poly.const(F, enc(-1, 0, 1, -1, 1, -1, -1, 0, 1))
    bconst = r
    return {
        "u1": u1,
        "v1": v1,
        "u2": -(x ** 4) + u1,
        "v2": -(u1 * x ** 4) + v1,
        "inv_w": x ** 4 - u1,
        "inv_v": (one - (-(u1 * x ** 4) + v1)),
        "min_a": aconst * x * x,
        "min_b": bconst * x * x,
        "min_c": x * x,
        "can_d": x * x,
        "can_s": x ** 4,
        "u4": u1,
        "v4": v1,
    }


def cmd_verify_example(args, out):
    F, c = parse_curve(SECTION13_FILE)
    cs, _ = standardize(c)
    od = compute_order_data(cs)
    gold = section13_golden(F)
    ok = True

    def check(key, got, want):
        nonlocal ok
        match = got == want
        ok = ok and match
        out(f"{key} = {got} {'[ok]' if match else f'[MISMATCH: expected {want}]'}")

    check("genus", od.genus, 3)
    check("artin_schreier", is_artin_schreier(cs), True)
    check("infinite", od.infinite.tag.value, "totally_ramified")
    x = Poly.x(F)
    st = split_finite(x, od)
    key = next(p.key for p in st.primes if p.root == -gold["u1"])
    I1 = prime_basis(x, st, key, od)
    check("I1", ideal_print(I1), ideal_print(make_ideal(
        Poly.one(F), x, Poly.one(F), Poly.one(F),
        gold["u1"], Poly.zero(F), gold["v1"])))
    I2 = _mul_checked(I1, I1, od)
    I3 = _mul_checked(I2, I1, od)
    I6 = _mul_checked(I3, I3, od)
    check("step1_s2", poly_print(I6.s), poly_print(x ** 6))
    check("step1_u2", poly_print(I6.u), poly_print(gold["u2"] % x ** 6))
    check("step1_v2", poly_print(I6.v), poly_print(gold["v2"] % x ** 6))
    inv = ideal_invert(I6, od)
    check("step2_s3", poly_print(inv.s), poly_print(x ** 6))
    check("step2_w3", poly_print(inv.w), poly_print(gold["inv_w"] % x ** 6))
    check("step2_v3", poly_print(inv.v), poly_print(gold["inv_v"] % x ** 6))
    alpha = min_element(inv, od)
    check("step3_a", poly_print(alpha.a), poly_print(gold["min_a"]))
    check("step3_b", poly_print(alpha.b), poly_print(gold["min_b"]))
    check("step3_c", poly_print(alpha.c), poly_print(gold["min_c"]))
    pr = can_basis(alpha, od)
    check("step4_d", poly_print(pr.d), poly_print(gold["can_d"]))
    check("step4_s", poly_print(pr.s), poly_print(gold["can_s"]))
    check("step4_v", poly_print(pr.v), poly_print(gold["min_a"] // (x * x)))
    check("step4_w", poly_print(pr.w), poly_print(gold["min_b"] // (x * x)))
    red = comp_red(I3, I3, od)
    check("step5_s4", poly_print(red.s), poly_print(x * x))
    check("step5_u4", poly_print(red.u), poly_print(gold["u4"]))
    check("step5_v4", poly_print(red.v), poly_print(gold["v4"]))
    check("step5_equals_I1^2", red == I2, True)
    out(f"verified = {str(ok).lower()}")
    return 0 if ok else 1


def _mul_checked(a, b, od):
    D, res = ideal_mul(a, b, od)
    if not D.is_one():
        raise InvariantError("unexpected content in the example computation")
    return res


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cubicff",
        description="invariants and ideal class group arithmetic for cubic "
        "function fields of characteristic three",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("standardize", help="convert a curve to standard form")
    p.add_argument("file")
    p.set_defaults(func=cmd_standardize)
    p = sub.add_parser("invariants", help="index, discriminant, genus, signature")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)
    p = sub.add_parser("split", help="splitting of a place")
    p.add_argument("file")
    p.add_argument("--place", required=True,
                   help="monic irreducible polynomial, or 'inf'")
    p.set_defaults(func=cmd_split)
    p = sub.add_parser("ideal", help="ideal arithmetic")
    p.add_argument("file")
    p.add_argument("op", choices=["mul", "inv", "div"])
    p.add_argument("ideals", nargs="+", metavar="IDEAL")
    p.set_defaults(func=cmd_ideal)
    p = sub.add_parser("compred", help="composition and reduction")
    p.add_argument("file")
    p.add_argument("ideal1")
    p.add_argument("ideal2")
    p.set_defaults(func=cmd_compred)
    p = sub.add_parser("verify-example", help="run the worked-example computation")
    p.set_defaults(func=cmd_verify_example)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)

    def out(s):
        print(s)

    try:
        return args.func(args, out)
    except (ParseError, OSError) as e:
        print(f"error: parse: {e}", file=sys.stderr)
        return 2
    except ApplicabilityError as e:
        print(f"error: applicability: {e}", file=sys.stderr)
        return 3
    except (DomainError, ZeroDivisionError) as e:
        print(f"error: domain: {e}", file=sys.stderr)
        return 4
    except InvariantError as e:
        print(f"error: internal: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
