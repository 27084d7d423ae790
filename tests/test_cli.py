"""Command-line surface: grammar round trips, command output, exit codes."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cubicff

from cubicff.cli import (
    ideal_print,
    main,
    parse_curve,
    parse_ideal,
    parse_poly,
    poly_print,
)
from cubicff.errors import ParseError
from cubicff.ff import GF3

from conftest import rand_poly, seeded

S13_FILE = """\
# worked example
characteristic 3
extension 10
modulus 2 1 0 0 2 2 2 0 0 0 1
A 1
B (0,1) 0 0 0 1
"""

SPLIT_FILE = """\
characteristic 3
extension 1
modulus 0 1
A 1
B 0 1
"""

NONIDEAL_FILE = """\
characteristic 3
extension 1
modulus 0 1
A 1
B 2 1 0 0 1
"""

EX62_FILE = """\
characteristic 3
extension 1
modulus 0 1
A 2 1 0 1 1
B 1 0 1 0 1 1 1 0 2
"""


@pytest.fixture()
def files(tmp_path):
    out = {}
    for name, text in (
        ("s13", S13_FILE), ("split", SPLIT_FILE), ("ex62", EX62_FILE),
        ("nonideal", NONIDEAL_FILE),
    ):
        p = tmp_path / f"{name}.curve"
        p.write_text(text)
        out[name] = str(p)
    return out


def test_parse_curve_s13():
    F, c = parse_curve(S13_FILE)
    assert F.m == 10 and F.q == 3 ** 10
    assert c.A.is_one() and c.B.deg == 4


def test_parse_rejects():
    with pytest.raises(ParseError):
        parse_curve(S13_FILE.replace("characteristic 3", "characteristic 5"))
    with pytest.raises(ParseError):
        parse_curve(SPLIT_FILE.replace("B 0 1", "B 0"))  # B = 0
    with pytest.raises(ParseError):
        parse_curve(SPLIT_FILE.replace("modulus 0 1", "modulus 1 1 1"))
    with pytest.raises(ParseError):
        parse_curve(SPLIT_FILE.replace("B 0 1", "B 0 3"))


def test_poly_round_trip(gf9):
    rng = seeded(101)
    for F in (GF3, gf9):
        for _ in range(30):
            f = rand_poly(rng, F, 5)
            assert parse_poly(F, poly_print(f)) == f


def test_ideal_round_trip(gf9, zoo9):
    from cubicff.order import compute_order_data
    from conftest import rand_ideal

    od = compute_order_data(zoo9[0])
    rng = seeded(103)
    for _ in range(10):
        J = rand_ideal(rng, od, cap=6)
        assert parse_ideal(od.ctx, ideal_print(J)) == J


def test_cli_invariants(files, capsys):
    rc = main(["invariants", files["s13"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "genus = 3" in out
    assert "infinite = totally_ramified" in out
    assert "artin_schreier = true" in out
    assert "distinguished_ok = true" in out


def test_cli_determinism(files, capsys):
    main(["invariants", files["ex62"]])
    first = capsys.readouterr().out
    main(["invariants", files["ex62"]])
    second = capsys.readouterr().out
    assert first == second


def test_cli_split(files, capsys):
    rc = main(["split", files["split"], "--place", "0 1"])
    out = capsys.readouterr().out
    assert rc == 0 and "splitting = completely_split" in out
    rc = main(["split", files["split"], "--place", "inf"])
    out = capsys.readouterr().out
    assert rc == 0 and "splitting = totally_ramified" in out


def test_cli_ideal_ops(files, capsys):
    rc = main(["ideal", files["split"], "mul", "ideal s=0,1 u=2", "ideal s=0,1 u=1"])
    out = capsys.readouterr().out
    assert rc == 0 and out.startswith("result = ideal ")
    rc = main(["ideal", files["split"], "inv", "ideal s=0,1 u=2"])
    assert rc == 0
    capsys.readouterr()
    # division without containment is a domain error: exit 4
    rc = main(["ideal", files["split"], "div", "ideal", "ideal s=0,1 u=2"])
    capsys.readouterr()
    assert rc == 4
    # the dividend's content takes part: <x> P / P = <x>, and <x^2 + 1> lies
    # inside P; in both cases quotient * P gives the dividend back
    f, P = files["nonideal"], "ideal s=1,0,1 u=0,1 v=2"
    for num, want in (("ideal d=0,1 s=1,0,1 u=0,1 v=2",
                       "ideal d=0,1 s=1 sp=1 spp=1 u=0 v=0 w=0"),
                      ("ideal d=1,0,1", None)):
        rc = main(["ideal", f, "div", num, P])
        quo = capsys.readouterr().out.strip().removeprefix("result = ")
        assert rc == 0 and quo.startswith("ideal ")
        assert want is None or quo == want
        assert main(["ideal", f, "mul", quo, P]) == 0
        back = capsys.readouterr().out
        assert main(["ideal", f, "mul", num, "ideal"]) == 0
        assert back == capsys.readouterr().out


def test_cli_compred(files, capsys):
    rc = main(["compred", files["s13"], "ideal", "ideal"])
    out = capsys.readouterr().out
    assert rc == 0 and "result = ideal" in out
    rc = main(["compred", files["ex62"], "ideal", "ideal"])
    capsys.readouterr()
    assert rc == 3  # applicability error on the non-distinguished curve


def test_cli_rejects_non_ideal_literals(files, capsys):
    # "ideal s=0,1" is not closed under rho on this curve: a domain error
    # (exit 4) in both commands, found before any arithmetic runs
    f = files["nonideal"]
    for argv in (["compred", f, "ideal s=0,1", "ideal s=0,0,1"],
                 ["ideal", f, "div", "ideal s=0,1", "ideal s=0,0,1"]):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 4 and err.startswith("error: domain:")
    # malformed diagonals (sp not dividing s, gcd(sp, spp) != 1) likewise
    for lit in ("ideal s=1 sp=0,1", "ideal s=0,0,1 sp=0,1 spp=0,1"):
        rc = main(["ideal", f, "inv", lit])
        err = capsys.readouterr().err
        assert rc == 4 and err.startswith("error: domain:")


def test_cli_parse_error_exit(files, tmp_path, capsys):
    bad = tmp_path / "bad.curve"
    bad.write_text(S13_FILE.replace("characteristic 3", "characteristic 5"))
    rc = main(["invariants", str(bad)])
    capsys.readouterr()
    assert rc == 2
    rc = main(["invariants", str(tmp_path / "missing.curve")])
    capsys.readouterr()
    assert rc == 2


def test_cli_verify_example(capsys):
    rc = main(["verify-example"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified = true" in out
    assert "genus = 3 [ok]" in out
    assert "[MISMATCH" not in out
    # byte for byte the report CI diffs the installed console script against
    assert out == (Path(__file__).parent / "data" / "verify_example.out").read_text()


def test_cli_compred_prime_field(capsys):
    # the report CI diffs the installed console script against: comp_red on
    # the primes above x (class II) and x + 1 (class IV) of the GF(3) curve
    # ram3 C1, so the command runs on the prime-field polynomial kernel
    data = Path(__file__).parent / "data"
    rc = main(["compred", str(data / "ram3_c1.curve"),
               "ideal d=1 s=0,1 sp=1 spp=1 u=1 v=2 w=0",
               "ideal d=1 s=1,1 sp=1 spp=1 u=0 v=0 w=0"])
    assert rc == 0
    assert capsys.readouterr().out == (data / "ram3_c1_compred.out").read_text()


def test_cli_compred_f3_10_example(capsys):
    # the report CI diffs the installed console script against: the
    # worked example over F_3^10, where A = 1 and every place is class I,
    # reduces p^3 * p^3 to p^2 for the prime p above x with the paper's
    # residue root
    data = Path(__file__).parent / "data"
    I3 = "ideal s=0,0,0,1 u=(0,0,0,2,2,1,1,1,2,2) v=(2,0,2,1,2,1,1,0,2,0)"
    rc = main(["compred", str(data / "f3_10_example.curve"), I3, I3])
    assert rc == 0
    assert (capsys.readouterr().out
            == (data / "f3_10_example_compred.out").read_text())


def test_cli_compred_f3_10_coprime(capsys):
    # the report CI diffs the installed console script against: comp_red of
    # the primes above the distinct degree-1 places x and x + (0,1,2) of the
    # worked example, so the product takes the coprime CRT path
    data = Path(__file__).parent / "data"
    rc = main(["compred", str(data / "f3_10_example.curve"),
               "ideal s=0,1 u=(0,0,0,2,2,1,1,1,2,2) v=(2,0,2,1,2,1,1,0,2,0)",
               "ideal s=(0,1,2),1 u=(0,0,2,1,1,2,1,1,1,1) "
               "v=(1,0,0,1,2,0,2,1,0,1)"])
    assert rc == 0
    assert (capsys.readouterr().out
            == (data / "f3_10_example_compred_coprime.out").read_text())


def test_cli_ideal_inv_class_iv_cube(capsys):
    # the report CI diffs the installed console script against: the inverse
    # of q^3, q the degree-1 prime with e = 2 above the class IV place x + 1
    # of ram3 C1, which reads and rebuilds that place at precision P^2
    data = Path(__file__).parent / "data"
    rc = main(["ideal", str(data / "ram3_c1.curve"), "inv",
               "ideal d=1 s=1,2,1 sp=1,1 spp=1 u=0 v=1,1 w=2"])
    assert rc == 0
    assert capsys.readouterr().out == (data / "ram3_c1_inv.out").read_text()


def test_cli_ideal_div_content_dividend(capsys):
    # the report CI diffs the installed console script against: <x> times
    # the prime above x + 1 of ram3 C1, divided by the class II prime above
    # x, so the division reads a content dividend; comp_red no longer
    # divides, and this command is the division's end-to-end route
    data = Path(__file__).parent / "data"
    rc = main(["ideal", str(data / "ram3_c1.curve"), "div",
               "ideal d=0,1 s=1,1 sp=1 spp=1 u=0 v=0 w=0",
               "ideal d=1 s=0,1 sp=1 spp=1 u=1 v=2 w=0"])
    assert rc == 0
    assert capsys.readouterr().out == (data / "ram3_c1_div.out").read_text()


def test_cli_ideal_typeII_square(capsys):
    # the report CI diffs the installed console script against: the square
    # of the class II prime p above x on ram3 C1, which the exponent rule
    # rebuilds as the primitive p^2
    data = Path(__file__).parent / "data"
    p = "ideal d=1 s=0,1 sp=1 spp=1 u=1 v=2 w=0"
    rc = main(["ideal", str(data / "ram3_c1.curve"), "mul", p, p])
    assert rc == 0
    assert (capsys.readouterr().out
            == (data / "ram3_c1_typeII_mul_p2.out").read_text())


def test_cli_ideal_mul_shared_primes(capsys, monkeypatch):
    # the report CI diffs the installed console script against: p1 p2 q
    # times p2 p3 p on ram3 C1, with p1, p2, p3 the primes above the
    # completely split x + 2 and p, q those above the class IV place x + 1.
    # The operands share both places, so the product runs the class I
    # general product and the ramified exponent rule, and x + 2 leaves as
    # content
    import cubicff.idealarith as idealarith

    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_mul_general_1", "_by_exponents"):
        monkeypatch.setattr(idealarith, name,
                            spy(name, getattr(idealarith, name)))
    data = Path(__file__).parent / "data"
    rc = main(["ideal", str(data / "ram3_c1.curve"), "mul",
               "ideal d=1 s=2,0,1 sp=2,1 spp=1 u=0 v=1,1 w=1",
               "ideal d=1 s=2,0,1 sp=2,1 spp=1 u=0 v=2,1 w=0"])
    assert rc == 0
    assert capsys.readouterr().out == (data / "ram3_c1_mul.out").read_text()
    assert calls == ["_mul_general_1", "_by_exponents"]


@pytest.mark.parametrize("op, ideals, golden, branch", [
    ("mul", ("ideal s=1,2,1 u=1,1 v=2,1", "ideal s=1,1"),
     "ram3_c1_typeIV_mul_p2q.out", (2, 1)),
    ("mul", ("ideal s=1,1 sp=1,1 w=2", "ideal s=1,1 sp=1,1 w=2"),
     "ram3_c1_typeIV_mul_q4.out", (0, 4)),
    ("div", ("ideal d=1,1 s=1,2,1 u=1,1 v=2,1", "ideal s=1,1 sp=1,1 w=2"),
     "ram3_c1_typeIV_div_p3.out", (3, 0)),
])
def test_cli_ideal_class_iv_bases(capsys, monkeypatch, op, ideals, golden,
                                  branch):
    # the reports CI diffs the installed console script against: p^2 * q,
    # q^2 * q^2 and p^3 q^2 / q^2 on ram3 C1, with p, q the primes above
    # the class IV place x + 1.  Each result is rebuilt by one branch of
    # the class IV basis builder: p^i q, q^j and p^i
    import cubicff.places as places

    calls = []
    real = places._basis_typeIV
    monkeypatch.setattr(places, "_basis_typeIV",
                        lambda od, P, i, j: calls.append((i, j))
                        or real(od, P, i, j))
    data = Path(__file__).parent / "data"
    rc = main(["ideal", str(data / "ram3_c1.curve"), op, *ideals])
    assert rc == 0
    assert capsys.readouterr().out == (data / golden).read_text()
    assert calls == [branch]


GF9_QA = ("ideal d=(1,0) s=(1,2),(1,0) sp=(1,2),(1,0) spp=(1,0) u=0 v=(0,1) "
          "w=(1,2)")


@pytest.mark.parametrize("args, golden", [
    (["ideal", "mul", GF9_QA,
      "ideal d=(1,0) s=(0,0),(1,0) sp=(1,0) spp=(1,0) u=(0,2) v=(1,0) w=0"],
     "gf9_g4_mul.out"),
    (["compred",
      "ideal d=(1,0) s=(0,1),(2,1),(1,0) sp=(0,1),(2,1),(1,0) spp=(1,0) u=0 "
      "v=(0,0),(2,1) w=(2,1),(1,0)",
      "ideal d=(1,0) s=(2,1),(1,0) sp=(2,1),(1,0) spp=(1,0) u=0 v=(0,2) "
      "w=(1,1)"],
     "gf9_g4_compred.out"),
])
def test_cli_gf9_reports(capsys, args, golden):
    # the reports CI diffs the installed console script against, over
    # GF(9) (m = 2) on a genus-4 curve: q * p for the residue-degree-2
    # prime q above x + 1 + 2 alpha and the ramified p above x, and
    # comp_red of q^2 and the q above x + 2 + alpha, which reduces norm
    # degree 6 to 3
    data = Path(__file__).parent / "data"
    rc = main([args[0], str(data / "gf9_g4.curve"), *args[1:]])
    assert rc == 0
    assert capsys.readouterr().out == (data / golden).read_text()


@pytest.mark.parametrize("args, golden", [
    (["split", "--place", "1 1"], "f3_11_g3_split_x1.out"),
    (["compred",
      "ideal s=1,0,1 u=(0,1,1,1,1,1,1,0,0,1,0) v=(2,1,0,1,1,2,2,1,1,0,1)",
      "ideal s=1,0,1 u=(2,1,1,1,1,1,1,0,0,1,0) v=(1,0,2,0,0,1,1,1,1,2,1)"],
     "f3_11_g3_compred.out"),
])
def test_cli_f3_11_reports(capsys, args, golden):
    # the reports CI diffs the installed console script against, over
    # F_3^11, a field without exp/log tables, so that every element
    # operation runs the digit path: the completely split place x + 1 of
    # T^3 - T + x^4 + alpha (genus 3), and comp_red of two primes above
    # x^2 + 1, which reduces norm degree 4 to 2
    data = Path(__file__).parent / "data"
    rc = main([args[0], str(data / "f3_11_g3.curve"), *args[1:]])
    assert rc == 0
    assert capsys.readouterr().out == (data / golden).read_text()


def test_cli_compred_gf3_genus8(capsys):
    # the report CI diffs the installed console script against: comp_red
    # over GF(3) on the genus-8 class III curve of two primes above
    # degree-5 places, which reduces norm degree 10 to 8
    data = Path(__file__).parent / "data"
    rc = main(["compred", str(data / "gf3_g8_III.curve"),
               "ideal d=1 s=1,2,0,0,0,1 sp=1 spp=1 u=0,1,2,1,1 v=2,1,2,2 w=0",
               "ideal d=1 s=1,1,0,1,0,1 sp=1 spp=1 u=1,2,1,2,1 v=2,2,2,1 w=0"])
    assert rc == 0
    assert capsys.readouterr().out == (
        data / "gf3_g8_III_compred.out").read_text()


def test_cli_split_gf27_partially_split(capsys):
    # the report CI diffs the installed console script against: a degree-2
    # place over GF(27) with one residue root of degree 1, the residue solve
    # over a field of 3^6 elements, and the bases of both primes above it
    data = Path(__file__).parent / "data"
    rc = main(["split", str(data / "gf27_g2.curve"), "--place", "1 (2,0,1) 1"])
    assert rc == 0
    assert capsys.readouterr().out == (data / "gf27_g2_split.out").read_text()


@pytest.mark.parametrize("place, golden", [
    ("0 1", "ram3_c1_split_x.out"),
    ("1 1", "ram3_c1_split_x1.out"),
])
def test_cli_split_ram3_ramified(capsys, place, golden):
    # the reports CI diffs the installed console script against: the
    # totally ramified place x of ram3 C1 (class II, one prime with e = 3)
    # and the partially ramified place x + 1 (class IV), which prints the
    # bases of both primes p and q above it
    data = Path(__file__).parent / "data"
    rc = main(["split", str(data / "ram3_c1.curve"), "--place", place])
    assert rc == 0
    assert capsys.readouterr().out == (data / golden).read_text()


def test_cli_split_ram3_completely_split(capsys):
    # the report CI diffs the installed console script against: the
    # completely split x + 2 of ram3 C1, three inertia-1 bases, each the
    # e_low = 0 case of the unramified builder
    data = Path(__file__).parent / "data"
    rc = main(["split", str(data / "ram3_c1.curve"), "--place", "2 1"])
    assert rc == 0
    assert capsys.readouterr().out == (
        data / "ram3_c1_split_x2.out").read_text()


@pytest.mark.parametrize("place", ["0 1 1", "0 0 1"])
def test_cli_split_reducible_place_exits_4(capsys, place):
    # x^2 + x divides A of ram3 C1 and x^2 does not: split_finite and the
    # residue solve each reject their reducible place as a domain error,
    # with one text for both
    data = Path(__file__).parent / "data"
    rc = main(["split", str(data / "ram3_c1.curve"), "--place", place])
    out = capsys.readouterr()
    assert rc == 4 and out.out == ""
    assert out.err == (
        "error: domain: residue field needs an irreducible modulus\n")



@pytest.mark.parametrize("command", ["standardize", "invariants"])
def test_cli_sing_gf3(capsys, command):
    # the reports CI diffs the installed console script against: a GF(3)
    # cubic that standardize reduces by one singular-factor removal at
    # x + 2 and one Frobenius shift, with index I = x + 2 and genus 3
    data = Path(__file__).parent / "data"
    rc = main([command, str(data / "sing_gf3.curve")])
    assert rc == 0
    assert (capsys.readouterr().out
            == (data / f"sing_gf3_{command}.out").read_text())


def test_cli_invariants_scans_each_curve_once(capsys, monkeypatch):
    # `invariants` on sing_gf3 meets three distinct curves: the input, the
    # curve after the removal at x + 2 and the standard model after the
    # Frobenius shift.  The singularity gcd and its factorization run once
    # per curve, though standardize, compute_order_data and the
    # `nonsingular` line all read the scan of the standard model.
    import cubicff.cli as cli
    import cubicff.curve as curve
    import cubicff.order as order

    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for mod in (curve, order, cli):
        for name in ("detect_singularity", "factor"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    data = Path(__file__).parent / "data"
    rc = main(["invariants", str(data / "sing_gf3.curve")])
    assert rc == 0
    assert (capsys.readouterr().out
            == (data / "sing_gf3_invariants.out").read_text())
    assert calls.count("detect_singularity") == 3, calls
    assert calls.count("factor") == 3, calls


@pytest.mark.parametrize("command", ["standardize", "invariants"])
def test_cli_tame_gf27_linear_b(capsys, command):
    # a tame GF(27) curve whose B has 2^15 monic divisors: the root test
    # finds no polynomial root and the curve is already standard
    data = Path(__file__).parent / "data"
    rc = main([command, str(data / "tame_gf27_linear_b.curve")])
    assert rc == 0
    assert (capsys.readouterr().out
            == (data / f"tame_gf27_linear_b_{command}.out").read_text())


@pytest.mark.parametrize("field", ["d", "s", "sp", "spp"])
def test_cli_rejects_zero_diagonal(capsys, field):
    # a zero diagonal field is bad input, not arithmetic: exit 4 with a
    # message that names the field
    data = Path(__file__).parent / "data"
    rc = main(["ideal", str(data / "ram3_c1.curve"), "inv", f"ideal {field}=0"])
    err = capsys.readouterr().err
    assert rc == 4 and err.startswith("error: domain:")
    assert f"ideal field {field} must be nonzero" in err

def test_cli_import_leaves_numpy_out():
    # numpy serves only the oracle; the CLI's import path must not load it
    src = str(Path(cubicff.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import cubicff.cli, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"


def test_cli_standardize(files, capsys, tmp_path):
    rc = main(["standardize", files["ex62"]])
    out = capsys.readouterr().out
    assert rc == 0 and "criterion = wild" in out and "steps = 0" in out
    gen = tmp_path / "gen.curve"
    gen.write_text(SPLIT_FILE.replace("B 0 1", "B 0 0 0 1"))  # B = x^3
    rc = main(["standardize", str(gen)])
    out = capsys.readouterr().out
    assert rc == 0 and "frobshift" in out


def test_cli_standardize_constant_b(tmp_path, capsys):
    # T^3 - x^2 T + 1: tame, and B = 1 has the single monic divisor 1, so
    # the polynomial-root check factors nothing
    curve = tmp_path / "constb.curve"
    curve.write_text(SPLIT_FILE.replace("A 1", "A 0 0 1").replace("B 0 1", "B 1"))
    rc = main(["standardize", str(curve)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "A = 0 0 1\nB = 1\ncriterion = tame\nsteps = 0\n"
    rc = main(["invariants", str(curve)])
    out = capsys.readouterr().out
    assert rc == 0 and "genus = 0" in out


# --- fuzzing the console entry point ---

# the modulus line of GF(3), GF(9) = GF(3)[t]/(t^2 + 1) and
# GF(27) = GF(3)[t]/(t^3 + 2t^2 + 1), by extension degree
FUZZ_MODULI = {1: "0 1", 2: "1 0 1", 3: "1 2 0 1"}


def _coeffs(m, max_size, lead=False):
    """Coefficient tokens over GF(3^m), constant first: digits, and digit
    tuples of up to m entries when m > 1; with `lead`, the last is nonzero."""
    digit = st.integers(0, 2).map(str)
    if m > 1:
        digit = digit | st.lists(st.integers(0, 2), min_size=1,
                                 max_size=m).map(
            lambda ds: "(" + ",".join(map(str, ds)) + ")")
    if not lead:
        return st.lists(digit, min_size=1, max_size=max_size)
    nonzero = digit.filter(lambda t: t.strip("(),0"))
    return st.tuples(st.lists(digit, max_size=max_size - 1), nonzero).map(
        lambda p: p[0] + [p[1]])


def _run(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout).  The
    exit code must be a result or a typed input error (0, 2, 3 or 4), never
    an internal error (5); an uncaught exception fails the test as is."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), argv
    return rc, out.getvalue()


@st.composite
def _ideal_literal(draw, m, path):
    """An ideal literal: a basis line that `split` prints for a degree-1
    place, a principal ideal, or arbitrary fields (rarely an ideal)."""
    kind = draw(st.sampled_from(("basis", "principal", "fields")))
    if kind == "basis":
        c = draw(_coeffs(m, 1))[0]
        rc, out = _run(["split", path, "--place", f"{c} 1"])
        bases = [line.split(" = ", 1)[1] for line in out.splitlines()
                 if line.startswith("basis ")]
        if rc == 0 and bases:
            return draw(st.sampled_from(bases))
        return "ideal"
    if kind == "principal":
        return "ideal d=" + ",".join(draw(_coeffs(m, 3)))
    keys = draw(st.lists(st.sampled_from(("d", "s", "sp", "spp", "u", "v",
                                          "w")), unique=True, max_size=4))
    return " ".join(["ideal"] + [f"{k}=" + ",".join(draw(_coeffs(m, 4)))
                                 for k in keys])


@given(data=st.data())
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_cli_fuzz_exit_codes(tmp_path_factory, data):
    # any curve file and ideal literals over GF(3), GF(9) and GF(27) give a
    # result or a typed error, in every command (`_run`)
    m = data.draw(st.sampled_from(sorted(FUZZ_MODULI)), label="extension")
    A, B = (" ".join(data.draw(_coeffs(m, n, lead=True) | _coeffs(m, n),
                               label=key)) for n, key in ((4, "A"), (6, "B")))
    path = tmp_path_factory.mktemp("fuzz") / "f.curve"
    path.write_text(f"characteristic 3\nextension {m}\n"
                    f"modulus {FUZZ_MODULI[m]}\nA {A}\nB {B}\n")
    path = str(path)
    cmd = data.draw(st.sampled_from(
        ("standardize", "invariants", "split", "ideal", "compred")),
        label="command")
    if cmd in ("standardize", "invariants"):
        argv = [cmd, path]
    elif cmd == "split":
        place = data.draw(st.just("inf") | _coeffs(m, 3).map(" ".join),
                          label="place")
        argv = [cmd, path, "--place", place]
    else:
        I1 = data.draw(_ideal_literal(m, path), label="I1")
        I2 = data.draw(_ideal_literal(m, path), label="I2")
        if cmd == "compred":
            argv = [cmd, path, I1, I2]
        else:
            op = data.draw(st.sampled_from(("mul", "inv", "div")), label="op")
            argv = [cmd, path, op, I1] + ([] if op == "inv" else [I2])
    _run(argv)
