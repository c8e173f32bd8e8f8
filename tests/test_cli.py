import glob
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from soscert import certifier, cli, errors, problem_io, quotient, verify_bounds
from soscert.errors import ParseError
from soscert.polyring import Polynomial

from conftest import (ReferencePolynomial, data_path, format_problem, load_problem,
                      reference_format, terms)


def run(argv):
    return cli.main(argv)


class TestCertify:
    def test_strict_round_trip(self, tmp_path, capsys):
        out = tmp_path / "cert.txt"
        code = run(["certify", "--input", data_path("four_points.prob"),
                    "--mode", "strict", "--out", str(out)])
        assert code == 0
        assert "identity: ok" in capsys.readouterr().out
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(out)])
        assert code == 0

    def test_nonneg_condition_failed(self, capsys):
        code = run(["certify", "--input", data_path("double_origin.prob"),
                    "--mode", "nonneg"])
        assert code == 2

    def test_nonneg_zeros_below_float_resolution(self, tmp_path, capsys):
        # f = 0 exactly at +-sqrt(2), where float64 sees |f| of order 1e-7:
        # the witness finds those zeros through its idempotent b, not by a
        # tolerance on f
        out = tmp_path / "cert.txt"
        prob = data_path("scaled_witness.prob")
        assert run(["certify", "--mode", "nonneg", "--input", prob, "--out", str(out)]) == 0
        assert "mode witnesses: ok" in capsys.readouterr().out
        assert run(["verify", "--input", prob, "--certificate", str(out)]) == 0

    def test_nonneg_round_trip_with_empty_block_0(self, tmp_path, capsys):
        # f = x^2 - 1 lies in I, so q f = 0 mod I for every square q of a's
        # certificate: block 0 and the witness list are both empty
        prob = tmp_path / "in_ideal.prob"
        prob.write_text("variables x y\nf: x^2 - 1\nh: x^2 - 1\nh: y^2 - y\n")
        out = tmp_path / "cert.txt"
        assert run(["certify", "--mode", "nonneg", "--input", str(prob), "--out", str(out)]) == 0
        assert "mode witnesses: ok" in capsys.readouterr().out
        assert "witness" not in out.read_text()
        assert run(["verify", "--input", str(prob), "--certificate", str(out)]) == 0
        assert "mode witnesses: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["strict", "nonneg"])
    def test_empty_variety_certified(self, tmp_path, capsys, mode):
        # 1 is in (x, x - 1): f = x h_1 - x h_2 needs no squares
        prob = tmp_path / "empty.prob"
        prob.write_text("variables x\nf: x\nh: x\nh: x - 1\n")
        out = tmp_path / "cert.txt"
        assert run(["certify", "--mode", mode, "--input", str(prob), "--out", str(out)]) == 0
        assert run(["verify", "--input", str(prob), "--certificate", str(out)]) == 0
        cert, _ = problem_io.parse_certificate(out.read_text(), ["x"])
        assert all(not block for block in cert.blocks)

    def test_sdp_infeasible(self):
        code = run(["certify", "--input", data_path("double_origin.prob"),
                    "--mode", "nonneg", "--engine", "sdp"])
        assert code == 3

    def test_missing_file(self):
        assert run(["certify", "--input", "/nonexistent.prob"]) == 1

    def test_empty_h_rejected(self, tmp_path):
        bad = tmp_path / "bad.prob"
        bad.write_text("variables x\nf: x\n")
        assert run(["certify", "--input", str(bad)]) == 1

    def test_zero_ideal_exits_2(self, tmp_path, capsys):
        # h = 0 is no equation at all, like h = x*y: not zero-dimensional
        prob = tmp_path / "zero.prob"
        prob.write_text("variables x y\nf: x + 3\nh: 0\n")
        assert run(["certify", "--input", str(prob)]) == 2
        assert "infinitely many zeros" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        assert run(["certify", "--input", data_path("four_points.prob"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be nonnegative, not -1\n"
        text = "variables x\nf: x + 3\nh: x^2 - 1\noption seed -5\n"
        with pytest.raises(ParseError) as exc:
            problem_io.parse_problem(text)
        assert exc.value.line == 4
        prob = tmp_path / "seed.prob"
        prob.write_text(text)
        assert run(["certify", "--input", str(prob)]) == 1
        assert capsys.readouterr().err == "error: line 4: seed must be nonnegative, not -5\n"

    @pytest.mark.parametrize("argv, message", [
        (["certify", "--input", "four_points.prob", "--seed", "x"],
         "argument --seed: invalid int value: 'x'"),
        (["certify", "--input", "four_points.prob", "--mode", "bogus"],
         "argument --mode: invalid choice: 'bogus' (choose from 'strict', 'nonneg')"),
        (["certify"], "the following arguments are required: --input"),
        ([], "the following arguments are required: command"),
    ], ids=["seed", "mode", "input", "command"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        # exit 2 means that no certificate can exist, not argparse's usage error
        argv = [data_path(a) if a.endswith(".prob") else a for a in argv]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["certify", "-h"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out

    def test_one_ring_per_certify(self, tmp_path, monkeypatch, capsys):
        # certify verifies its own output in the ring it certified in
        calls = []
        monomial_basis = quotient.monomial_basis
        monkeypatch.setattr(quotient, "monomial_basis",
                            lambda ideal: calls.append(ideal) or monomial_basis(ideal))
        out = tmp_path / "cert.txt"
        assert run(["certify", "--input", data_path("four_points.prob"), "--out", str(out)]) == 0
        assert "identity: ok" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_failing_certificate_is_not_written(self, tmp_path, monkeypatch, capsys, to_file):
        # a certificate that fails its own verification is reported, and
        # neither the --out file nor standard output gets it
        certify = certifier.certify

        def doubled(inst, ring=None):
            cert = certify(inst, ring)
            w, q = cert.blocks[0][0]
            cert.blocks[0][0] = (2 * w, q)
            return cert
        monkeypatch.setattr(certifier, "certify", doubled)
        out = tmp_path / "cert.txt"
        argv = ["certify", "--input", data_path("four_points.prob")]
        assert run(argv + (["--out", str(out)] if to_file else [])) == 4
        captured = capsys.readouterr()
        assert "verification failed: identity" in captured.err
        assert "identity: FAILED" in captured.out.splitlines()
        assert not out.exists()
        assert "square" not in captured.out and "mode strict" not in captured.out

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["certify", "--input", data_path("four_points.prob"),
                        "--seed", "11", "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestNumpyIsTheOnlyNumericDependency:
    def test_certify_loads_no_scipy(self, tmp_path):
        script = textwrap.dedent("""
            import sys
            from soscert import cli
            code = cli.main(["certify", "--input", sys.argv[1], "--out", sys.argv[2]])
            sys.exit(code if code else 10 if "scipy" in sys.modules else 0)
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", script, data_path("four_points.prob"),
                               str(tmp_path / "c.cert")],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_verify_and_bounds_load_no_numpy(self, capsys):
        # `import numpy` fails in the child: every golden and transcribed
        # certificate still verifies, and bounds still runs, with the same
        # output, and no engine is loaded
        pairs = [(f"{os.path.basename(cert)[:-5].rsplit('-', 1)[0]}.prob", cert)
                 for cert in sorted(glob.glob(data_path(os.path.join("golden", "*.cert"))))]
        pairs += [("four_points.prob", "four_points_strict.cert"),
                  ("cusp_circle.prob", "cusp_circle_x.cert"),
                  ("cusp_circle_shifted.prob", "cusp_circle_shifted.cert")]
        argvs = [["verify", "--input", data_path(prob), "--certificate", data_path(cert)]
                 for prob, cert in pairs]
        argvs.append(["bounds", "--input", data_path("four_points.prob")])
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            sys.modules["numpy"] = None
            from soscert import cli
            runs = []
            for argv in json.loads(sys.argv[1]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    runs.append([cli.main(argv), out.getvalue()])
            print(json.dumps({"runs": runs, "modules": sorted(
                m for m in sys.modules if m == "soscert" or m.startswith("soscert."))}))
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        expected = []
        for argv in argvs:
            code = run(argv)
            expected.append([code, capsys.readouterr().out])
        assert child["runs"] == expected
        assert all(code == 0 for code, _ in expected)
        engines = {"soscert." + m for m in ("certifier", "gram", "variety", "sdp_backend")}
        assert not engines & set(child["modules"])
        assert len(child["modules"]) <= 8, child["modules"]


class TestWarnings:
    def test_one_line_per_warning(self, tmp_path, capsys):
        # x - 1 vanishes at the two points (1, +-1), which stay in S
        prob = tmp_path / "boundary.prob"
        prob.write_text("variables x y\nf: x + y + 5\ng: x - 1\nh: x^2 - 1\nh: y^2 - 1\n")
        assert run(["certify", "--input", str(prob)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert re.fullmatch(r"warning: constraint value within tolerance at real point \d+; "
                                r"provisionally in S", line)


class TestVerify:
    def test_transcribed_certificates(self):
        assert run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", data_path("four_points_strict.cert")]) == 0
        assert run(["verify", "--input", data_path("cusp_circle_shifted.prob"),
                    "--certificate", data_path("cusp_circle_shifted.cert")]) == 0
        assert run(["verify", "--input", data_path("cusp_circle.prob"),
                    "--certificate", data_path("cusp_circle_x.cert")]) == 0

    def test_max_weight_bits_follows_the_heights(self, capsys):
        golden = data_path(os.path.join("golden", "four_points-none.cert"))
        cert = problem_io.parse_certificate(Path(golden).read_text())[0]
        weights = [w for block in cert.blocks for w, _ in block]
        bits = max(x.bit_length() for w in weights for x in (w.numerator, w.denominator))
        assert bits == 135
        report = verify_bounds.verify_certificate(load_problem("four_points.prob"), cert)
        assert report.max_weight_bits == bits
        assert run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", golden]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3].startswith("max numerator bits: ")
        assert lines[-2].startswith("max denominator bits: ")
        assert lines[-1] == f"max weight bits: {bits}"

    def test_mutated_certificate_exits_4(self, tmp_path, capsys):
        text = Path(data_path("four_points_strict.cert")).read_text()
        mutated = text.replace("weight 1/5", "weight 2/5", 1)
        bad = tmp_path / "bad.cert"
        bad.write_text(mutated)
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 4
        assert "identity" in capsys.readouterr().err

    def test_degree_bound_decides_no_exit_code(self, tmp_path, capsys):
        # t*h2 added to cofactor 1 and -t*h1 to cofactor 2 cancel in the
        # identity, and the products pass the degree bound of 5
        t = "x^3*y^3"
        lines = []
        for line in Path(data_path("four_points_strict.cert")).read_text().splitlines():
            if line.startswith("cofactor 1"):
                line += f" + {t}*y^2 - {t}*x - 2*{t}"
            elif line.startswith("cofactor 2"):
                line += f" - {t}*x^2 + {t}"
            lines.append(line)
        cert = tmp_path / "big.cert"
        cert.write_text("\n".join(lines) + "\n")
        inst = load_problem("four_points.prob")
        report = verify_bounds.verify_certificate(
            inst, problem_io.parse_certificate(cert.read_text())[0])
        assert report.identity_ok and report.degree_bound_ok is False
        assert report.ok
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(cert)])
        assert code == 0
        assert "degree bound: FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", [
        lambda lines: [line for line in lines
                       if not line.startswith("witness") or line.startswith("witness 1 ")],
        lambda lines: [line for line in lines if not line.startswith("witness")],
        lambda lines: lines + ["witness 7 x"],
    ], ids=["fewer", "none", "more"])
    def test_witness_count_differs_from_block_0_exits_4(self, tmp_path, capsys, edit):
        # every square of block 0 has its own witness, and no witness is spare
        golden = data_path(os.path.join("golden", "cusp_circle-nonneg.cert"))
        bad = tmp_path / "bad.cert"
        bad.write_text("\n".join(edit(Path(golden).read_text().splitlines())) + "\n")
        code = run(["verify", "--input", data_path("cusp_circle.prob"),
                    "--certificate", str(bad)])
        assert code == 4
        out = capsys.readouterr()
        assert "identity: ok" in out.out and "mode witnesses: FAILED" in out.out
        assert "verification failed: mode-witness" in out.err

    @pytest.mark.parametrize("h", ["x*y", "0"])
    def test_strict_certificate_without_a_finite_quotient(self, tmp_path, capsys, h):
        # with no finite R/I there is no degree bound to print, and shape,
        # identity and weights decide a strict certificate alone
        prob = tmp_path / "p.prob"
        prob.write_text(f"variables x y\nf: x^2 + 1\nh: {h}\n")
        cert = tmp_path / "c.cert"
        body = "variables x y\nblock 0\nweight 1 square x\nweight 1 square 1\ncofactor 1 0\n"
        cert.write_text("mode strict\n" + body)
        assert run(["verify", "--input", str(prob), "--certificate", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "identity: ok" in out.splitlines() and "degree bound" not in out
        cert.write_text("mode strict\n" + body.replace("weight 1 square 1", "weight 2 square 1"))
        assert run(["verify", "--input", str(prob), "--certificate", str(cert)]) == 4
        assert "verification failed: identity" in capsys.readouterr().err
        # nonneg witnesses are checked in R/I, and `bounds` bounds R/I: no answer
        cert.write_text("mode nonneg\n" + body + "witness 1 1\nwitness 2 1\n")
        assert run(["verify", "--input", str(prob), "--certificate", str(cert)]) == 2
        assert run(["bounds", "--input", str(prob)]) == 2

    def test_extra_block_exits_4(self, tmp_path, capsys):
        # four_points has one g, so a certificate has at most blocks 0 and 1
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace("cofactor 1", "block 2\nweight 1 square x\ncofactor 1", 1))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 4
        out, err = capsys.readouterr()
        assert "identity: not checked" in out.splitlines()
        assert "verification failed: shape: 3 blocks, but the problem has 2 multipliers" in err

    def test_extra_cofactor_exits_4(self, tmp_path, capsys):
        # a third cofactor on a two-equation problem cannot be ignored
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text + "cofactor 3 x\n")
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 4
        out, err = capsys.readouterr()
        assert "identity: not checked" in out.splitlines()
        assert "verification failed: shape: 3 cofactors, but the problem has 2 equations" in err

    def test_second_cofactor_line_exits_1(self, tmp_path, capsys):
        # a repeated index must not silently replace the first cofactor
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text + "cofactor 1 0\n")
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert "line 15: second `cofactor 1` line" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,lineno,keyword", [
        ("mode strict\n", "mode strict\nmode nonneg\n", 2, "mode"),
        ("cofactor 1", "variables x y\ncofactor 1", 13, "variables"),
        ("variables x y\n", "variables x y\ngamma 2\ngamma 3\n", 4, "gamma"),
    ], ids=["mode", "variables", "gamma"])
    def test_second_header_line_in_certificate_exits_1(self, tmp_path, capsys, old, new,
                                                        lineno, keyword):
        # a repeated header line must not silently replace the first one
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace(old, new))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert f"line {lineno}: second `{keyword}` line" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,lineno,keyword", [
        ("g: y\n", "f: y + x - 3\ng: y\n", 3, "f:"),
        ("variables x y\n", "variables x\nvariables x y\n", 2, "variables"),
        ("h: y^2 - x - 2\n", "h: y^2 - x - 2\noption mode strict\noption mode nonneg\n", 7,
         "option mode"),
    ], ids=["f", "variables", "option"])
    def test_second_line_in_problem_exits_1(self, tmp_path, capsys, old, new, lineno, keyword):
        # the last `f:` used to win silently, and two `variables` lines
        # gave a dimension error with no line number
        text = Path(data_path("four_points.prob")).read_text()
        prob = tmp_path / "bad.prob"
        prob.write_text(text.replace(old, new))
        assert run(["certify", "--input", str(prob)]) == 1
        assert f"line {lineno}: second `{keyword}` line" in capsys.readouterr().err

    def test_unknown_mode_exits_1(self, tmp_path, capsys):
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace("mode strict", "mode strictly"))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert "line 1: mode must be one of strict, nonneg" in capsys.readouterr().err

    def test_variable_mismatch_exits_1(self, tmp_path):
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace("variables x y", "variables u v"))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1


class TestBounds:
    def test_four_points(self, capsys):
        assert run(["bounds", "--input", data_path("four_points.prob")]) == 0
        out = capsys.readouterr().out
        assert "cofactor_degree_bound = 5" in out
        assert "hierarchy_order = 3" in out

    @pytest.mark.parametrize("constant", ["0", "-1", "nan", "inf", "1e308"])
    def test_bad_constant_exits_1(self, capsys, constant):
        # bounds has no --constant option: any value is a usage error
        assert run(["bounds", "--input", data_path("four_points.prob"),
                    "--constant", constant]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unrecognized arguments: --constant {constant}\n"

    def test_empty_variety_has_nothing_to_bound(self, tmp_path, capsys):
        prob = tmp_path / "empty.prob"
        prob.write_text("variables x\nf: x\nh: x\nh: x - 1\n")
        assert run(["bounds", "--input", str(prob)]) == 0
        out, err = capsys.readouterr()
        assert "quotient_dimension = 0" in out
        assert err == ""


class TestOneParserPerProcess:
    def test_commands_in_turn(self, tmp_path, capsys):
        # one cached parser serves every call: no option of one call
        # reaches the next (certify with --mode nonneg exits 2 on the double
        # origin, and 3 in the default strict mode right after it)
        assert cli.build_parser() is cli.build_parser()
        prob, double = data_path("four_points.prob"), data_path("double_origin.prob")
        out = tmp_path / "cert.txt"
        calls = [
            (["certify", "--input", prob, "--out", str(out)], 0),
            (["verify", "--input", prob, "--certificate", str(out)], 0),
            (["bounds", "--input", prob, "--constant", "2"], 1),
            (["certify", "--input", double, "--mode", "nonneg"], 2),
            (["certify", "--input", double], 3),
            (["verify", "--input", prob, "--certificate", data_path("four_points_strict.cert")], 0),
            (["bounds", "--input", double], 0),
            (["verify", "--input", double, "--certificate", str(out)], 1),
            (["certify", "--input", "/nonexistent.prob"], 1),
        ]
        for sequence in (calls, calls[::-1], calls):
            assert [run(argv) for argv, _ in sequence] == [code for _, code in sequence]


def reference_format_certificate(cert, var_names):
    """`problem_io.format_certificate` as it was: each line's polynomial
    printed on its own, through the Fraction reference printer."""
    def text(p):
        return reference_format(ReferencePolynomial(terms(p), len(var_names)), var_names)
    lines = [f"mode {cert.mode}", "variables " + " ".join(var_names)]
    if cert.gamma is not None:
        lines.append(f"gamma {cert.gamma}")
    for i, block in enumerate(cert.blocks):
        lines.append(f"block {i}")
        lines += [f"weight {w} square {text(q)}" for w, q in block]
    lines += [f"cofactor {j} {text(p)}" for j, p in enumerate(cert.cofactors, start=1)]
    lines += [f"witness {k} {text(r)}" for k, r in enumerate(cert.witnesses or [], start=1)]
    return "\n".join(lines) + "\n"


GOLDEN_CERTS = sorted(os.path.basename(p) for p in glob.glob(data_path(os.path.join("golden", "*.cert"))))


class TestProblemIO:
    def test_problem_round_trip(self, four_points):
        text = format_problem(four_points)
        again = problem_io.parse_problem(text)
        assert format_problem(again) == text

    @pytest.mark.parametrize("name", GOLDEN_CERTS)
    def test_format_certificate_line_by_line(self, name):
        # one table of monomial texts for the whole certificate prints
        # every line as printing each polynomial on its own did
        text = Path(data_path(os.path.join("golden", name))).read_text()
        cert, names = problem_io.parse_certificate(text)
        assert problem_io.format_certificate(cert, names) == reference_format_certificate(cert, names)
        assert problem_io.format_certificate(cert, names) == text

    def test_options_parsed(self):
        inst = problem_io.parse_problem(
            "variables x\nf: x + 3\nh: x^2 - 1\noption mode strict\n"
            "option seed 5\n")
        assert inst.options == {"mode": "strict", "seed": 5}

    @pytest.mark.parametrize("key,value", [("mode", "nonnegative"), ("engine", "simplex"),
                                           ("precision_start", "8")])
    def test_unknown_option_value_rejected(self, tmp_path, key, value):
        text = f"variables x\nf: x + 3\nh: x^2 - 1\noption {key} {value}\n"
        with pytest.raises(ParseError) as exc:
            problem_io.parse_problem(text)
        assert exc.value.line == 4
        prob = tmp_path / "bad.prob"
        prob.write_text(text)
        assert run(["certify", "--input", str(prob)]) == 1

    @pytest.mark.parametrize("key", ["mode", "engine"])
    def test_option_values_match_the_cli(self, key):
        # files and the command line accept the values of one table
        for value in problem_io.OPTION_CHOICES[key]:
            args = cli.build_parser().parse_args(["certify", "--input", "p", f"--{key}", value])
            assert getattr(args, key) == value
            inst = problem_io.parse_problem(
                f"variables x\nf: x + 3\nh: x^2 - 1\noption {key} {value}\n")
            assert inst.options == {key: value}

    def test_order_option_rejected(self):
        # the SDP engine's blocks are fixed by the quotient basis
        with pytest.raises(ParseError) as exc:
            problem_io.parse_problem("variables x\nf: x + 3\nh: x^2 - 1\noption order 2\n")
        assert exc.value.line == 4

    def test_line_numbered_diagnostics(self):
        with pytest.raises(ParseError) as exc:
            problem_io.parse_problem("variables x\nf: x\nh: x^2 - $\n")
        assert "line 3" in str(exc.value)

    def test_radical_hint_rejected(self):
        # radicality is computed per ring, not taken from the input
        with pytest.raises(ParseError) as exc:
            problem_io.parse_problem("variables x\nf: x + 3\nh: x^2 - 1\nradical: true\n")
        assert exc.value.line == 4

    @pytest.mark.parametrize("old,new,lineno", [
        ("f: x + 3", "f:", 2),
        ("g: x", "g:  ", 3),
        ("h: x^2 - 1", "h:\nh: x^2 - 1", 4),
    ], ids=["f", "g", "h"])
    def test_empty_polynomial_line_exits_1(self, tmp_path, capsys, old, new, lineno):
        # an empty `f:` used to parse as 0 and exit 3 on a float margin, and
        # an empty `h:` was dropped
        prob = tmp_path / "bad.prob"
        prob.write_text("variables x\nf: x + 3\ng: x\nh: x^2 - 1\n".replace(old, new))
        assert run(["certify", "--input", str(prob)]) == 1
        assert (f"line {lineno}: empty polynomial; write 0 for zero"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("line", ["f: 1/0*x + 1", "f: x^1/0 + 1"])
    def test_zero_denominator_in_problem_exits_1(self, tmp_path, capsys, line):
        prob = tmp_path / "bad.prob"
        prob.write_text(f"variables x\n{line}\nh: x^2 - 1\n")
        assert run(["certify", "--input", str(prob)]) == 1
        assert "line 2: zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,lineno", [
        ("weight 1/2 square", "weight 1/0 square", 4),
        ("square -3/5*y + x", "square -3/0*y + x", 11),
        ("variables x y\n", "variables x y\ngamma 2/0\n", 3),
    ], ids=["weight", "square", "gamma"])
    def test_zero_denominator_in_certificate_exits_1(self, tmp_path, capsys, old, new, lineno):
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace(old, new))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert f"line {lineno}: zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.5", "1e-3", "1_0", "1/2/3", "1/-2", "--1", "inf", "½"])
    @pytest.mark.parametrize("keyword,old,new,lineno", [
        ("weight", "weight 1/2 square", "weight {} square", 4),
        ("gamma", "variables x y\n", "variables x y\ngamma {}\n", 3),
    ], ids=["weight", "gamma"])
    def test_weight_and_gamma_outside_the_grammar_exit_1(self, tmp_path, capsys, value,
                                                         keyword, old, new, lineno):
        # an optional sign, then num or num/den, as in polynomials
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace(old, new.format(value)))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert (f"line {lineno}: {keyword} must be a rational num or num/den, not {value!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value,expected", [("-1/2", Fraction(-1, 2)), ("+3", Fraction(3)),
                                                ("6/4", Fraction(3, 2))])
    def test_signed_weight_and_gamma_parse(self, value, expected):
        text = Path(data_path("four_points_strict.cert")).read_text()
        text = text.replace("weight 1/2 square", f"weight {value} square")
        cert, _ = problem_io.parse_certificate(text.replace("block 0", f"gamma {value}\nblock 0"))
        assert cert.blocks[0][0][0] == cert.gamma == expected

    def test_negative_weight_exits_4(self, tmp_path, capsys):
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace("weight 1/2 square", "weight -1/2 square"))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 4
        assert "weights nonnegative: FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("old,new,lineno", [
        ("variables x y\n", "variablesq x y\n", 1),
        ("h: y^2 - x - 2\n", "h: y^2 - x - 2\noptional mode nonneg\n", 6),
    ], ids=["variablesq", "optional"])
    def test_misspelt_keyword_in_problem_exits_1(self, tmp_path, capsys, old, new, lineno):
        text = Path(data_path("four_points.prob")).read_text()
        prob = tmp_path / "bad.prob"
        prob.write_text(text.replace(old, new))
        assert run(["certify", "--input", str(prob)]) == 1
        assert f"line {lineno}: unrecognized line" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,lineno", [
        ("mode strict", "modex strict", 1),
        ("block 0", "blockade 0", 3),
        ("weight 1/5 square y - 17/10", "weightless 1 square x", 12),
        ("cofactor 1 -2/5*y^2 - 1/2*x^2 - 1/10*y - 7/10", "cofactors 1 x", 13),
    ], ids=["modex", "blockade", "weightless", "cofactors"])
    def test_misspelt_keyword_in_certificate_exits_1(self, tmp_path, capsys, old, new, lineno):
        text = Path(data_path("four_points_strict.cert")).read_text()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace(old, new))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert f"line {lineno}: unrecognized line" in capsys.readouterr().err

    @pytest.mark.parametrize("keyword,old,new,lineno", [
        ("mode", "mode strict", "mode strict extra", 1),
        ("gamma", "variables x y\n", "variables x y\ngamma 2 junk\n", 3),
        ("block", "block 0", "block 0 junk", 3),
    ], ids=["mode", "gamma", "block"])
    def test_trailing_words_in_certificate_exit_1(self, tmp_path, capsys, keyword, old, new,
                                                  lineno):
        # `mode`, `gamma` and `block` take exactly one value
        text = Path(data_path("four_points_strict.cert")).read_text()
        with pytest.raises(ParseError) as exc:
            problem_io.parse_certificate(text.replace(old, new))
        assert exc.value.line == lineno
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace(old, new))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert f"line {lineno}: expected `{keyword} <value>`" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,lineno,message", [
        ("block 0", "block x", 3, "expected `block <i>`, where 'x' is not an integer"),
        ("weight 1/5 square y - 17/10", "weight 1", 12,
         "expected `weight <rational> square <poly>`, not 'weight 1'"),
        ("cofactor 1 -2/5*y^2 - 1/2*x^2 - 1/10*y - 7/10", "cofactor x 1", 13,
         "expected `cofactor <j> <poly>`, where 'x' is not an integer"),
        ("cofactor 1 -2/5*y^2 - 1/2*x^2 - 1/10*y - 7/10", "cofactor 1", 13,
         "expected `cofactor <j> <poly>`, not 'cofactor 1'"),
        ("- 1/10*x - 4/5\n", "- 1/10*x - 4/5\nwitness\n", 15,
         "expected `witness <k> <poly>`, not 'witness'"),
        ("- 1/10*x - 4/5\n", "- 1/10*x - 4/5\nwitness x 1\n", 15,
         "expected `witness <k> <poly>`, where 'x' is not an integer"),
    ], ids=["block", "weight", "cofactor-index", "cofactor-short", "witness-short",
            "witness-index"])
    def test_malformed_certificate_line_names_its_form(self, tmp_path, capsys, old, new, lineno,
                                                       message):
        text = Path(data_path("four_points_strict.cert")).read_text()
        assert old in text
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace(old, new))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert f"line {lineno}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("option mode", "expected `option <key> <value>`, not 'option mode'"),
        ("option", "expected `option <key> <value>`, not 'option'"),
        ("option seed abc", "expected `option seed <n>`, where 'abc' is not an integer"),
    ], ids=["no-value", "bare", "seed"])
    def test_malformed_option_line_names_its_form(self, tmp_path, capsys, line, message):
        prob = tmp_path / "bad.prob"
        prob.write_text(Path(data_path("four_points.prob")).read_text() + line + "\n")
        assert run(["certify", "--input", str(prob)]) == 1
        assert f"line 6: {message}" in capsys.readouterr().err

    def test_repeated_variable_exits_1(self, tmp_path, capsys):
        prob = tmp_path / "bad.prob"
        prob.write_text("variables x x\nf: x + 3\nh: x^2 - 1\n")
        assert run(["certify", "--input", str(prob)]) == 1
        assert "line 1: variable 'x' declared twice" in capsys.readouterr().err
        with pytest.raises(ParseError) as exc:
            problem_io.parse_certificate("mode strict\nvariables y x y\nblock 0\n")
        assert exc.value.line == 2

    def test_polynomial_before_variables(self):
        with pytest.raises(ParseError):
            problem_io.parse_problem("f: x\nvariables x\nh: x^2\n")

    def test_certificate_requires_blocks(self):
        with pytest.raises(ParseError):
            problem_io.parse_certificate("mode strict\nvariables x\n")


# `soscert certify` on each tests/data problem under each option set: its
# exit code and, for exit 0, the certificate it writes, kept byte for byte in
# tests/data/golden.  A change of representation inside the exact pipeline
# must leave both alone.
GOLDEN_OPTIONS = {"none": [], "nonneg": ["--mode", "nonneg"], "sdp": ["--engine", "sdp"]}
GOLDEN_EXITS = {
    "cusp_circle": {"none": 3, "nonneg": 0, "sdp": 3},
    "cusp_circle_shifted": {"none": 0, "nonneg": 0, "sdp": 0},
    "double_origin": {"none": 3, "nonneg": 2, "sdp": 3},
    "double_origin_shifted": {"none": 0, "nonneg": 0, "sdp": 0},
    "excluded_grid": {"none": 0, "nonneg": 0, "sdp": 0},
    "four_points": {"none": 0, "nonneg": 0, "sdp": 0},
    "rational_mixed": {"none": 0, "nonneg": 0, "sdp": 0},
    "scaled_witness": {"none": 3, "nonneg": 0, "sdp": 3},
    "zero_f": {"none": 3, "nonneg": 0, "sdp": 3},
}


class TestGolden:
    def test_every_problem_has_golden_exit_codes(self):
        problems = sorted(name[:-len(".prob")] for name in os.listdir(data_path(""))
                          if name.endswith(".prob"))
        assert problems == sorted(GOLDEN_EXITS)

    @pytest.mark.parametrize("problem", sorted(GOLDEN_EXITS))
    @pytest.mark.parametrize("options", sorted(GOLDEN_OPTIONS))
    def test_certificate_bytes(self, tmp_path, capsys, problem, options):
        out = tmp_path / "out.cert"
        code = run(["certify", "--input", data_path(f"{problem}.prob"), "--out", str(out)]
                   + GOLDEN_OPTIONS[options])
        assert code == GOLDEN_EXITS[problem][options]
        golden = data_path(os.path.join("golden", f"{problem}-{options}.cert"))
        if code == 0:
            with open(golden, "rb") as fh:
                assert out.read_bytes() == fh.read()
        else:
            assert not os.path.exists(golden)


# Inputs beyond tests/data for the square form: an excluded point whose
# idempotent x / 10^6 rounds to zero at 16 bits, and a Hensel lift with a g.
FORM_EXTRA = {
    "zero_column": "variables x\nf: 1 - 1/500000*x\ng: 1 - x\nh: x^2 - 1000000*x\n",
    "hensel_g": "variables x y\nf: x - 2\ng: x\nh: x^3 - x^2\nh: y^2 + 1\n",
}
FORM_CASES = ([(data_path(f"{problem}.prob"), options) for problem in sorted(GOLDEN_EXITS)
               for options in sorted(GOLDEN_OPTIONS) if GOLDEN_EXITS[problem][options] == 0]
              + [(name, "none") for name in sorted(FORM_EXTRA)])


class TestSquareForm:
    """`certify` writes every square as a primitive integer polynomial with a
    positive leading coefficient, its content in the weight; `verify`
    accepts any valid certificate, in that form or not."""

    @pytest.mark.parametrize("prob, options", FORM_CASES,
                             ids=[f"{os.path.basename(p)}-{o}" for p, o in FORM_CASES])
    def test_certified_squares_are_primitive(self, tmp_path, prob, options):
        if prob in FORM_EXTRA:
            (tmp_path / "p.prob").write_text(FORM_EXTRA[prob])
            prob = str(tmp_path / "p.prob")
        out = tmp_path / "out.cert"
        assert run(["certify", "--input", prob, "--out", str(out)]
                   + GOLDEN_OPTIONS[options]) == 0
        cert = problem_io.parse_certificate(out.read_text())[0]
        for w, q in (square for block in cert.blocks for square in block):
            assert w > 0 and not q.is_zero()
            assert q.den == 1 and math.gcd(*q.ints.values()) == 1
            assert q.leading_coefficient() > 0
        report = verify_bounds.verify_certificate(problem_io.parse_problem(Path(prob).read_text()),
                                                  cert)
        assert report.ok
        assert report.mode_ok is (True if options == "nonneg" else None)

    @pytest.mark.parametrize("problem, cert", [
        ("four_points", "four_points_strict"), ("cusp_circle_shifted", "cusp_circle_shifted"),
        ("cusp_circle", "cusp_circle_x")])
    def test_hand_written_certificates_are_not_in_the_form(self, problem, cert):
        text = Path(data_path(f"{cert}.cert")).read_text()
        parsed = problem_io.parse_certificate(text)[0]
        assert any(q.den != 1 for block in parsed.blocks for _, q in block)
        assert run(["verify", "--input", data_path(f"{problem}.prob"),
                    "--certificate", data_path(f"{cert}.cert")]) == 0

    def test_a_scaled_square_still_verifies(self, tmp_path):
        # (w / 9) (3 q)^2 = w q^2: the same identity off the written form
        inst = load_problem("four_points.prob")
        golden = data_path(os.path.join("golden", "four_points-none.cert"))
        cert = problem_io.parse_certificate(Path(golden).read_text())[0]
        w, q = cert.blocks[0][0]
        cert.blocks[0][0] = (w / 9, q * 3)
        scaled = tmp_path / "scaled.cert"
        scaled.write_text(problem_io.format_certificate(cert, inst.var_names))
        reread = problem_io.parse_certificate(scaled.read_text())[0].blocks[0][0][1]
        assert math.gcd(*reread.ints.values()) == 3
        assert run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(scaled)]) == 0


# The exit code of `soscert certify` for each exception that `certify` can
# raise: every SosCertError of `errors`, and a float overflow.
EXIT_CODES = [
    (errors.SosCertError("error"), 2),
    (errors.DimensionMismatch("1 vs 2 variables"), 2),
    (errors.NotZeroDimensional("no pure power"), 2),
    (errors.ConditionFailed("(I : f) + (f) is not the unit ideal"), 2),
    (errors.NotInvertible("vanishes at a root"), 2),
    (errors.NotPD(1), 2),
    (errors.NotStrictlyPositiveOnS("f < 0 at a point of S"), 2),
    (errors.PrecisionExceeded("ceiling"), 3),
    (errors.ClusterAmbiguity("point separation"), 3),
    (errors.SingularVandermonde("Vandermonde numerically singular"), 3),
    (errors.Infeasible(-1.0), 3),
    (errors.MaxIterations("iteration limit"), 3),
    (OverflowError("integer division result too large for a float"), 3),
    (errors.IdentityBroken("residual is not in the ideal"), 4),
    (errors.ParseError("bad", line=1), 1),
]

# Inputs whose roots or coefficients float64 cannot handle: a double root
# split by 2^-50, and a coefficient beyond float64 range.
FLOAT_LIMITS = {
    "split_root": f"variables x y\nf: x + 3\nh: x^2 - 2*x + 1 - 1/{2 ** 100}\nh: y - 1\n",
    "huge_f": "variables x\nf: 1" + "0" * 400 + "\nh: x^2 - 1\n",
    "huge_h": "variables x\nf: x + 2\nh: 1" + "0" * 400 + "*x^2 - 1\n",
    # conjugate pairs where f~ is beyond 2^52, so that no float lambda lies
    # in the window (|a+ib| + 1, |a+ib| + 2) of `gram._pair_columns`
    "pair_window": "variables x y\nf: 2*1/3 + y^2\nh: x^2 + 100000000000000000000*10 -x\n"
                   "h: x^2*x + x^2*y\n",
    "pair_window_2": "variables x y\nf: -x^3 -2 + 1/3*x + 10*1\n"
                     "h: -x*y*1 + x^2 + 1 + x^2*2\n"
                     "h: -y^2*100000000000000000000 + x*y + y*10 + 10\n",
    # the nonneg witness has pair values near 1e155: its Gram matrix
    # overflowed to NaN before the pair window stopped it
    "non_finite": "variables x y\nf: 0 + 10 -2*100000000000000000000 -100000000000000000000*x*y\n"
                  "g: 3 + 2*100000000000000000000 + 3 -y\nh: -2 -10*x^2 + x + x^3*x*y\n"
                  "h: x*y -y^2 -x\n",
}


class TestExitCodes:
    @pytest.mark.parametrize("exc, code", EXIT_CODES,
                             ids=[type(exc).__name__ for exc, _ in EXIT_CODES])
    def test_certify_exit_code(self, monkeypatch, capsys, exc, code):
        def fail(inst, ring):
            raise exc

        monkeypatch.setattr(certifier, "certify", fail)
        assert run(["certify", "--input", data_path("four_points.prob")]) == code
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1 and "Traceback" not in err

    def test_the_table_covers_every_error(self):
        table = {type(exc) for exc, _ in EXIT_CODES}
        assert {c for c in vars(errors).values()
                if isinstance(c, type) and issubclass(c, errors.SosCertError)} <= table

    @pytest.mark.parametrize("problem, options", [
        ("split_root", []), ("split_root", ["--mode", "nonneg"]),
        ("huge_f", []), ("huge_f", ["--engine", "sdp"]),
        ("huge_h", []),
        ("pair_window", []), ("pair_window", ["--mode", "nonneg"]),
        ("pair_window_2", ["--mode", "nonneg"]),
        ("non_finite", []), ("non_finite", ["--mode", "nonneg"]),
    ], ids=["split_root", "split_root-nonneg", "huge_f", "huge_f-sdp", "huge_h",
            "pair_window", "pair_window-nonneg", "pair_window_2-nonneg",
            "non_finite", "non_finite-nonneg"])
    def test_float_limits_exit_3(self, tmp_path, capsys, problem, options):
        prob = tmp_path / "in.prob"
        prob.write_text(FLOAT_LIMITS[problem])
        assert run(["certify", "--input", str(prob)] + options) == 3
        err = capsys.readouterr().err
        assert err.startswith("gave up: ") and err.count("\n") == 1


OPTION_SETS = {"none": [], "nonneg": ["--mode", "nonneg"], "sdp": ["--engine", "sdp"]}


def certify_and_verify(tmp_path, text, options):
    """certify's exit code on the problem text, after `verify` has passed
    any certificate it wrote."""
    prob, cert = tmp_path / "p.prob", tmp_path / "p.cert"
    prob.write_text(text)
    if cert.exists():
        cert.unlink()
    code = run(["certify", "--input", str(prob), "--out", str(cert)] + options)
    if cert.exists():
        assert run(["verify", "--input", str(prob), "--certificate", str(cert)]) == 0, text
    return code


# an equation that is exactly 0, before, between and after nonzero ones:
# its cofactor multiplies it and no other
ZERO_EQUATIONS = {
    "first": "variables x\nf: x + 2\nh: 0\nh: x^2 - 1\n",
    "last": "variables x\nf: x + 2\nh: x^2 - 1\nh: 0\n",
    "between": "variables x y\nf: x + y + 3\nh: x^2 - 1\nh: 0\nh: y^2 - 1\n",
    "two_first": "variables x y\nf: x + y + 3\nh: 0\nh: 0*x\nh: x^2 - 1\nh: y^2 - 1\n",
}


class TestZeroEquations:
    @pytest.mark.parametrize("options", sorted(OPTION_SETS))
    @pytest.mark.parametrize("where", sorted(ZERO_EQUATIONS))
    def test_certified_and_verified(self, tmp_path, where, options):
        assert certify_and_verify(tmp_path, ZERO_EQUATIONS[where], OPTION_SETS[options]) == 0
        cert, _ = problem_io.parse_certificate((tmp_path / "p.cert").read_text())
        inst = problem_io.parse_problem(ZERO_EQUATIONS[where])
        assert len(cert.cofactors) == len(inst.h)
        assert all(p.is_zero() for p, h in zip(cert.cofactors, inst.h) if h.is_zero())

    def test_the_ideal_keeps_every_generator(self):
        gens = [Polynomial.zero(1), problem_io.parse_problem(ZERO_EQUATIONS["first"]).h[1]]
        ring = quotient.build_ring(gens)
        assert ring.ideal.generators == gens
        cof = quotient.cofactor_reduce(ring, gens[1] * gens[1])
        assert cof.p_j[0].is_zero() and cof.p_j[1] == gens[1] and cof.remainder.is_zero()


# the pieces of the random problems: small monomials, small integers and
# rationals, 0 and a number beyond float64's 2^53
SWEEP_FACTORS = ["x", "y", "x^2", "x^3", "y^2", "x*y", "1", "2", "3", "10", "1/3", "2/5", "0",
                 "100000000000000000000"]


def _sweep_problem(rng):
    """A two-variable problem: an f, 0 to 2 g and 1 to 3 h, each a signed
    sum of 1 to 4 products of 1 to 3 pieces."""
    def poly():
        terms = ["*".join(rng.choice(SWEEP_FACTORS) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 4))]
        text = ("-" if rng.random() < 0.3 else "") + terms[0]
        return text + "".join(rng.choice((" + ", " -")) + t for t in terms[1:])
    lines = ["variables x y", f"f: {poly()}"]
    lines += [f"g: {poly()}" for _ in range(rng.randint(0, 2))]
    lines += [f"h: {poly()}" for _ in range(rng.randint(1, 3))]
    return "\n".join(lines) + "\n"


class TestRandomSweep:
    def test_certify_never_crashes(self, tmp_path, capsys):
        # every outcome is a certificate that verifies (0), no certificate
        # (2) or exhaustion (3): never a traceback, a parse error or a
        # certificate that fails its own check (4)
        rng = random.Random(20)
        codes = {}
        for _ in range(100):
            text = _sweep_problem(rng)
            for options in OPTION_SETS.values():
                code = certify_and_verify(tmp_path, text, options)
                assert code in (0, 2, 3), (text, options, capsys.readouterr().err)
                codes[code] = codes.get(code, 0) + 1
        assert len(codes) == 3
