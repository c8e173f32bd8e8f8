import pytest

from soscert import certifier, cli, problem_io, quotient, verify_bounds
from soscert.errors import ParseError

from conftest import data_path, load_problem


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

    def test_one_ring_per_certify(self, tmp_path, monkeypatch, capsys):
        # certify verifies its own output in the ring it certified in
        calls = []
        groebner = quotient.groebner
        monkeypatch.setattr(quotient, "groebner", lambda gens: calls.append(gens) or groebner(gens))
        out = tmp_path / "cert.txt"
        assert run(["certify", "--input", data_path("four_points.prob"), "--out", str(out)]) == 0
        assert "identity: ok" in capsys.readouterr().out
        assert len(calls) == 1

    def test_seed_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["certify", "--input", data_path("four_points.prob"),
                        "--seed", "11", "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestVerify:
    def test_transcribed_certificates(self):
        assert run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", data_path("four_points_strict.cert")]) == 0
        assert run(["verify", "--input", data_path("cusp_circle_shifted.prob"),
                    "--certificate", data_path("cusp_circle_shifted.cert")]) == 0
        assert run(["verify", "--input", data_path("cusp_circle.prob"),
                    "--certificate", data_path("cusp_circle_x.cert")]) == 0

    def test_mutated_certificate_exits_4(self, tmp_path, capsys):
        text = open(data_path("four_points_strict.cert")).read()
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
        for line in open(data_path("four_points_strict.cert")).read().splitlines():
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

    def test_extra_block_exits_4(self, tmp_path, capsys):
        # four_points has one g, so a certificate has at most blocks 0 and 1
        text = open(data_path("four_points_strict.cert")).read()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace("cofactor 1", "block 2\nweight 1 square x\ncofactor 1", 1))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 4
        assert ("verification failed: shape: 3 blocks, but the problem has 2 multipliers"
                in capsys.readouterr().err)

    def test_extra_cofactor_exits_4(self, tmp_path, capsys):
        # a third cofactor on a two-equation problem cannot be ignored
        text = open(data_path("four_points_strict.cert")).read()
        bad = tmp_path / "bad.cert"
        bad.write_text(text + "cofactor 3 x\n")
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 4
        assert ("verification failed: shape: 3 cofactors, but the problem has 2 equations"
                in capsys.readouterr().err)

    def test_second_cofactor_line_exits_1(self, tmp_path, capsys):
        # a repeated index must not silently replace the first cofactor
        text = open(data_path("four_points_strict.cert")).read()
        bad = tmp_path / "bad.cert"
        bad.write_text(text + "cofactor 1 0\n")
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert "line 15: second `cofactor 1` line" in capsys.readouterr().err

    def test_unknown_mode_exits_1(self, tmp_path, capsys):
        text = open(data_path("four_points_strict.cert")).read()
        bad = tmp_path / "bad.cert"
        bad.write_text(text.replace("mode strict", "mode strictly"))
        code = run(["verify", "--input", data_path("four_points.prob"),
                    "--certificate", str(bad)])
        assert code == 1
        assert "line 1: mode must be one of strict, nonneg" in capsys.readouterr().err

    def test_variable_mismatch_exits_1(self, tmp_path):
        text = open(data_path("four_points_strict.cert")).read()
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

    def test_with_constant(self, capsys):
        assert run(["bounds", "--input", data_path("four_points.prob"),
                    "--constant", "1.5"]) == 0
        assert "gram_height" in capsys.readouterr().out


class TestProblemIO:
    def test_problem_round_trip(self, four_points):
        text = problem_io.format_problem(four_points)
        again = problem_io.parse_problem(text)
        assert problem_io.format_problem(again) == text

    def test_options_parsed(self):
        inst = problem_io.parse_problem(
            "variables x\nf: x + 3\nh: x^2 - 1\noption mode strict\n"
            "option seed 5\n")
        assert inst.options == {"mode": "strict", "seed": 5}

    @pytest.mark.parametrize("key,value", [("mode", "nonnegative"), ("engine", "simplex")])
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
        for value in certifier.OPTION_CHOICES[key]:
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

    def test_polynomial_before_variables(self):
        with pytest.raises(ParseError):
            problem_io.parse_problem("f: x\nvariables x\nh: x^2\n")

    def test_certificate_requires_blocks(self):
        with pytest.raises(ParseError):
            problem_io.parse_certificate("mode strict\nvariables x\n")
