import codecs
import contextlib
import decimal
import io
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hkrr.cli
import hkrr.hkprofile
import hkrr.qkbasis
from hkrr.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, render_json, render_markdown, run
from hkrr.cnconst import cn_value
from hkrr.exactpoly import ZERO, Poly, Report, jsonable, rat_str
from hkrr.hkprofile import denominator_check, known_family_prr, profile_from_prr


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    return json.loads(captured.out)


class _Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in hkrr can catch it."""


def _on_alarm(signum, frame):
    raise _Deadline


def write_poly(tmp_path, poly, name="poly.json"):
    path = tmp_path / name
    path.write_text(json.dumps(poly.to_json()))
    return str(path)


class TestCnCommand:
    def test_reference_value(self, capsys):
        report = run_json(capsys, ["cn", "3"])
        assert report["command"] == "cn"
        assert report["results"]["value"] == "4320"
        assert report["results"]["factorization"] == [[2, 5], [3, 3], [5, 1]]

    @pytest.mark.parametrize(
        "argv", [["cn", "4"], ["isotropic", "--n", "3", "--a", "1"], ["qk", "4", "--roots"]]
    )
    def test_deterministic_output_bytes(self, capsys, argv):
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_beyond_sixteen_certifies(self, capsys):
        report = run_json(capsys, ["cn", "17"])
        closed_form = math.prod(math.factorial(2 * k) // 2 for k in range(1, 18))
        assert report["results"]["value"] == str(closed_form)

    def test_stability_is_ignored(self, capsys):
        # The benchmark's certify requests still send --stability.
        ignored = run_json(capsys, ["cn", "7", "--stability", "1"])
        assert ignored["results"] == run_json(capsys, ["cn", "7"])["results"]


class TestQkCommand:
    def test_roots_reported_with_tolerance(self, capsys):
        report = run_json(capsys, ["qk", "2", "--roots", "--laurent-check"])
        roots = report["results"]["roots"]
        assert roots["tolerance"] == 1e-9
        assert roots["values"] == pytest.approx([-3.0, -1.0], abs=1e-9)
        assert report["results"]["laurent_identity"] is True

    def test_k0_roots_are_empty(self, capsys):
        # q_0 = 1 has no roots: an empty list, not an error.
        report = run_json(capsys, ["qk", "0", "--roots"])
        assert report["results"]["roots"]["values"] == []

    def test_poly_round_trip(self, capsys):
        report = run_json(capsys, ["qk", "3"])
        assert Poly.from_json(report["results"]["poly"]) == Poly((4, 10, 6, 1))


    @pytest.mark.parametrize(
        "seam, spoil, message",
        [
            ("_separators", lambda seps: seps[1:], "q_3 does not alternate in sign at 4 ascending separators"),
            ("_separators", lambda seps: [t / 2 for t in seps], "q_3 does not alternate in sign at 4 ascending separators"),
            # The cell's ends are numerators over q_3's grid den, 2^38: each moves by 10^-6.
            ("_root_cell", lambda cell: tuple(x + Fraction(2**38, 10**6) for x in cell), "root "),
        ],
        ids=["count", "alternation", "closed-form"],
    )
    def test_failed_root_cross_check_is_a_defect(self, capsys, monkeypatch, seam, spoil, message):
        # The alternation certificate and the closed-form check of qk_roots
        # catch hkrr's own errors, not bad input.  Halving q_3's separators
        # leaves two of them between the same pair of roots.
        original = getattr(hkrr.qkbasis, seam)
        monkeypatch.setattr(hkrr.qkbasis, seam, lambda *args: spoil(original(*args)))
        assert run(["qk", "3", "--roots"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: internal: AssertionError: {message}")


class TestQrrCommand:
    def test_k3_surface(self, capsys, tmp_path):
        chern = tmp_path / "chern.json"
        chern.write_text(json.dumps({"n": 1, "values": [{"partition": [1], "value": "-24"}]}))
        report = run_json(capsys, ["qrr", "--chern", str(chern)])
        assert Poly.from_json(report["results"]["q_rr"]) == Poly((2, 1))

    def test_bad_file_is_validation_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert run(["qrr", "--chern", str(missing)]) == EXIT_VALIDATION

    def test_large_n_single_partition_does_not_hang(self, capsys, tmp_path):
        # Cost follows the supplied partitions, not every monomial of weight <= n;
        # the 20 s limit is the hang detector.
        chern = tmp_path / "chern.json"
        chern.write_text(json.dumps({"n": 40, "values": [{"partition": [40], "value": 1}]}))
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, 20)
        try:
            report = run_json(capsys, ["qrr", "--chern", str(chern)])
        except _Deadline:
            pytest.fail("qrr still running after 20 s on one partition at n = 40")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert report["results"]["degree"] == 40


class TestProfileCommand:
    def test_family(self, capsys):
        report = run_json(capsys, ["profile", "--family", "split", "--n", "3"])
        res = report["results"]
        assert (res["c_x"], res["n_x"], res["m_x"], res["a_x"]) == ("15", "6", "3", "9/16")
        assert res["roots"]["all_real"] is True

    def test_poly_file(self, capsys, tmp_path):
        path = write_poly(tmp_path, known_family_prr("product", 2))
        report = run_json(capsys, ["profile", "--poly", path])
        assert report["results"]["c_x"] == "9"

    def test_invalid_profile_is_validation_error(self, capsys, tmp_path):
        path = write_poly(tmp_path, Poly((1, 1, 0, 1)))
        assert run(["profile", "--poly", path]) == EXIT_VALIDATION


class TestDecomposeCommand:
    def test_qk_basis(self, capsys, tmp_path):
        path = write_poly(tmp_path, Poly((3, Fraction(25, 8), Fraction(25, 32))))
        report = run_json(capsys, ["decompose", "--poly", path, "--basis", "qk"])
        assert report["results"]["coefficients"] == ["25/32", "21/32"]

    def test_shifted_basis(self, capsys, tmp_path):
        path = write_poly(tmp_path, known_family_prr("split", 3))
        report = run_json(
            capsys, ["decompose", "--poly", path, "--basis", "shifted", "--shift", "6"]
        )
        assert report["results"]["coefficients"] == ["1/48", "-1/12"]

    def test_not_in_span_is_validation_error(self, capsys, tmp_path):
        path = write_poly(tmp_path, Poly((0, 1, 0, 1)))
        assert run(["decompose", "--poly", path, "--basis", "qk"]) == EXIT_VALIDATION

    def test_shift_required_for_shifted_basis(self, capsys, tmp_path):
        path = write_poly(tmp_path, known_family_prr("split", 3))
        assert run(["decompose", "--poly", path, "--basis", "shifted"]) == EXIT_VALIDATION


class TestIsotropicCommand:
    def test_a1_statement(self, capsys):
        report = run_json(capsys, ["isotropic", "--n", "3", "--a", "1"])
        survivors = report["results"]["survivors"]
        assert survivors == [{"q_lm": 1, "n_x": 2}, {"q_lm": 1, "n_x": 6}]
        branches = report["results"]["branches"]
        assert branches[0]["c_x"] == "15" and branches[0]["parity_verdict"] == "even"
        assert branches[1]["status"] == "rejected"

    def test_a2_statement(self, capsys):
        report = run_json(capsys, ["isotropic", "--n", "3", "--a", "2"])
        assert [s["n_x"] for s in report["results"]["survivors"]] == [1, 2, 3, 4]

    def test_unsupported_case_is_validation_error(self, capsys):
        assert run(["isotropic", "--n", "4", "--a", "1"]) == EXIT_VALIDATION

    def test_markdown_renders_same_report(self, capsys):
        report = run_json(capsys, ["isotropic", "--n", "3", "--a", "1"])
        code = run(["isotropic", "--n", "3", "--a", "1", "--markdown"])
        md = capsys.readouterr().out
        assert code == EXIT_OK
        assert md == render_markdown(report)
        # The proof structure is visible: branches, candidates, rules.
        assert "**q_lm**: 1" in md and "**q_lm**: 2" in md
        assert "**rule**: divisibility" in md
        assert "**rule**: gcd" in md


class TestCheckCommand:
    def test_split_family_passes(self, capsys, tmp_path):
        path = write_poly(tmp_path, known_family_prr("split", 3))
        report = run_json(capsys, ["check", "--poly", path, "--n", "3", "--even"])
        assert report["results"]["denominator"]["ok"] is True
        assert report["results"]["even_values"]["ok"] is True

    def test_split_family_n10(self, capsys, tmp_path):
        path = write_poly(tmp_path, known_family_prr("split", 10))
        report = run_json(capsys, ["check", "--poly", path, "--n", "10", "--even"])
        assert report["results"]["even_values"]["integral_on_even"] is True


def _write(tmp_path, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestMalformedInput:
    POLY_ARGV = [
        ["check", "--n", "1", "--even"],
        ["profile"],
        ["decompose", "--basis", "qk"],
    ]

    @pytest.mark.parametrize("argv", POLY_ARGV)
    @pytest.mark.parametrize(
        "coeffs, where",
        [
            ([1.5, 1], "coeffs[0]"),
            ([4, 0.25], "coeffs[1]"),
            ([True, 1], "coeffs[0]"),
            ([2, False], "coeffs[1]"),
            ([2, None], "coeffs[1]"),
            (["1/0", 1], "coeffs[0]"),
            ([2, "x"], "coeffs[1]"),
            (["1e1000000", 1], "coeffs[0]"),
            ([4, "1E3000000"], "coeffs[1]"),
        ],
    )
    def test_bad_coefficient(self, capsys, tmp_path, argv, coeffs, where):
        path = _write(tmp_path, {"coeffs": coeffs})
        assert run(argv[:1] + ["--poly", path] + argv[1:]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {where}: ")

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_integer_literal_past_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text('{"coeffs": [4, ' + "9" * 4301 + "]}")
        assert run(["check", "--poly", str(path), "--n", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: cannot parse {path}: ")

    @pytest.mark.parametrize(
        "chern, where",
        [
            ({"n": 1, "values": [{"partition": [1], "value": -24.0}]}, "values[0].value"),
            ({"n": 1, "values": [{"partition": [1], "value": True}]}, "values[0].value"),
            ({"n": 1, "values": [{"partition": [1.0], "value": -24}]}, "values[0].partition"),
            ({"n": 1, "values": [{"partition": [True], "value": -24}]}, "values[0].partition"),
            ({"n": 1, "values": [{"partition": [1]}]}, "values[0]"),
            ({"n": 1, "values": [{"partition": [1], "value": 2}, {"partition": [1], "value": 3}]}, "values[1]"),
            ({"n": 1.0, "values": []}, "n"),
            ({"n": True, "values": []}, "n"),
            (
                {
                    "n": 3,
                    "values": [
                        {"partition": [1, 1, 1], "value": 1},
                        {"partition": [1, 2], "value": 2},
                        {"partition": [3], "value": "1e1000000"},
                    ],
                },
                "values[2].value",
            ),
        ],
    )
    def test_bad_chern_data(self, capsys, tmp_path, chern, where):
        assert run(["qrr", "--chern", _write(tmp_path, chern)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {where}: ")

    @pytest.mark.parametrize("argv", [["profile", "--poly"], ["qrr", "--chern"]], ids=["profile", "qrr"])
    @pytest.mark.parametrize("wrap", ["{}", '{{"coeffs": {}}}'], ids=["bare", "coeffs"])
    def test_deeply_nested_input(self, capsys, tmp_path, argv, wrap):
        # json.load raises RecursionError past the interpreter's depth limit.
        path = tmp_path / "nested.json"
        path.write_text(wrap.format("[" * 100_000 + "]" * 100_000))
        assert run(argv + [str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"error: cannot parse {path}: ")

    @pytest.mark.parametrize(
        "argv, template",
        [
            (["profile", "--poly"], '{{"coeffs": {}}}'),
            (["qrr", "--chern"], '{{"n": {}, "values": []}}'),
            (["qrr", "--chern"], '{{"n": 1, "values": [{{"partition": {}, "value": 1}}]}}'),
        ],
        ids=["coeffs", "n", "partition"],
    )
    def test_nesting_just_below_parser_limit(self, capsys, tmp_path, argv, template):
        # A value the parser accepted is echoed in the error without
        # recursing as deep as it is nested.
        for depth in range(950, 1001):
            path = tmp_path / f"nested{depth}.json"
            path.write_text(template.format("[" * depth + "1" + "]" * depth))
            assert run(argv + [str(path)]) == EXIT_VALIDATION, depth
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1, depth
            assert captured.err.startswith("error: "), depth

    SPLIT_CUBIC = Poly((4, Fraction(13, 6), Fraction(3, 8), Fraction(1, 48)))

    @pytest.mark.parametrize("shift", ["1e3000000", "1e1000000", "6E0", "x"])
    def test_bad_shift(self, capsys, tmp_path, shift):
        argv = ["decompose", "--poly", write_poly(tmp_path, self.SPLIT_CUBIC), "--basis", "shifted", "--shift", shift]
        assert run(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: --shift: ")

    @pytest.mark.parametrize("shift", ["6", "12/2", "6.0"])
    def test_shift_forms_accepted(self, capsys, tmp_path, shift):
        argv = ["decompose", "--poly", write_poly(tmp_path, self.SPLIT_CUBIC), "--basis", "shifted", "--shift", shift]
        assert run_json(capsys, argv)["inputs"]["shift"] == "6"

    @pytest.mark.parametrize("shift", ["-3/2", "-6", "6"])
    def test_shift_value_attached_or_not(self, capsys, tmp_path, shift):
        # --shift -3/2 is read as --shift=-3/2, though argparse takes "-3/2" for an option.
        s = Fraction(shift)
        path = write_poly(tmp_path, Poly((s, 1)) ** 3 + Poly((s, 1)) * Fraction(-5, 2))
        outputs = []
        for spelling in (["--shift", shift], [f"--shift={shift}"]):
            code = run(["decompose", "--poly", path, "--basis", "shifted", *spelling])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == EXIT_OK
        report = json.loads(outputs[0][1])
        assert report["inputs"]["shift"] == shift and report["results"]["coefficients"] == ["1", "-5/2"]

    @pytest.mark.parametrize("prefix", ["--s", "--sh", "--shi", "--shif", "--shift"])
    @pytest.mark.parametrize("shift", ["-3/2", "-.5", "-6"])
    def test_shift_value_attached_after_an_abbreviation(self, capsys, tmp_path, prefix, shift):
        # argparse takes every prefix of --shift from --s on for it; a negative value follows each.
        path = write_poly(tmp_path, Poly((Fraction(shift), 1)) ** 3)
        outputs = []
        for spelling in ([prefix, shift], [f"--shift={shift}"]):
            code = run(["decompose", "--poly", path, "--basis", "shifted", *spelling])
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == EXIT_OK and json.loads(outputs[0][1])["results"]["coefficients"] == ["1", "0"]

    @pytest.mark.parametrize("shift", ["1e3000000", "6E0", "x", "-1e3", "-3/-2", "-.5e1"])
    def test_bad_shift_either_spelling(self, capsys, tmp_path, shift):
        path = write_poly(tmp_path, self.SPLIT_CUBIC)
        errors = []
        for spelling in (["--shift", shift], [f"--shift={shift}"]):
            assert run(["decompose", "--poly", path, "--basis", "shifted", *spelling]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: --shift: ")
            errors.append(captured.err)
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("after", [["--json"], ["-x"], ["--", "-3/2"], []])
    def test_shift_without_a_value_is_a_usage_error(self, capsys, tmp_path, after):
        argv = ["decompose", "--poly", write_poly(tmp_path, self.SPLIT_CUBIC), "--basis", "shifted", "--shift", *after]
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: argument --shift: expected one argument\n")


def _refuse_limit_change(maxdigits):
    raise AssertionError("hkrr must not change the int-to-str digit limit")


class TestLongNumbers:
    # Each c_x has 4301 digits and C(60) 5,296, past Python's default
    # int-to-str limit of 4,300: reports are written in full, in and out of
    # the CLI, and the limit is never touched.
    @pytest.fixture(autouse=True)
    def limit_switch_refused(self, monkeypatch):
        monkeypatch.setattr(sys, "set_int_max_str_digits", _refuse_limit_change, raising=False)

    @pytest.mark.parametrize(
        "argv, coeffs, keys, c_x",
        [
            (["check", "--n", "3"], [4, 0, 0, "9" * 4298], ("even_values", "c_x"), "719" + "9" * 4295 + "280"),
            (["profile", "--n", "1"], [2, "9" * 4300], ("c_x",), "1" + "9" * 4299 + "8"),
        ],
        ids=["check", "profile"],
    )
    def test_result_past_4300_digits(self, capsys, tmp_path, argv, coeffs, keys, c_x):
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        value = run_json(capsys, argv[:1] + ["--poly", _write(tmp_path, {"coeffs": coeffs})] + argv[1:])["results"]
        for key in keys:
            value = value[key]
        assert value == c_x
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

    def test_library_to_json_equals_cli(self, capsys, tmp_path):
        cli = run_json(capsys, ["cn", "60"])["results"]
        assert len(cli["value"]) == 5296 and int(decimal.Decimal(cli["value"])) == cn_value(60).value
        assert cn_value(60).to_json()["value"] == cli["value"]

        p = known_family_prr("split", 60)
        cli = run_json(capsys, ["check", "--poly", write_poly(tmp_path, p), "--n", "60", "--even"])["results"]
        assert denominator_check(60, p, True).to_json()["c_n"] == cli["denominator"]["c_n"] == cn_value(60).to_json()["value"]

        p = Poly((2, "9" * 4300))
        cli = run_json(capsys, ["profile", "--poly", write_poly(tmp_path, p), "--n", "1"])["results"]
        assert profile_from_prr(1, p).to_json()["c_x"] == cli["c_x"] == "1" + "9" * 4299 + "8"

    def test_inexact_join_is_internal(self, capsys, monkeypatch):
        # The decimal writer's trapped Inexact is a defect (70), not bad input (1).
        monkeypatch.setattr(decimal, "MAX_PREC", 50)
        assert run(["cn", "60"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: AssertionError: inexact decimal join")

    def test_lowest_interpreter_limit(self, capsys):
        # 640 is the lowest limit an interpreter accepts; C(30) has 1,079 digits.
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": str(Path(hkrr.cli.__file__).parents[1])}
        argv = ["cn", "30"]
        proc = subprocess.run([sys.executable, "-m", "hkrr.cli", *argv], env=env, capture_output=True, text=True, timeout=60)
        assert run(argv) == EXIT_OK
        assert (proc.returncode, proc.stderr, proc.stdout) == (EXIT_OK, "", capsys.readouterr().out)


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self, capsys):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_no_subcommand_is_usage(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_missing_required_flag_is_usage(self, capsys):
        assert run(["isotropic", "--n", "3"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [["qk", "-1"], ["cn", "0"], ["cn", "-3"], ["profile", "--family", "split", "--n", "0"]],
    )
    def test_out_of_range_size_is_validation(self, capsys, argv):
        # The library refuses these sizes; the CLI reports that in one line.
        assert run(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_size_above_the_cn_ceiling_is_usage(self, capsys, monkeypatch, tmp_path):
        # Above the ceiling cn and check stop before any work; at it they go
        # on to C(n), here a stub that fails.
        def refuse(n):
            raise RuntimeError(f"cn_value({n}) called")

        monkeypatch.setattr(hkrr.cli, "cn_value", refuse)
        monkeypatch.setattr(hkrr.hkprofile, "cn_value", refuse)
        top = hkrr.cli.CN_MAX_N
        poly = write_poly(tmp_path, Poly((1, 2, 3)))
        for n, code in ((top + 1, EXIT_USAGE), (10**6, EXIT_USAGE), (top, EXIT_INTERNAL)):
            for argv in (["cn", str(n)], ["check", "--poly", poly, "--n", str(n), "--even"]):
                assert run(argv) == code
                captured = capsys.readouterr()
                assert captured.out == "" and len(captured.err.splitlines()) == 1
                if code == EXIT_USAGE:
                    assert captured.err == f"error: n={n} is above the ceiling {top} for C(n)\n"
                else:
                    assert captured.err == f"error: internal: RuntimeError: cn_value({n}) called\n"
        assert run(["check", "--poly", str(tmp_path / "missing.json"), "--n", str(top + 1)]) == EXIT_USAGE

    def test_size_above_the_qrr_ceiling_is_usage(self, capsys, monkeypatch, tmp_path):
        # Above the ceiling qrr stops before q_rr_from_chern, which would allocate
        # n + 1 coefficients even for no values; at it, it goes on, here to a stub that fails.
        def refuse(data):
            raise RuntimeError(f"q_rr_from_chern(n={data.n}) called")

        monkeypatch.setattr(hkrr.cli, "q_rr_from_chern", refuse)
        top = hkrr.cli.QRR_MAX_N
        for n, code in ((top + 1, EXIT_USAGE), (top, EXIT_INTERNAL)):
            for values in ([], [{"partition": [n], "value": 1}], [{"partition": [1] * n, "value": "-1/2"}]):
                assert run(["qrr", "--chern", _write(tmp_path, {"n": n, "values": values})]) == code
                captured = capsys.readouterr()
                assert captured.out == "" and len(captured.err.splitlines()) == 1
                if code == EXIT_USAGE:
                    assert captured.err == f"error: n={n} is above the ceiling {top} for qrr\n"
                else:
                    assert captured.err == f"error: internal: RuntimeError: q_rr_from_chern(n={n}) called\n"

    @pytest.mark.parametrize("argv", [["--version"], ["-h"], ["cn", "--help"]])
    def test_version_and_help_return_zero(self, capsys, argv):
        # argparse ends these with parser.exit(); run returns the code instead.
        assert run(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out
        if argv == ["-h"]:  # a short description and the exit codes, not the module's implementation notes
            assert "0 success, 1 validation error, 64 usage error, 70 internal error" in " ".join(out.split())
            assert "render_json" not in out

    @pytest.mark.parametrize(
        "exc",
        [
            AssertionError("interval does not isolate a simple root"),
            RecursionError("maximum recursion depth exceeded"),
            MemoryError(),
        ],
    )
    def test_internal_error_is_one_line(self, capsys, monkeypatch, exc):
        def broken(args):
            raise exc

        monkeypatch.setitem(hkrr.cli._HANDLERS, "qk", broken)
        assert run(["qk", "3", "--roots"]) == EXIT_INTERNAL == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: internal: {type(exc).__name__}: {exc}\n"


    def test_unwritable_report_is_internal(self, capsys, monkeypatch):
        monkeypatch.setitem(hkrr.cli._HANDLERS, "qk", lambda args: ({}, {"x": object()}, []))
        assert run(["qk", "3"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: TypeError: Object of type object is not JSON serializable\n"


# Quotes, backslashes, control characters, non-ASCII, astral and lone surrogates.
JSON_STRINGS = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from('"\\\x00\x1f\x7f\u2028é😀\ud800\udfff')),
    max_size=6,
)
JSON_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
JSON_KEYS = st.one_of(JSON_STRINGS, st.integers(), JSON_FLOATS, st.booleans(), st.none())
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**4000), 10**4000),  # below the 4,300-digit int-to-str limit
    JSON_FLOATS,
    JSON_STRINGS,
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, kids, max_size=4),
    ),
    max_leaves=30,
)


class TestRenderJson:
    """render_json against json.dumps(indent=2), the oracle it must equal byte for byte."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(tree=JSON_TREES)
    def test_equals_json_dumps(self, tree):
        assert render_json(tree) == json.dumps(tree, indent=2)

    def test_subclasses_are_written_as_their_base(self):
        class Text(str):
            pass

        class Count(int):
            def __repr__(self):
                return "count"

        class Real(float):
            def __repr__(self):
                return "real"

        tree = {Text("k"): [Text("v"), Real(0.5), Real("nan"), Count(7)], Count(3): {Real(2.0): ()}}
        assert render_json(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize(
        "tree", [object(), {"x": object()}, [1, 0.5j], {(1, 2): 0}, [{"a": {frozenset(): 1}}]]
    )
    def test_unwritable_value_raises_as_json_does(self, tree):
        with pytest.raises(TypeError) as expected:
            json.dumps(tree, indent=2)
        with pytest.raises(TypeError) as got:
            render_json(tree)
        assert str(got.value) == str(expected.value)


class Span(NamedTuple):
    low: object
    high: object


@dataclass(frozen=True, repr=False)
class Node(Report):
    label: Fraction
    child: object
    count: int = field(default=0, metadata={"json": rat_str})
    note: object = field(default=None, metadata={"json": lambda v: f"<{type(v).__name__}>"})


FRACTIONS = st.one_of(
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(10**700), 10**700), st.integers(1, 10**700)),
)
REPORT_LEAVES = st.one_of(
    JSON_LEAVES,
    FRACTIONS,
    st.just(ZERO),
    st.lists(FRACTIONS, max_size=6).map(Poly),
    st.frozensets(st.one_of(st.integers(), FRACTIONS), max_size=4),
    st.sets(st.text(max_size=3), max_size=4),
)
REPORT_VALUES = st.recursive(
    REPORT_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers()), kids, max_size=4),
        st.builds(Span, kids, kids),
        st.builds(Node, FRACTIONS, kids, st.integers(), kids),
    ),
    max_leaves=30,
)


class TestRenderReport:
    """render_json of a report value against json.dumps(jsonable(value), indent=2), the tree route it replaced."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(value=REPORT_VALUES)
    def test_equals_the_tree_route(self, value):
        assert render_json(value) == json.dumps(jsonable(value), indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            [1, Fraction(1, 2)],  # unwritable for json.dumps alone; a report value here
            {"poly": ZERO, "p": Poly((Fraction(-1, 3), 0, 2)), 7: {Fraction(1, 2), 0, -3}},
            Node(Fraction(2**3000, 3), Span(Node(Fraction(0), [], -(10**5000)), frozenset()), 10**4400, object()),
            (Span(1, (2, [Fraction(5, 7)])), {"s": {"b", "a"}}),
        ],
        ids=["fraction-in-list", "polys-and-set", "nested-nodes", "named-tuples"],
    )
    def test_report_values(self, value):
        assert render_json(value) == json.dumps(jsonable(value), indent=2)

    @pytest.mark.parametrize("value", [Node(Fraction(1), object()), [Span(1, 1j)], {"k": {1: b"x"}}])
    def test_unwritable_item_raises_as_json_does(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(jsonable(value), indent=2)
        with pytest.raises(TypeError) as got:
            render_json(value)
        assert str(got.value) == str(expected.value)


def former_load_json(path):
    """The text-mode reader that cli._load_json replaced: the oracle for its values and errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"cannot parse {path}: {exc}") from exc


def read_outcome(reader, path):
    try:
        return "value", reader(path)
    except ValueError as exc:
        return "error", str(exc)


READER_FILES = {
    "utf8": '{"coeffs": ["1/2", "é😀"]}'.encode(),
    "utf8-bom": codecs.BOM_UTF8 + b'{"coeffs": [1]}',
    "utf16-bom": '{"coeffs": [1]}'.encode("utf-16"),
    "utf16-no-bom": '{"coeffs": [1]}'.encode("utf-16-le"),
    "utf32-bom": '{"coeffs": [1]}'.encode("utf-32"),
    "invalid-utf8": b'{"coeffs": ["\xff"]}',
    "truncated-utf8": b'{"coeffs": ["\xc3',
    "lone-surrogate": b'{"coeffs": ["\xed\xa0\x80"]}',
    "escaped-lone-surrogate": b'{"coeffs": ["\\ud800"]}',
    "crlf": b'{\r\n  "coeffs": [1,\r\n    "2/3"]\r\n}\r\n',
    "crlf-malformed": b'{\r\n  "coeffs": [1,\r\n    2,\r\n  ]\r\n}\r\n',
    "cr": b'{\r  "coeffs": [1,\r    "2/3"]\r}\r',
    "cr-malformed": b'{\r  "coeffs": [1\r    2]\r}',
    "cr-lf-cr": b'\r\n\r{"coeffs":\n\r\r\n [1, x]}',
    "cr-in-string": b'{"coeffs": ["1\r\n2"]}',
    "empty": b"",
    "nested": b"[" * 100_000 + b"]" * 100_000,
}


class TestInputReader:
    """cli._load_json (bytes, decoded) against the text-mode reader it replaced."""

    @pytest.mark.parametrize("name", sorted(READER_FILES))
    def test_file_agrees_with_text_mode(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_bytes(READER_FILES[name])
        got = read_outcome(hkrr.cli._load_json, str(path))
        assert got == read_outcome(former_load_json, str(path))
        assert got[0] == "value" or len(got[1].splitlines()) == 1

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_path_agrees_with_text_mode(self, tmp_path, kind):
        path = tmp_path if kind == "directory" else tmp_path / "nope.json"
        got = read_outcome(hkrr.cli._load_json, str(path))
        assert got == read_outcome(former_load_json, str(path))
        assert got[1].startswith(f"cannot read {path}: ")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        chunks=st.lists(
            st.sampled_from(
                [b"\r", b"\n", b"\r\n", b" ", b"{", b"}", b"[", b"]", b",", b":", b'"', b"1", b"-2", b"a", b"\\",
                 b"\\n", b"\x00", b"\xff", b"\xc3\xa9", b"\xef\xbb\xbf", b"\xed\xa0\x80", b"\xf0\x9f\x98\x80", b'"k"']
            ),
            max_size=24,
        )
    )
    def test_byte_strings_agree_with_text_mode(self, tmp_path_factory, chunks):
        path = tmp_path_factory.mktemp("reader") / "input.json"
        path.write_bytes(b"".join(chunks))
        assert read_outcome(hkrr.cli._load_json, str(path)) == read_outcome(former_load_json, str(path))

    def test_check_reads_crlf_and_cr_files(self, capsys, tmp_path):
        # The same polynomial with each line ending gives the same report.
        text = json.dumps(known_family_prr("split", 3).to_json(), indent=1)
        outputs = []
        for ending in ("\n", "\r\n", "\r"):
            path = tmp_path / "poly.json"
            path.write_bytes(text.replace("\n", ending).encode())
            outputs.append((run(["check", "--poly", str(path), "--n", "3"]), *capsys.readouterr()))
        assert outputs[0][0] == EXIT_OK and outputs[1:] == [outputs[0]] * 2


def parse_by_the_top_level_parser(parser, argv):
    return parser.parse_args(argv)


README_EXIT_CODES = {EXIT_OK, EXIT_VALIDATION, EXIT_USAGE, EXIT_INTERNAL}


@pytest.fixture(scope="class")
def route_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("routes")
    files = {
        "poly": known_family_prr("split", 3).to_json(),
        "symmetric": Poly((6, 11, 6, 1)).to_json(),
        "chern": {"n": 1, "values": [{"partition": [1], "value": "-24"}]},
    }
    for name, obj in files.items():
        (root / f"{name}.json").write_text(json.dumps(obj))
    return {name: str(root / f"{name}.json") for name in [*files, "missing"]}


def route_outcome(argv, by_top_level, by_table=True):
    """(exit code, stdout, stderr) of run(argv).

    The table parser reads argv first unless by_table is false; what it
    declines is parsed by the command's argparse parser, or by the
    top-level one when by_top_level is set.
    """
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if by_top_level:
            patch.setattr(hkrr.cli, "_parse", parse_by_the_top_level_parser)
        if not by_table:
            patch.setattr(hkrr.cli, "_parse_canonical", lambda argv: None)
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


# A valid argv per command, changed by route_argv, and the spellings it
# inserts: a token, or a tuple of tokens inserted together.
ROUTE_BASES = {
    "cn": [["3"], ["5", "--stability", "1", "--markdown"]],
    "qk": [["4", "--roots", "--laurent-check"]],
    "qrr": [["--chern", "@chern"]],
    "profile": [["--family", "split", "--n", "3"], ["--poly", "@poly"]],
    "decompose": [["--poly", "@symmetric", "--basis", "qk"], ["--poly", "@poly", "--basis", "shifted", "--shift", "-3/2"]],
    "isotropic": [["--n", "3", "--a", "1"]],
    "check": [["--poly", "@poly", "--n", "3", "--even"]],
}
ROUTE_TOKENS = [
    *("--stability", "--roots", "--laurent-check", "--chern", "--family", "--poly", "--n", "--basis", "--shift", "--a"),
    *("--even", "--json", "--markdown", "--", "-h", "--help", "--version", "--frob", "-x", "--=x", "-", "--mark"),
    *("3", "2", "0", "-1", "-3/2", "6", "1/3", "-.5", "x", "split", "product", "qk", "shifted", "@poly", "@missing"),
    # Spellings the table parser must decline or read as argparse does: a
    # repeated option, the empty token (a value to argparse), a value that
    # names an option, a full name joined to its value, and a non-ASCII
    # digit, which int and argparse read as 3.
    *(("--n", "3", "--n", "4"), "", ("--poly", "--n"), "--n=3", "\u0663", ("--n", "\u0663")),
]


@st.composite
def route_argv(draw):
    """A command's valid argv with options abbreviated or joined to their values, and tokens inserted or dropped."""
    command = draw(st.sampled_from(sorted(ROUTE_BASES)))
    tokens = list(draw(st.sampled_from(ROUTE_BASES[command])))
    for i, token in enumerate(tokens):
        if token[:2] == "--" and draw(st.booleans()):
            tokens[i] = token[: draw(st.integers(3, len(token)))]
    joinable = [i for i in range(len(tokens) - 1) if tokens[i][:2] == "--" and tokens[i + 1][:2] != "--"]
    if joinable and draw(st.booleans()):
        i = draw(st.sampled_from(joinable))
        tokens[i : i + 2] = [f"{tokens[i]}={tokens[i + 1]}"]
    if tokens and draw(st.integers(0, 3)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        spelling = draw(st.sampled_from(ROUTE_TOKENS))
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = spelling if isinstance(spelling, tuple) else [spelling]
    return [command, *tokens]


class TestParseRoutes:
    """run by the table parser first, then by each command's own parser, against the top-level parser alone.

    The top-level parser is the route the others replaced.  Whatever argv
    the table parser takes, its namespace is argparse's.
    """

    TABLE = [
        [],
        ["-h"],
        ["--version"],
        ["--vers"],
        ["frobnicate"],
        ["che", "--poly", "@poly", "--n", "3"],
        ["--", "cn", "3"],
        *([command, "-h"] for command in ROUTE_BASES),
        ["check", "--help"],
        ["cn", "3", "--version"],
        ["cn", "3", "--stab", "1", "--mark"],
        ["cn", "--", "3"],
        ["cn", "3", "--", "--json"],
        ["cn", "-3"],
        ["cn", "x"],
        ["cn"],
        ["qk", "4", "--ro", "--lau", "--json"],
        ["qk", "-1", "--roots"],
        ["qk", "4", "--json", "--markdown"],
        ["qrr", "--chern=@chern"],
        ["qrr", "--ch", "@missing"],
        ["qrr"],
        ["profile", "--fam", "split", "--n=3"],
        ["profile", "--family", "split", "--poly", "@poly"],
        ["profile", "--family", "spl", "--n", "3"],
        ["profile", "--poly", "@poly", "--n", "-2"],
        ["profile", "--n", "3"],
        ["decompose", "--poly", "@symmetric", "--ba", "qk"],
        ["decompose", "--poly", "@poly", "--basis", "shifted", "--sh", "-3/2"],
        ["decompose", "--poly", "@poly", "--basis", "shifted", "--s=-6"],
        ["decompose", "--poly", "@poly", "--basis", "shifted", "--shift", "--", "-3/2"],
        ["decompose", "--poly", "@poly", "--basis", "shifted", "--shift"],
        ["decompose", "--poly", "@poly"],
        ["isotropic", "--n", "3", "--a", "1", "--markdown"],
        ["isotropic", "--n", "3"],
        ["isotropic", "--n", "3", "--a", "1", "--frob"],
        ["isotropic", "--n", "3", "--a", "1", "-x", "extra"],
        ["check", "--poly", "@poly", "--n", "3", "--ev", "--markdown"],
        ["check", "--pol=@poly", "--n=3", "--even"],
        ["check", "--poly", "@poly", "--n", "3", "--=x"],
        ["check", "--poly", "@poly", "--n"],
        ["check", "--n", "3"],
    ]

    @pytest.mark.parametrize("argv", TABLE, ids=" ".join)
    def test_table(self, route_files, argv):
        self.assert_routes_agree(route_files, argv)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(argv=route_argv())
    def test_drawn_argv(self, route_files, argv):
        self.assert_routes_agree(route_files, argv)

    @staticmethod
    def assert_routes_agree(files, argv):
        for name, path in files.items():
            argv = [token.replace(f"@{name}", path) for token in argv]
        args = hkrr.cli._parse_canonical(argv)
        if args is not None:
            assert vars(args) == vars(hkrr.cli.build_parser().parse_args(argv))
        got = route_outcome(argv, by_top_level=False)
        assert got == route_outcome(argv, by_top_level=False, by_table=False)
        assert got == route_outcome(argv, by_top_level=True, by_table=False)
        code, out, err = got
        assert code in README_EXIT_CODES and "Traceback" not in err
        assert (code == EXIT_OK) == (err == "") and (out == "") == (code != EXIT_OK)


# Each command that reads a file, with the file's place marked "@file".
FILE_ARGV = {
    "check": [["check", "--poly", "@file", "--n", "3"], ["check", "--poly", "@file", "--n", "2", "--even"]],
    "profile": [["profile", "--poly", "@file"], ["profile", "--poly", "@file", "--n", "4"]],
    "decompose": [
        ["decompose", "--poly", "@file", "--basis", "qk"],
        ["decompose", "--poly", "@file", "--basis", "shifted", "--shift", "-3/2"],
    ],
    "qrr": [["qrr", "--chern", "@file"]],
}
POLY_COMMANDS = ("check", "profile", "decompose")

# Well-formed JSON of the wrong shape: (commands, file content).
MALFORMED_FILES = [
    *((POLY_COMMANDS, {"coeffs": coeffs}) for coeffs in (5, "1", None, {}, {"0": 1}, [1.5], [2, 0.25], [True, 1])),
    *((POLY_COMMANDS, {"coeffs": coeffs}) for coeffs in ([[1], 2], [1, [2, 3]], ["1/0"], [1, "1e5"], ["2E3"], [])),
    *((POLY_COMMANDS, {"coeffs": coeffs}) for coeffs in ([0], [0, 0], [3], ["1/2", 0, "-1/3"], [1, 0, 0, 0, 0, 1])),
    *((POLY_COMMANDS, obj) for obj in ([], [1, 2], 3, "x", None, {"coeff": [1, 2]})),
    (("qrr",), {"n": 1, "values": [{"value": 1}]}),
    (("qrr",), {"n": 2, "values": [{"partition": [0, 2], "value": 1}]}),
    (("qrr",), {"n": 2, "values": [{"partition": [-1, 3], "value": 1}]}),
    (("qrr",), {"n": 2, "values": [{"partition": [1], "value": 1}]}),
    (("qrr",), {"n": 2, "values": [{"partition": [], "value": 1}]}),
    (("qrr",), {"n": 2, "values": [{"partition": [1.5, 0.5], "value": 1}]}),
    (("qrr",), {"n": 2, "values": [{"partition": "2", "value": 1}]}),
    (("qrr",), {"n": 2, "values": [{"partition": [[2]], "value": 1}]}),
    (("qrr",), {"n": 2, "values": [{"partition": [2], "value": "1/0"}]}),
    (("qrr",), {"n": 2, "values": [{"partition": [2], "value": [1]}]}),
    (("qrr",), {"n": 2, "values": [[2]]}),
    (("qrr",), {"n": 2, "values": {}}),
    (("qrr",), {"n": 2}),
    (("qrr",), {"n": 0, "values": []}),
    (("qrr",), {"n": -1, "values": []}),
    (("qrr",), {"n": "2", "values": []}),
    (("qrr",), {"n": 3, "values": []}),
    (("qrr",), []),
]

_ITEM = st.one_of(
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.sampled_from(["1/0", "1e5", "2E3", "-3/4", "x", "", "1/2", "0/5", "-0", "1.5", "+3", " 4", "1/-2"]),
    st.lists(st.integers(-3, 3), max_size=2),
)


def _mostly(usual, other):
    """usual three times in four, other (the wrong type) once."""
    return st.one_of(usual, usual, usual, other)


@st.composite
def malformed_file(draw):
    """(command, file content): a polynomial or Chern data file, mostly of the right shape, with wrong items."""
    command = draw(st.sampled_from(sorted(FILE_ARGV)))
    if command != "qrr":
        coeffs = draw(_mostly(st.lists(_mostly(st.integers(-9, 9), _ITEM), max_size=6), _ITEM))
        return command, draw(st.sampled_from([{"coeffs": coeffs}, {"coeffs": coeffs}, {"coeffs": coeffs, "x": 1}, coeffs]))
    entry = _mostly(
        st.fixed_dictionaries(
            {"partition": _mostly(st.lists(_mostly(st.integers(-1, 4), _ITEM), max_size=4), _ITEM), "value": _ITEM}
        ),
        st.one_of(st.fixed_dictionaries({"value": _ITEM}), _ITEM),
    )
    n = draw(_mostly(st.integers(-1, 4), _ITEM))
    return command, {"n": n, "values": draw(_mostly(st.lists(entry, max_size=3), _ITEM))}


class TestMalformedFiles:
    """Well-formed JSON of the wrong shape, through run, for every command that reads a file."""

    @pytest.mark.parametrize("commands, obj", MALFORMED_FILES, ids=lambda v: json.dumps(v)[:60])
    def test_table(self, tmp_path, commands, obj):
        for command in commands:
            self.assert_classified(tmp_path, command, obj)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=malformed_file())
    def test_drawn(self, tmp_path_factory, case):
        self.assert_classified(tmp_path_factory.mktemp("malformed"), *case)

    @staticmethod
    def assert_classified(root, command, obj):
        path = root / "input.json"
        path.write_text(json.dumps(obj))
        for argv in FILE_ARGV[command]:
            argv = [str(path) if token == "@file" else token for token in argv]
            code, out, err = route_outcome(argv, by_top_level=False)
            assert code in README_EXIT_CODES and code != EXIT_INTERNAL, (argv, obj, err)
            assert "Traceback" not in err and len(err.splitlines()) == (code != EXIT_OK), (argv, obj, err)
            assert (code == EXIT_OK) == (out != ""), (argv, obj)
            if out:
                assert json.loads(out)["command"] == command


class TestSharedParser:
    def test_calls_in_one_process_match_fresh_parsers(self, capsys, tmp_path):
        # One parser serves every call of a process; no call may leave state
        # (a default, an option value, a chosen subparser) that a later one sees.
        poly = write_poly(tmp_path, known_family_prr("split", 3))
        symmetric = write_poly(tmp_path, Poly((6, 11, 6, 1)), "symmetric.json")  # q_3 + q_1
        calls = [
            ["qk", "3", "--roots", "--markdown"],
            ["qk", "3", "--roots"],
            ["profile", "--family", "split", "--n", "3"],
            ["profile", "--poly", poly],
            ["decompose", "--poly", poly, "--basis", "shifted", "--shift", "6"],
            ["decompose", "--poly", poly, "--basis", "shifted"],
            ["decompose", "--poly", symmetric, "--basis", "qk"],
            ["isotropic", "--n", "3"],
            ["cn", "3"],
            ["--version"],
            ["decompose", "--poly", poly, "--basis", "shifted", "--sh", "-3/2", "--mark"],
            ["decompose", "--poly", poly, "--basis", "shifted", "--=x"],
            ["check", "-h"],
            ["check", "--poly", poly, "--n", "3"],
        ]

        def outcome(argv):
            code = run(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        hkrr.cli.build_parser.cache_clear()
        shared = [outcome(argv) for argv in calls]
        assert hkrr.cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            hkrr.cli.build_parser.cache_clear()
            fresh.append(outcome(argv))
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes == [EXIT_OK] * 5 + [EXIT_VALIDATION, EXIT_OK, EXIT_USAGE, EXIT_OK, 0, EXIT_VALIDATION, EXIT_USAGE, 0, 0]
        assert shared[9][1] == f"hkrr {hkrr.__version__}\n"


class TestParserBuilds:
    """A well-formed request is read by the table parser alone; argparse is built only for what it declines."""

    @staticmethod
    def run_quietly(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return run(argv)

    def test_well_formed_requests_build_no_parser(self, route_files):
        hkrr.cli.build_parser.cache_clear()
        for command, bases in ROUTE_BASES.items():
            for base in bases:
                if "-3/2" in base:  # a negative value is argparse's to read
                    continue
                argv = [command, *(route_files[t[1:]] if t[:1] == "@" else t for t in base)]
                assert hkrr.cli._parse_canonical(argv) is not None, argv
                self.run_quietly(argv)
        assert hkrr.cli.build_parser.cache_info().misses == 0

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--version"],
            ["cn", "x"],
            ["qk", "4", "--ro"],
            ["profile", "--family", "split", "--n", "3", "--n", "4"],
            ["cn", "3", "--stability", "-1"],
            ["qk", "-1"],
            ["isotropic", "--n=3", "--a", "1"],
            ["decompose", "--poly", "@poly", "--basis", "shifted", "--shift", "-3/2"],
        ],
        ids=" ".join,
    )
    def test_other_argv_builds_the_parser_once(self, route_files, argv):
        # Among these, an abbreviation, a repeated option and a value that
        # starts with "-" parse, by argparse, to a valid namespace.
        argv = [route_files[t[1:]] if t[:1] == "@" else t for t in argv]
        hkrr.cli.build_parser.cache_clear()
        self.run_quietly(argv)
        assert hkrr.cli.build_parser.cache_info().misses == 1

    def test_well_formed_request_imports_no_argparse(self):
        code = (
            "import sys; from hkrr.cli import run; run(['qk', '3', '--roots']); seen = ['argparse' in sys.modules];"
            " run(['qk', '3', '--ro']); print(seen + ['argparse' in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(hkrr.cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[False, True]"


def former_parsers():
    """The hand-written argparse declarations that the option table replaced: {name: parser}, "" the top level.

    They are declared on the class of cli's parser, which raises on a usage
    error and attaches a negative value to ``decompose --shift``.
    """
    parser = type(hkrr.cli.build_parser())(
        prog="hkrr",
        description="Exact reports on Riemann-Roch polynomials of holomorphic-symplectic manifolds.",
        epilog="exit codes: 0 success, 1 validation error, 64 usage error, 70 internal error",
    )
    parser.add_argument("--version", action="version", version=f"hkrr {hkrr.__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    parsers = {"": parser}

    def command(name, summary, *arguments, **kwargs):
        parsers[name] = p = sub.add_parser(name, help=summary, **kwargs)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        return p

    def output_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", dest="fmt", action="store_const", const="json")
        group.add_argument("--markdown", dest="fmt", action="store_const", const="markdown")
        p.set_defaults(fmt="json")

    cn = command("cn", "certified gcd constant C(n)", (["n"], {"type": int}))
    cn.add_argument("--stability", type=int, help="ignored: C(n) is certified from its witness tuple, with no search")
    output_flags(cn)
    qk = command("qk", "basis polynomial q_k, roots, Laurent identity", (["k"], {"type": int}))
    qk.add_argument("--roots", action="store_true")
    qk.add_argument("--laurent-check", action="store_true")
    output_flags(qk)
    output_flags(
        command("qrr", "Riemann-Roch polynomial from Chern data", (["--chern"], {"required": True, "metavar": "FILE"}))
    )
    profile = command("profile", "invariant bundle of a candidate polynomial")
    source = profile.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=["split", "product"])
    source.add_argument("--poly", metavar="FILE")
    profile.add_argument("--n", type=int, default=None)
    output_flags(profile)
    output_flags(
        command(
            "decompose",
            "decompose into the q_k or shifted-power basis",
            (["--poly"], {"required": True, "metavar": "FILE"}),
            (["--basis"], {"required": True, "choices": ["qk", "shifted"]}),
            (["--shift"], {"default": None, "metavar": "RAT"}),
            rational_options=("--shift",),
        )
    )
    output_flags(
        command(
            "isotropic",
            "dimension-6 isotropic case analysis",
            (["--n"], {"type": int, "required": True}),
            (["--a"], {"type": int, "required": True}),
        )
    )
    check = command(
        "check",
        "denominator and even-value checks",
        (["--poly"], {"required": True, "metavar": "FILE"}),
        (["--n"], {"type": int, "required": True}),
    )
    check.add_argument("--even", action="store_true")
    output_flags(check)
    return parsers


class TestOptionTable:
    """The argparse parser built from the option table against the declarations it replaced."""

    def test_help_and_usage_equal_the_former_parser(self):
        former, built = former_parsers(), hkrr.cli.build_parser()
        assert sorted(former) == sorted(["", *built.commands])
        for name, parser in former.items():
            got = built.commands[name] if name else built
            assert (got.format_help(), got.format_usage()) == (parser.format_help(), parser.format_usage()), name

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv=route_argv())
    def test_namespaces_equal_the_former_parser(self, argv):
        # Each argv is parsed by both top-level parsers, with no file read;
        # an argv one refuses the other refuses too.
        argv = [token.replace("@", "") for token in argv]
        outcomes = []
        for parser in (former_parsers()[""], hkrr.cli.build_parser()):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    outcomes.append(vars(parser.parse_args(argv)))
                except (SystemExit, hkrr.cli._UsageError):
                    outcomes.append(None)
        assert outcomes[0] == outcomes[1]


class TestReportShape:
    @pytest.mark.parametrize(
        "argv",
        [
            ["cn", "2"],
            ["qk", "1", "--roots"],
            ["profile", "--family", "product", "--n", "2"],
            ["isotropic", "--n", "3", "--a", "1"],
        ],
    )
    def test_every_report_has_the_envelope(self, capsys, argv):
        report = run_json(capsys, argv)
        assert set(report) == {"command", "inputs", "results", "claims"}
        assert isinstance(report["claims"], list) and report["claims"]

    @pytest.mark.parametrize(
        "argv",
        [["cn", "3"], ["qk", "2", "--roots"], ["isotropic", "--n", "3", "--a", "2"]],
    )
    def test_json_round_trips(self, capsys, argv):
        report = run_json(capsys, argv)
        assert json.loads(json.dumps(report)) == report
