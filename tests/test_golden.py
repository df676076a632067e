"""Every command-line example in README prints a byte-exact, recorded report.

The examples are read from README's command-line block and run from
``tests/golden/``, which holds their input files and, for each example,
the report it printed when the recording was made.  ``EXTRA_EXAMPLES``
pins report paths the README examples do not reach: other families and
root methods, the non-even check, the a = 2 sieve, markdown output,
sparse Chern data (missing and zero values, keys out of order), and
larger sizes: profiles at n = 12 and 20, q_20, a degree-20 rational
q_k decomposition (the split family's Q_RR) and a rational shift.
"""

import re
import shlex
from pathlib import Path

import pytest

from hkrr.cli import EXIT_OK, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

EXTRA_EXAMPLES = [
    ["isotropic", "--n", "3", "--a", "2"],
    ["profile", "--family", "split", "--n", "1"],
    ["profile", "--family", "product", "--n", "2"],
    ["profile", "--family", "product", "--n", "6"],
    ["check", "--poly", "p.json", "--n", "3"],
    ["cn", "7", "--markdown"],
    ["isotropic", "--n", "3", "--a", "2", "--markdown"],
    ["qk", "5", "--roots", "--laurent-check", "--markdown"],
    ["qrr", "--chern", "chern8.json"],
    ["profile", "--family", "split", "--n", "12"],
    ["profile", "--family", "product", "--n", "20"],
    ["qk", "20", "--roots", "--laurent-check"],
    ["decompose", "--poly", "q20.json", "--basis", "qk"],
    ["decompose", "--poly", "s.json", "--basis", "shifted", "--shift", "1/3"],
]


def readme_examples() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.strip().splitlines()]


def golden_path(argv: list[str]) -> Path:
    suffix = ".out.md" if "--markdown" in argv else ".out.json"
    return GOLDEN / (re.sub(r"[^a-z0-9]+", "-", " ".join(argv)).strip("-") + suffix)


def check_report(argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert captured.out == golden_path(argv).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_report_is_byte_identical(argv, capsys, monkeypatch):
    check_report(argv, capsys, monkeypatch)


@pytest.mark.parametrize("argv", EXTRA_EXAMPLES, ids=" ".join)
def test_extra_report_is_byte_identical(argv, capsys, monkeypatch):
    check_report(argv, capsys, monkeypatch)
