"""Every command-line example in README prints a byte-exact, recorded report.

The examples are read from README's command-line block and run from
``tests/golden/``, which holds their input files and, for each example,
the JSON report it printed when the recording was made.
"""

import re
import shlex
from pathlib import Path

import pytest

from hkrr.cli import EXIT_OK, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_examples() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.strip().splitlines()]


def golden_path(argv: list[str]) -> Path:
    return GOLDEN / (re.sub(r"[^a-z0-9]+", "-", " ".join(argv)).strip("-") + ".out.json")


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_report_is_byte_identical(argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert captured.out == golden_path(argv).read_text(encoding="utf-8")
