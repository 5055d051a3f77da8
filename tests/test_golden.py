"""Byte-level golden reports for the bundled fixtures.

The files under tests/golden were written by `leibnil profile --json` and
`leibnil check --json`; a refactor that changes any report byte fails here.
"""

from pathlib import Path

import pytest

from leibnil.cli import main

from .conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "profile_abelian2": ["profile", "abelian2"],
    "profile_a2": ["profile", "a2"],
    "profile_l2": ["profile", "l2"],
    "profile_h3": ["profile", "h3"],
    "profile_h3_center": ["profile", "h3", "--ideal", "center"],
    "check_abelian2": ["check", "abelian2"],
    "check_a2": ["check", "a2"],
    "check_l2": ["check", "l2"],
    "check_h3": ["check", "h3"],
    "check_broken": ["check", "broken"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, tmp_path, capsys):
    command, fixture, *flags = CASES[name]
    out = tmp_path / "report.json"
    expected_code = 1 if fixture == "broken" else 0
    assert main([command, str(FIXTURES / f"{fixture}.json"), *flags,
                 "--json", str(out)]) == expected_code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
