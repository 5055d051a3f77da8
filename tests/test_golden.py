"""Byte-level golden reports for the bundled fixtures and generated algebras.

The files under tests/golden were written by `leibnil profile` and `leibnil
check` (stdout as .txt, `--json` as .json); a refactor that changes any
report byte fails here. The `search_*.txt` stdout goldens are read by
tests/test_cli.py, next to the corpus reports in bench/golden.
"""

import json

import pytest

from leibnil.cli import main

from .conftest import FIXTURES, GOLDEN

CASES = {
    "profile_abelian2": ["profile", "abelian2"],
    "profile_a2": ["profile", "a2"],
    "profile_l2": ["profile", "l2"],
    "profile_h3": ["profile", "h3"],
    "profile_h3_center": ["profile", "h3", "--ideal", "center"],
    "profile_abelian2_zero": ["profile", "abelian2", "--ideal", "zero"],
    "check_abelian2": ["check", "abelian2"],
    "check_a2": ["check", "a2"],
    "check_l2": ["check", "l2"],
    "check_h3": ["check", "h3"],
    "check_broken": ["check", "broken"],
}

# Relabelled copies f_{p(i)} = s_i e_i, with constants c s_i s_j s_k, of two
# families whose indices are known, written out here so fixtures/ stays as is.
GENERATED = {
    # S_4: [e_i, e_1] = e_i for i >= 2, with p = (3, 1, 4, 2) and s = (-1, 1, -1, 1).
    # Right powers reach a nonzero fixed point: the NEVER path, where the
    # general powers and the strong filtration run to nmax with -1 pivots.
    "profile_s4_signed": (
        {"name": "s4_signed", "dim": 4, "field": {"type": "Q"},
         "constants": [[1, 3, 1, "-1"], [2, 3, 2, "-1"], [4, 3, 4, "-1"]]},
        64),
    # NF_4: [e_i, e_1] = e_{i+1}, with p = (2, 4, 1, 3) and s = (1, -1, -1, 1).
    # Right, general and strong indices are all 5; nmax is the bound 4*5^2 - 2*5 + 1.
    "profile_nf4_signed": (
        {"name": "nf4_signed", "dim": 4, "field": {"type": "Q"},
         "constants": [[1, 2, 3, "-1"], [2, 2, 4, "-1"], [4, 2, 1, "1"]]},
        91),
}


# `check` prints at most five failing right triples and then "... and N more";
# this 3-dim Q algebra, with fractional and negative constants, fails 17.
CHECK_GENERATED = {
    "check_q3_failing": {
        "name": "q3_failing", "dim": 3, "field": {"type": "Q"},
        "constants": [[1, 1, 2, "1/2"], [1, 2, 3, "-2"], [2, 3, 1, "3"],
                      [3, 1, 1, "-1/3"], [3, 3, 2, "1"]]},
}


# NF_5: [e_i, e_1] = e_{i+1}, with p = (3, 5, 1, 4, 2) and s = (1, -1, 1, 1, -1);
# "tail" is span(e_2..e_5), that is span(f_5, f_1, f_4, f_2).
NF5_SIGNED = {
    "name": "nf5_signed", "dim": 5, "field": {"type": "Q"},
    "constants": [[1, 3, 4, "1"], [3, 3, 5, "-1"], [4, 3, 2, "-1"], [5, 3, 1, "-1"]],
    "ideals": {"tail": [["0", "0", "0", "0", "1"], ["1", "0", "0", "0", "0"],
                        ["0", "0", "0", "1", "0"], ["0", "1", "0", "0", "0"]]},
}

# The inclusion checks read the series at min(nmax, 10). These pin that cut
# below, at and above 10; l2 at 12 runs check (c), since its Es(B) is right nil.
CUT_CASES = {
    **{f"profile_nf5_signed_{ideal}_nmax{nmax}":
       (NF5_SIGNED, ["--nmax", str(nmax)] + (["--ideal", ideal] if ideal != "full" else []))
       for ideal in ("full", "tail") for nmax in (2, 3, 10, 11)},
    **{f"profile_s4_signed_nmax{nmax}":
       (GENERATED["profile_s4_signed"][0], ["--nmax", str(nmax)]) for nmax in (3, 10)},
    "profile_a2_nmax12": ("a2", ["--nmax", "12"]),
    "profile_l2_nmax12": ("l2", ["--nmax", "12"]),
    # Profiles whose check (c) needs B^{2l} past nmax: l = 2 for h3 and l2
    # (Es_1-right nil) at 2, and l = 3, 4 for NF_4 (Es_3-right nil) at 3 and
    # 4. They were recorded when such checks were decided by sampling.
    "profile_h3_nmax2": ("h3", ["--nmax", "2"]),
    "profile_l2_nmax2": ("l2", ["--nmax", "2"]),
    **{f"profile_nf4_signed_nmax{nmax}":
       (GENERATED["profile_nf4_signed"][0], ["--nmax", str(nmax)]) for nmax in (3, 4)},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name, tmp_path, capsys):
    command, fixture, *flags = CASES[name]
    out = tmp_path / "report.json"
    expected_code = 1 if fixture == "broken" else 0
    assert main([command, str(FIXTURES / f"{fixture}.json"), *flags,
                 "--json", str(out)]) == expected_code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(
    [name for name in CASES if name.startswith("check_")] + list(CHECK_GENERATED)))
def test_check_stdout_matches_golden(name, tmp_path, capsys):
    if name in CHECK_GENERATED:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(CHECK_GENERATED[name]))
    else:
        path = FIXTURES / f"{CASES[name][1]}.json"
    out = tmp_path / "report.json"
    code = main(["check", str(path), "--json", str(out)])
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert code == (0 if expected["right_leibniz"] else 1)
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_profile_matches_golden_bytes(name, tmp_path, capsys):
    data, nmax = GENERATED[name]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["profile", str(path), "--nmax", str(nmax), "--json", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(CUT_CASES))
def test_inclusion_cut_matches_golden_bytes(name, tmp_path, capsys):
    source, flags = CUT_CASES[name]
    if isinstance(source, str):
        path = FIXTURES / f"{source}.json"
    else:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(source))
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["profile", str(path), *flags, "--json", str(out)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
