"""The standing byte-identity sweep: `check` and `profile` on a fixed input set.

Inputs are every fixture plus signed relabelled copies of NF_n ([e_i, e_1] =
e_{i+1}, with its `tail` ideal span(e_2..e_n)) and S_n ([e_i, e_1] = e_i for
i >= 2), n = 2..7. Each input gets one `check`, and one `profile` per named
ideal (and the full algebra) at every depth in NMAX, with each of FLAGS. The
digest of a case covers its exit code, stdout, stderr and `--json` bytes, so
any change in any report byte fails the case by name.

tests/golden/standing_sweep.sha256 holds one `<sha256> <case>` line per case.
After a deliberate report change, rewrite it with

    PYTHONPATH=src python -m tests.test_standing_sweep
"""

import hashlib
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from random import Random

import pytest

from leibnil.cli import main

from .conftest import FIXTURES, GOLDEN

DIGESTS = GOLDEN / "standing_sweep.sha256"
FIXTURE_INPUTS = ["abelian2", "a2", "l2", "h3", "broken"]
NMAX = (2, 3, 10, 12, 64)
FLAGS = {"plain": [], "kmax1": ["--kmax", "1"], "seed7": ["--seed", "7"]}


def _family_data(name: str, n: int, rng: Random) -> dict:
    """The algebra file of the copy f_{p(i)} = s_i e_i of NF_n or S_n."""
    if name == "NF":
        constants = [(i, 1, i + 1) for i in range(1, n)]
    else:
        constants = [(i, 1, i) for i in range(2, n + 1)]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    data = {"name": f"{name}{n}_relabelled", "dim": n, "field": {"type": "Q"},
            "constants": [[perm[i - 1], perm[j - 1], perm[k - 1],
                           sign[i - 1] * sign[j - 1] * sign[k - 1]]
                          for i, j, k in constants]}
    if name == "NF":
        data["ideals"] = {"tail": [[1 if c == perm[i - 1] else 0 for c in range(1, n + 1)]
                                   for i in range(2, n + 1)]}
    return data


def generated_inputs() -> dict[str, dict]:
    rng = Random(2016)
    return {f"{name}{n}": _family_data(name, n, rng)
            for name in ("NF", "S") for n in range(2, 8)}


INPUTS = FIXTURE_INPUTS + list(generated_inputs())


def _run(argv: list[str], json_path: Path) -> str:
    """sha256 of the exit code, stdout, stderr and --json bytes of one CLI run."""
    json_path.unlink(missing_ok=True)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--json", str(json_path)])
    digest = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        digest.update(part.encode() + b"\0")
    digest.update(json_path.read_bytes() if json_path.exists() else b"<none>")
    return digest.hexdigest()


def input_digests(name: str, workdir: Path) -> dict[str, str]:
    """Case name -> digest, for every case run on one input."""
    if name in FIXTURE_INPUTS:
        path = FIXTURES / f"{name}.json"
        data = json.loads(path.read_text())
    else:
        data = generated_inputs()[name]
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data))
    report = workdir / "report.json"
    digests = {f"check/{name}": _run(["check", str(path)], report)}
    for ideal in ["full", *data.get("ideals", {})]:
        ideal_flags = [] if ideal == "full" else ["--ideal", ideal]
        for nmax in NMAX:
            for flag_name, flags in FLAGS.items():
                argv = ["profile", str(path), *ideal_flags, "--nmax", str(nmax), *flags]
                digests[f"profile/{name}/{ideal}/nmax{nmax}/{flag_name}"] = _run(argv, report)
    return digests


def recorded() -> dict[str, str]:
    lines = DIGESTS.read_text().splitlines()
    return {case: digest for digest, case in (line.split(" ", 1) for line in lines)}


@pytest.mark.parametrize("name", INPUTS)
def test_reports_match_their_recorded_digests(name, tmp_path):
    expected = {case: d for case, d in recorded().items()
                if case.split("/")[1] == name}
    actual = input_digests(name, tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = sorted(case for case in actual if actual[case] != expected[case])
    assert not changed, f"report bytes changed: {', '.join(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cases = {}
        for name in INPUTS:
            cases.update(input_digests(name, Path(tmp)))
    DIGESTS.write_text("".join(f"{d} {case}\n" for case, d in cases.items()))
    print(f"wrote {len(cases)} digests to {DIGESTS}")
