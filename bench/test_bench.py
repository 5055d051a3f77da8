"""Self-test for the benchmark: every workload at a tiny size, in-process.

    python3 -m pytest bench/test_bench.py -q

Checks that each metric named in BENCHMARK.json is emitted with its unit,
that the gates can fail, and that the benchmark refuses to run without the
library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spec_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads_and_metrics_the_benchmark_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert spec_units("end_to_end") == run.END_TO_END_UNITS
    assert spec_units("per_layer") == tracer.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run.measure(name, seed=3, seconds=0, trace=trace, tiny=True)
    line = run.result_line(result, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in line["metrics"].items()} == spec_units(kind)
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(line["metrics"][k]["value"] > 0 for k in run.END_TO_END_UNITS)


def test_same_seed_same_inputs(tmp_path):
    first, _ = run.setup("nilpotent_deep", 5, tmp_path, tiny=True)
    again, _ = run.setup("nilpotent_deep", 5, tmp_path, tiny=True)
    other, _ = run.setup("nilpotent_deep", 6, tmp_path, tiny=True)
    assert [i.argv for i in first.items] == [i.argv for i in again.items]
    assert [i.argv for i in first.items] != [i.argv for i in other.items]


def test_corrupted_expected_index_fails_the_gate(monkeypatch):
    def wrong(n, ideal):
        return {"right_index": n + 2}

    monkeypatch.setattr(workloads, "nf_expected", wrong)
    result = run.measure("nilpotent_deep", seed=0, seconds=0, trace=False, tiny=True)
    assert result["failed_ratio"] > 0
    assert not run.result_line(result, False)["correct"]
    args = ["--workload", "nilpotent_deep", "--seed", "0", "--seconds", "0"]
    assert run.main(args, tiny=True) == 1


def test_report_differing_from_golden_fails_the_gate(monkeypatch, tmp_path):
    fake = tmp_path / "golden.json"
    fake.write_text("{}\n")
    monkeypatch.setattr(workloads, "golden_path", lambda dim, samples, seed: fake)
    result = run.measure("corpus_gf3", seed=0, seconds=0, trace=False, tiny=True)
    assert result["failed"] == result["attempted"] > 0


def test_spans_round_trip():
    result = run.measure("rewrite_oracle", seed=1, seconds=0, trace=True, tiny=True)
    spans = tracer.load_spans(ROOT / result["spans_file"][:-len(".bin")])
    assert len(spans["name"]) == result["spans"] > 0
    assert "terms.normalize" in spans["names"]
    assert all(s <= e for s, e in zip(spans["start"], spans["end"]))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "corpus_gf3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
