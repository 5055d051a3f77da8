#!/usr/bin/env python3
"""Benchmark for leibnil: end-to-end metrics per workload, per-layer with --trace 1.

    python3 bench/run.py --workload nilpotent_deep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

The library is imported from `src/` next to this directory and driven
in-process, in one process and one thread. Set-up (importing leibnil and
making the inputs from the seed) is repeated SETUP_REPS times and its median
reported. Then the workload's items are run in passes, at least one and more
while the next should end within --seconds; every item's output is checked
by a gate. With
--trace 1 the first half of the time is untraced and the second half traced,
and the per-layer metrics come from the traced passes.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit status is 0 when every gate passed, 1 when any
failed, and 2 when the library is not there to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import LAYERS, PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 21
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms",
                    "item_tail_ms": "ms", "peak_rss_mb": "MB"}


def import_leibnil() -> SimpleNamespace:
    """A fresh import of leibnil from src/, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "leibnil" or m.startswith("leibnil.")]:
        del sys.modules[name]
    importlib.import_module("leibnil.cli")
    return SimpleNamespace(**{layer: sys.modules[f"leibnil.{layer}"] for layer in LAYERS})


def setup(name: str, seed: int, workdir: Path, tiny: bool):
    times = []
    for _ in range(SETUP_REPS):
        workload = None
        gc.collect()  # free the previous import, so it does not count in peak_rss_mb
        t0 = perf_counter()
        workload = WORKLOADS[name](import_leibnil(), seed, workdir, tiny)
        times.append(perf_counter() - t0)
    return workload, statistics.median(times)


def run_passes(workload, seconds: float, tracer=None) -> list:
    """At least one pass, then more while the next one should end within `seconds`."""
    start = perf_counter()
    passes = [workload.run_pass(tracer)]
    while perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(workload.run_pass(tracer))
    return passes


def item_stats(passes) -> dict:
    """Median and tail of per-item times, each item's time its median over passes."""
    if len({len(p.times) for p in passes}) != 1:
        raise RuntimeError("passes ran different numbers of items")
    per_item = sorted(statistics.median(ts) for ts in zip(*(p.times for p in passes)))
    n = len(per_item)
    # the highest percentile that still has TAIL_BEYOND samples above it
    k = max(0, n - TAIL_BEYOND - 1)
    return {"item_p50_ms": statistics.median(per_item) * 1e3,
            "item_tail_ms": per_item[k] * 1e3,
            "tail_percentile": 100.0 * (k + 1) / n,
            "tail_beyond": n - 1 - k,
            "items": n}


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up one workload, run it, and return its metrics and gate counts."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workload, setup_s = setup(name, seed, workdir, tiny)
        untraced = run_passes(workload, seconds / 2 if trace else seconds)
        passes = list(untraced)
        result = {"workload": name, "seed": seed, "trace": int(trace),
                  "setup_s": setup_s, "passes": len(untraced),
                  "pass_wall_s": [p.wall_s for p in untraced]}
        wall_s = statistics.median(p.wall_s for p in untraced)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes += traced
            traced_wall_s = statistics.median(p.wall_s for p in traced)
            metrics = tracer.per_layer(len(traced), wall_s, traced_wall_s,
                                       [r for p in traced for r in p.reports])
            stem = WORK / f"spans_{name}_seed{seed}"
            tracer.dump(stem)
            result.update(traced_passes=len(traced), spans=len(tracer.name),
                          spans_file=str(stem.relative_to(ROOT)) + ".bin")
        else:
            stats = item_stats(untraced)
            metrics = {"setup_s": setup_s, "wall_s": wall_s,
                       "item_p50_ms": stats["item_p50_ms"],
                       "item_tail_ms": stats["item_tail_ms"],
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            result.update({k: stats[k] for k in ("tail_percentile", "tail_beyond", "items")})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.failed for p in passes)
    result.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                  metrics=metrics)
    return result


def units(trace: bool) -> dict:
    return PER_LAYER_UNITS if trace else END_TO_END_UNITS


def result_line(result: dict, trace: bool) -> dict:
    unit = units(trace)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name], "unit": unit[name]}
                        for name in unit}}


def print_human(result: dict, trace: bool) -> None:
    name, unit = result["workload"], units(trace)
    for metric in unit:
        print(f"{name} {metric} = {result['metrics'][metric]:.6g} {unit[metric]}")
    if not trace:
        print(f"{name} item_tail_ms is p{result['tail_percentile']:.1f} of "
              f"{result['items']} items ({result['tail_beyond']} beyond it)")
    print(f"{name} failed_ratio = {result['failed_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} items failed a gate)")


def run_all(args) -> int:
    """Each workload in its own process, one after another, and a summary."""
    lines, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        out = proc.stdout.strip().splitlines()
        lines[name] = json.loads(out[-1]) if proc.returncode in (0, 1) and out else None
    if args.trace == 0:
        cols = list(END_TO_END_UNITS) + ["failed_ratio"]
        print("workload".ljust(16) + "".join(c.rjust(14) for c in cols))
        for name, line in lines.items():
            if line is None:
                print(name.ljust(16) + "did not run".rjust(14))
                continue
            values = [line["metrics"][c]["value"] for c in END_TO_END_UNITS]
            values.append(line["failed"] / line["attempted"])
            print(name.ljust(16) + "".join(f"{v:14.4g}" for v in values))
    done = [line for line in lines.values() if line is not None]
    summary = {"correct": status == 0 and len(done) == len(lines),
               "attempted": sum(line["attempted"] for line in done),
               "failed": sum(line["failed"] for line in done),
               "metrics": {f"{name}.{metric}": value
                           for name, line in lines.items() if line is not None
                           for metric, value in line["metrics"].items()}}
    print(json.dumps(summary))
    return status


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "leibnil" / "__init__.py").is_file():
        print(f"error: no leibnil sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, trace, tiny)
    WORK.mkdir(exist_ok=True)
    (WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print_human(result, trace)
    print(json.dumps(result_line(result, trace)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
