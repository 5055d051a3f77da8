"""Algebra files and machine-readable reports.

Algebra files are JSON with exact coefficients kept as strings or integers
(floats are rejected). Reports are plain dicts serialized with sorted keys,
so a fixed (input, flags, seed) triple always produces byte-identical output.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .algebra import AlgebraDef, algebra_from_constants
from .fields import field_descriptor, field_from_descriptor
from .linalg import Subspace, Vector, span
from .series import (
    FOUND,
    NEVER,
    SAMPLES,
    UNDETERMINED,
    InclusionCheck,
    NilpotencyProfile,
    SeriesBundle,
    SeriesTable,
    es_nil_k,
)


@dataclass(frozen=True)
class LoadedAlgebra:
    algebra: AlgebraDef
    ideals: dict[str, Subspace]


def _exact_coefficient(value, where: str):
    # bool is an int subclass; floats fail the isinstance test
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{where}: coefficient must be an exact int or string, got {value!r}")
    return value


def load_algebra_data(data: dict, source: str = "<data>") -> LoadedAlgebra:
    """Validate an algebra-file dict and build the algebra plus named subspaces."""
    if not isinstance(data, dict):
        raise ValueError(f"{source}: top level must be an object")
    for key in ("name", "dim", "field", "constants"):
        if key not in data:
            raise ValueError(f"{source}: missing required key {key!r}")
    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ValueError(f"{source}: name must be a nonempty string")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{source}: dim must be a positive integer")
    field = field_from_descriptor(data["field"])
    constants = data["constants"]
    if not isinstance(constants, list):
        raise ValueError(f"{source}: constants must be a list")
    triples = []
    for entry in constants:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ValueError(f"{source}: each constant must be [i, j, k, coeff], got {entry!r}")
        i, j, k, coeff = entry
        value = field.parse(_exact_coefficient(coeff, source))
        triples.append((i, j, k, value))
    algebra = algebra_from_constants(name, dim, field, triples)

    ideals: dict[str, Subspace] = {}
    raw_ideals = data.get("ideals", {})
    if not isinstance(raw_ideals, dict):
        raise ValueError(f"{source}: ideals must be a map of name -> basis rows")
    for ideal_name, rows in raw_ideals.items():
        if not isinstance(rows, list):
            raise ValueError(f"{source}: ideal {ideal_name!r} must be a list of rows")
        vectors = []
        for row in rows:
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError(
                    f"{source}: ideal {ideal_name!r} rows must have {dim} coefficients")
            coords = tuple(field.parse(_exact_coefficient(c, source)) for c in row)
            vectors.append(Vector(field, coords))
        ideals[ideal_name] = span(vectors, dim, field)
    return LoadedAlgebra(algebra, ideals)


def _unique_keys(pairs: list[tuple[str, object]], source: str) -> dict:
    """A JSON object as a dict; a repeated key is an input error, not last-one-wins."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"{source}: duplicate key {key!r}")
    return obj


def load_algebra_file(path: str | Path) -> LoadedAlgebra:
    text = Path(path).read_text()
    try:
        data = json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(pairs, path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return load_algebra_data(data, source=str(path))


def tool_stamp() -> dict:
    return {"name": "leibnil", "version": __version__}


def algebra_stamp(alg: AlgebraDef) -> dict:
    return {"name": alg.name, "dim": alg.dim, "field": field_descriptor(alg.field)}


def series_to_dict(kind: str, table: SeriesTable) -> dict:
    """The report entry of one series; `kind` is the key the report writes it under."""
    return {
        "kind": kind,
        "indices": [k for k, _ in table.entries],
        "dims": table.dims(),
        "stabilized": table.end == NEVER,
        "terminated_zero": table.end == FOUND,
    }


def es_verdict_to_dict(translates: SeriesTable) -> dict:
    return {
        "k": es_nil_k(translates),
        "definitive": translates.end != UNDETERMINED,
        "translate_dims": translates.dims(),
    }


def inclusions_to_dict(checks: tuple[InclusionCheck, ...], seed: int) -> dict:
    """The inclusion checks; `seed` and SAMPLES are echoed, as no check samples."""
    return {
        "seed": seed,
        "samples": SAMPLES,
        "all_passed": all(c.passed for c in checks),
        "checks": [asdict(c) for c in checks],
    }


def profile_report(ideal_name: str, bundle: SeriesBundle, chain: SeriesTable,
                   profile: NilpotencyProfile, checks: tuple[InclusionCheck, ...],
                   seed: int) -> dict:
    # the general powers and the strong filtration are both the levels
    tables = (("right_powers", bundle.right), ("left_powers", bundle.left),
              ("general_powers", bundle.levels), ("strong_filtration", bundle.levels),
              ("bk_chain", chain))
    return {
        "tool": tool_stamp(),
        "algebra": algebra_stamp(bundle.ideal.algebra),
        "ideal": ideal_name,
        "params": {"nmax": bundle.n_max, "kmax": bundle.k_max, "seed": seed},
        "series": {kind: series_to_dict(kind, table) for kind, table in tables},
        "es": {
            "dim": bundle.es_space.dim,
            "right": es_verdict_to_dict(bundle.es_right),
            "left": es_verdict_to_dict(bundle.es_left),
        },
        "profile": asdict(profile),
        "inclusions": inclusions_to_dict(checks, seed),
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(dump_report(report))
