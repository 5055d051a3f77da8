"""Corpus search over small structure-constant tensors.

Generates sparse candidate tensors over GF(p), keeps the ones satisfying the
bracket identity, profiles each survivor with the code behind `leibnil
profile`, and aggregates: how many are right nilpotent, the largest strong
index seen per right index, how many fail the filtration check (expected:
none, a failure fails the run), and examples that are left nilpotent but not
right nilpotent. The strong index is the right index, so the bound and
sandwich violation fields are constant.
"""

from __future__ import annotations

from itertools import combinations, product
from random import Random
from typing import Iterable, Iterator

from .algebra import ChainVerificationError, algebra_from_constants, full_ideal, is_right_leibniz
from .fields import PrimeField
from .files import tool_stamp
from .series import (
    UNDETERMINED,
    compute_series,
    filtration_check,
    profile_from_series,
)

Constants = tuple[tuple[int, int, int, int], ...]

# left-but-not-right nilpotent tensors listed in a report
MAX_EXAMPLES = 5


def sparse_tensors_exhaustive(dim: int, p: int, max_nonzero: int = 2) -> Iterator[Constants]:
    """All tensors over GF(p) with 1..max_nonzero nonzero entries, in a fixed order."""
    positions = [(i, j, k) for i in range(1, dim + 1)
                 for j in range(1, dim + 1) for k in range(1, dim + 1)]
    values = range(1, p)
    for r in range(1, max_nonzero + 1):
        for combo in combinations(positions, r):
            for vals in product(values, repeat=r):
                yield tuple((i, j, k, v) for (i, j, k), v in zip(combo, vals))


def sparse_tensors_sampled(dim: int, p: int, samples: int, rng: Random,
                           max_nonzero: int = 3) -> Iterator[Constants]:
    positions = [(i, j, k) for i in range(1, dim + 1)
                 for j in range(1, dim + 1) for k in range(1, dim + 1)]
    for _ in range(samples):
        r = rng.randint(1, max_nonzero)
        combo = sorted(rng.sample(positions, r))
        yield tuple((i, j, k, rng.randrange(1, p)) for (i, j, k) in combo)


def _constants_key(constants: Constants) -> str:
    return ";".join(f"{i},{j},{k}:{v}" for i, j, k, v in constants)


def analyze_candidate(constants: Constants, field: PrimeField, dim: int) -> dict | None:
    """Profile one tensor with the profile's verdict code; None if it fails the identity.

    A failed invariant is re-raised as ChainVerificationError naming the tensor.
    """
    alg = algebra_from_constants(_constants_key(constants), dim, field, list(constants))
    if not is_right_leibniz(alg):
        return None
    b = full_ideal(alg)
    # the right and left powers of L decrease, so they stop at zero or a fixed
    # point by index dim+1, and every verdict below is settled by then
    try:
        bundle = compute_series(b, dim + 2)
        profile = profile_from_series(bundle)
    except ChainVerificationError as exc:
        raise ChainVerificationError(f"candidate {alg.name}: {exc}") from exc
    return {
        "constants": [list(c) for c in constants],
        "right_index": profile.right_index,
        "left_index": profile.left_index,
        "right_definitive": profile.right_status != UNDETERMINED,
        "strong_index": profile.strong_index,
        "filtration_ok": filtration_check(bundle.levels, alg).passed,
    }


def run_search(dim: int, p: int, samples: int | None, seed: int,
               limit: int | None = None) -> dict:
    """Search the candidate space and aggregate the profiles into a report.

    samples == 0 (or None with dim <= 2) runs the exhaustive sparse sweep,
    which is only allowed for dim <= 3; otherwise `samples` seeded tensors
    are drawn. `limit` caps the processed candidates; hitting it flags the
    report as partial.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if samples is not None and samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    field = PrimeField(p)
    if samples is None:
        samples = 0 if dim <= 2 else 5000
    if samples == 0:
        if dim > 3:
            raise ValueError("exhaustive sparse search is limited to dim <= 3")
        generator: Iterable[Constants] = sparse_tensors_exhaustive(dim, p)
        mode = "exhaustive"
    else:
        generator = sparse_tensors_sampled(dim, p, samples, Random(seed))
        mode = "sampled"

    seen: dict[str, dict | None] = {}
    candidates = 0
    partial = False
    for constants in generator:
        if limit is not None and candidates >= limit:
            partial = True
            break
        candidates += 1
        key = _constants_key(constants)
        if key not in seen:
            seen[key] = analyze_candidate(constants, field, dim)

    valid = [r for r in seen.values() if r is not None]
    right_nilpotent = [r for r in valid if r["right_index"] is not None]
    left_not_right = [r for r in valid
                      if r["left_index"] is not None and r["right_index"] is None
                      and r["right_definitive"]]

    max_strong: dict[str, int] = {}
    for r in right_nilpotent:
        n = str(r["right_index"])
        max_strong[n] = max(max_strong.get(n, 0), r["strong_index"])

    return {
        "tool": tool_stamp(),
        "params": {"dim": dim, "field": {"type": "Fp", "p": p},
                   "samples": samples, "seed": seed, "mode": mode},
        "partial": partial,
        "candidates": candidates,
        "unique_candidates": len(seen),
        "valid": len(valid),
        "right_nilpotent": len(right_nilpotent),
        "not_right_nilpotent": len(valid) - len(right_nilpotent),
        "left_not_right_count": len(left_not_right),
        "left_not_right_examples": [r["constants"] for r in left_not_right[:MAX_EXAMPLES]],
        "max_strong_by_right_index": max_strong,
        # the strong index is the right index, so neither the bound nor the
        # index sandwich can fail; the fields keep the report format
        "bound_violations": [],
        "sandwich_violations": 0,
        "filtration_violations": sum(1 for r in valid if not r["filtration_ok"]),
    }
