"""Corpus search over small structure-constant tensors.

Generates sparse candidate tensors over GF(p), keeps the ones satisfying the
bracket identity, profiles each survivor, and aggregates: how many are right
nilpotent, the largest strong index seen per right index, any violations of
the strong-index bound (expected: none, a violation fails the run), and
examples that are left nilpotent but not right nilpotent.
"""

from __future__ import annotations

from itertools import combinations, product
from random import Random
from typing import Iterable, Iterator

from .algebra import algebra_from_constants, full_ideal, is_right_leibniz, subspace_product
from .fields import PrimeField
from .files import tool_stamp
from .linalg import is_subspace_of
from .series import general_powers, index_bound, left_powers, right_powers, strong_filtration

Constants = tuple[tuple[int, int, int, int], ...]


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


def _filtration_respected(levels: dict, alg, up_to: int) -> bool:
    for i in sorted(levels):
        for j in sorted(levels):
            if i + j > up_to or (i == 0 and j == 0):
                continue
            prod = subspace_product(levels[i], levels[j], alg)
            if not is_subspace_of(prod, levels[i + j]):
                return False
    return True


def analyze_candidate(constants: Constants, field: PrimeField, dim: int,
                      filtration_depth: int = 6) -> dict | None:
    """Profile one tensor; None if it fails the bracket identity."""
    alg = algebra_from_constants(_constants_key(constants), dim, field, list(constants))
    if not is_right_leibniz(alg):
        return None
    b = full_ideal(alg)
    rp = right_powers(b, dim + 2)
    lp = left_powers(b, dim + 2)
    right_index = rp.first_zero_index()
    left_index = lp.first_zero_index()

    result = {
        "constants": [list(c) for c in constants],
        "right_index": right_index,
        "left_index": left_index,
        "right_definitive": right_index is not None or rp.stabilized,
    }

    depth = filtration_depth
    if right_index is not None:
        depth = max(depth, index_bound(right_index))
    sf = strong_filtration(b, depth)
    gp = general_powers(b, depth)
    result["strong_index"] = sf.first_zero_index()
    result["general_index"] = gp.first_zero_index()

    levels = {0: alg.full_space()}
    levels.update({m: s for m, s in sf.entries if m <= filtration_depth})
    result["filtration_ok"] = _filtration_respected(levels, alg,
                                                    min(filtration_depth, max(levels)))

    sandwich_ok = True
    ri, gi, si = right_index, result["general_index"], result["strong_index"]
    if ri is not None and gi is not None and ri > gi:
        sandwich_ok = False
    if gi is not None and si is not None and gi > si:
        sandwich_ok = False
    result["sandwich_ok"] = sandwich_ok

    if right_index is not None:
        bound = index_bound(right_index)
        result["bound"] = bound
        result["bound_ok"] = si is not None and si <= bound
    return result


def run_search(dim: int, p: int, samples: int | None, seed: int,
               max_examples: int = 5, limit: int | None = None) -> dict:
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
    bound_violations = []
    for r in right_nilpotent:
        n = str(r["right_index"])
        if r["strong_index"] is not None:
            max_strong[n] = max(max_strong.get(n, 0), r["strong_index"])
        if not r["bound_ok"]:
            bound_violations.append(r["constants"])

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
        "left_not_right_examples": [r["constants"] for r in left_not_right[:max_examples]],
        "max_strong_by_right_index": max_strong,
        "bound_violations": bound_violations,
        "sandwich_violations": sum(1 for r in valid if not r["sandwich_ok"]),
        "filtration_violations": sum(1 for r in valid if not r["filtration_ok"]),
    }
