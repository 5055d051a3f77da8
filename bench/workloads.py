"""The benchmark workloads: inputs made from a seed, the items a pass runs, and
the gates that decide whether each item's output is correct.

Every workload is built against a freshly imported `leibnil` (a namespace of
its modules) and calls the library in-process. Functions are looked up on the
modules at call time, so a tracer that has patched the module bindings sees
the calls.
"""

from __future__ import annotations

import functools
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
FIELD_P = 3


@dataclass
class PassResult:
    """One pass over a workload's items: per-item seconds and gate failures."""

    wall_s: float
    times: list[float]
    failed: int
    reports: list[dict] = field(default_factory=list)


def index_bound(n: int) -> int:
    """4n^2 - 2n + 1, written out here so the gates do not trust the library."""
    return 4 * n * n - 2 * n + 1


def relabel(dim: int, constants, rng: Random):
    """An isomorphic copy: basis f_{perm(i)} = s_i e_i with random signs s_i.

    Returns the new structure constants and the permutation; indices and
    verdicts are invariant, so the closed-form expectations still hold.
    """
    perm = list(range(1, dim + 1))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(dim)]
    out = sorted((perm[i - 1], perm[j - 1], perm[k - 1],
                  c * sign[i - 1] * sign[j - 1] * sign[k - 1])
                 for i, j, k, c in constants)
    return out, perm


def null_filiform(n: int):
    """NF_n: [e_i, e_1] = e_{i+1}, the Leibniz algebra of maximal nilindex."""
    return [(i, 1, i + 1, 1) for i in range(1, n)]


def solvable(n: int):
    """S_n: [e_i, e_1] = e_i for i >= 2; its right powers reach a fixed point."""
    return [(i, 1, i, 1) for i in range(2, n + 1)]


def nf_expected(n: int, ideal: str) -> dict:
    """Closed-form profile of NF_n: the full ideal and span(e_2..e_n)."""
    if ideal == "full":
        # B^k = span(e_k..e_n), so right, general and strong die at n+1; the
        # left powers die at 3 because only [x, e_1] is nonzero.
        idx = {"right_index": n + 1, "left_index": 3,
               "general_index": n + 1, "strong_index": n + 1}
    else:
        idx = {"right_index": 2, "left_index": 2, "general_index": 2, "strong_index": 2}
    return {**idx, "right_status": "found", "general_status": "found",
            "strong_status": "found", "bound_verdict": "satisfied"}


def sn_expected() -> dict:
    """Closed-form profile of S_n (and the a2 fixture, which is S_2)."""
    return {"right_index": None, "right_status": "never", "left_index": 3,
            "general_status": "never", "strong_status": "never", "bound_verdict": "n/a"}


@dataclass
class ProfileItem:
    label: str
    argv: list[str]
    expected: dict


class ProfileWorkload:
    """Items are `leibnil profile --json` runs through `leibnil.cli.main`."""

    def __init__(self, lb, seed: int, workdir: Path, tiny: bool) -> None:
        self.lb = lb
        self.out = workdir / "report.json"
        self.rng = Random(f"{type(self).__name__}:{seed}")
        self.workdir = workdir
        self.items: list[ProfileItem] = []
        self.build(tiny)
        self.rng.shuffle(self.items)

    def add(self, label: str, path: Path, nmax: int, expected: dict, ideal=None) -> None:
        argv = ["profile", str(path), "--nmax", str(nmax), "--json", str(self.out),
                "--seed", str(self.rng.randrange(10**6))]
        if ideal is not None:
            argv += ["--ideal", ideal]
        self.items.append(ProfileItem(label, argv, expected))

    def write_algebra(self, name: str, dim: int, constants, ideals=None) -> Path:
        path = self.workdir / f"{name}.json"
        data = {"name": name, "dim": dim, "field": {"type": "Q"},
                "constants": [[i, j, k, str(c)] for i, j, k, c in constants],
                "ideals": ideals or {}}
        path.write_text(json.dumps(data))
        return path

    def build(self, tiny: bool) -> None:
        raise NotImplementedError

    def run_pass(self, tracer=None) -> PassResult:
        lb, times, failed = self.lb, [], 0
        t_pass = perf_counter()
        for k, item in enumerate(self.items):
            lb.algebra.squares_ideal.cache_clear()
            self.out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.begin_item(k)
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                t0 = perf_counter()
                status = lb.cli.main(item.argv)
                times.append(perf_counter() - t0)
            profile = json.loads(self.out.read_text())["profile"] if status == 0 else {}
            if status != 0 or any(profile.get(key) != value
                                  for key, value in item.expected.items()):
                failed += 1
                print(f"gate failed: profile {item.label} (exit {status})", file=sys.stderr)
            if tracer is not None and profile.get("general_status") == "never":
                tracer.never_items.add(k)
        return PassResult(perf_counter() - t_pass, times, failed)


class NilpotentDeep(ProfileWorkload):
    """NF_n, full ideal and span(e_2..e_n), at nmax = 4(n+1)^2 - 2(n+1) + 1.

    VARIANTS[n] relabelled copies of NF_n: smaller algebras come more often,
    which gives the per-item tail enough items at a pass length that fits.
    NF_5 has the most copies. Its named-ideal items, with NF_4's full ones,
    hold the median item (20th and 21st of 40), and its full items, with
    NF_6's named-ideal ones, hold the tail item (30th): each falls in the
    middle of a group of items of about equal cost, as in FixedPoint.
    """

    VARIANTS = {3: 4, 4: 4, 5: 8, 6: 2, 7: 1, 8: 1}

    def build(self, tiny: bool) -> None:
        for n, variants in ({3: 1, 4: 1} if tiny else self.VARIANTS).items():
            for v in range(variants):
                constants, perm = relabel(n, null_filiform(n), self.rng)
                tail = [["1" if col == perm[i] - 1 else "0" for col in range(n)]
                        for i in range(1, n)]
                path = self.write_algebra(f"NF{n}_v{v}", n, constants, {"tail": tail})
                nmax = index_bound(n + 1)
                self.add(f"NF{n}_v{v}/full", path, nmax, nf_expected(n, "full"))
                self.add(f"NF{n}_v{v}/tail", path, nmax, nf_expected(n, "tail"), "tail")


class FixedPoint(ProfileWorkload):
    """S_n at nmax 64, plus the a2 fixture: the NEVER path.

    VARIANTS[n] relabelled copies of S_n. S_2 and a2 make 5 items and S_4..S_6
    make 5, so the 13 copies of S_3 hold both the median item (12th of 23) and
    the tail item (13th): each is then the middle of a group of equal items,
    not the edge of one, and moves less with the noise of single items.
    """

    NMAX = 64
    VARIANTS = {2: 4, 3: 13, 4: 3, 5: 1, 6: 1}

    def build(self, tiny: bool) -> None:
        for n, variants in ({3: 1} if tiny else self.VARIANTS).items():
            for v in range(variants):
                constants, _ = relabel(n, solvable(n), self.rng)
                path = self.write_algebra(f"S{n}_v{v}", n, constants)
                self.add(f"S{n}_v{v}/full", path, self.NMAX, sn_expected())
        fixture = BENCH_DIR.parent / "fixtures" / "a2.json"
        if not fixture.is_file():
            raise FileNotFoundError(f"missing fixture {fixture}")
        self.add("a2/full", fixture, self.NMAX, sn_expected())


def golden_path(dim: int, samples: int, seed: int) -> Path:
    return GOLDEN_DIR / f"search_dim{dim}_samples{samples}_seed{seed}.json"


class CorpusGF3:
    """`run_search` over GF(3): exhaustive at dim 2, seeded samples at dim 3.

    Items are the candidates `analyze_candidate` profiles (duplicates are not
    re-analyzed by the search, so they are not items).
    """

    SEARCHES = ((2, 0), (3, 5000))  # (dim, samples); 0 samples is exhaustive

    def __init__(self, lb, seed: int, workdir: Path, tiny: bool) -> None:
        self.lb, self.seed = lb, seed
        self.searches = ((2, 0), (3, 100)) if tiny else self.SEARCHES
        self.golden = {}
        for dim, samples in self.searches:
            path = golden_path(dim, samples, seed)
            self.golden[dim] = path.read_text() if path.is_file() else None

    def run_pass(self, tracer=None) -> PassResult:
        lb, times, failed, reports = self.lb, [], 0, []
        search = lb.search
        inner = search.analyze_candidate

        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.begin_item(len(times))
            t0 = perf_counter()
            result = inner(*args, **kwargs)
            times.append(perf_counter() - t0)
            return result

        search.analyze_candidate = timed
        t_pass = perf_counter()
        try:
            for dim, samples in self.searches:
                lb.algebra.squares_ideal.cache_clear()
                analyzed = len(times)
                report = search.run_search(dim, FIELD_P, samples, self.seed)
                analyzed = len(times) - analyzed
                reports.append(report)
                golden = self.golden[dim]
                bad = len(report["bound_violations"]) + report["sandwich_violations"] \
                    + report["filtration_violations"]
                if golden is not None and lb.files.dump_report(report) != golden:
                    bad = analyzed
                if bad:
                    failed += min(bad, analyzed)
                    print(f"gate failed: run_search dim {dim} seed {self.seed}", file=sys.stderr)
        finally:
            search.analyze_candidate = inner
        return PassResult(perf_counter() - t_pass, times, failed, reports)


@dataclass
class TermItem:
    tree: object
    assignment: dict
    leaves: Counter


def shapes(n: int) -> list:
    """Every bracketing of n leaves, as nested pairs with None for a leaf."""
    if n == 1:
        return [None]
    return [(left, right) for k in range(1, n)
            for left in shapes(k) for right in shapes(n - k)]


class RewriteOracle:
    """Bracket trees normalized to right words, both forms evaluated.

    Shapes are fixed: for each length, every SHAPE_STRIDE[length]-th
    bracketing whose potential() is at most POTENTIAL_CAP, the potential of the
    right-nested term of length 6. Shapes above the cap approach the
    right-nested blowup, and a seed that drew several of them would make a
    pass cost several times another seed's. The seed draws each tree's leaf
    order, which half of its leaves (rounded down) are tagged, and the
    vectors, whose coordinates are all nonzero but e_1's on tagged leaves.
    Fixing the count of tagged leaves and of nonzero coordinates keeps an
    item's evaluation cost, which grows with both, about the same across
    seeds. The right-nested terms of lengths 2..7 are added as they are.

    The evaluation algebra is NF_6 plus an sl_2 summand (dim 9 over Q). In
    NF_6 alone every tree with an internal right child, and every product of
    length 7 or more, evaluates to zero, so the MATCH gate would be vacuous
    for most terms; the sl_2 summand is not nilpotent and keeps it sharp.
    Tagged generators are drawn from the ideal span(e_2..e_9).
    """

    SHAPE_STRIDE = {5: 1, 6: 2, 7: 4, 8: 10}
    NESTED_LENGTHS = range(2, 8)
    POTENTIAL_CAP = 20

    def __init__(self, lb, seed: int, workdir: Path, tiny: bool) -> None:
        self.lb = lb
        rng = Random(f"rewrite_oracle:{seed}")
        q = lb.fields.QQ
        n = 6
        constants = [(i, 1, i + 1, Fraction(1)) for i in range(1, n)]
        h, e, f = n + 1, n + 2, n + 3
        constants += [(h, e, e, Fraction(2)), (e, h, e, Fraction(-2)),
                      (h, f, f, Fraction(-2)), (f, h, f, Fraction(2)),
                      (e, f, h, Fraction(1)), (f, e, h, Fraction(-1))]
        self.alg = lb.algebra.algebra_from_constants("NF6+sl2", n + 3, q, constants)
        self.dim = n + 3
        self.ideal = lb.linalg.span([self.alg.basis_vector(i) for i in range(2, n + 4)],
                                    self.dim, q)
        strides = {5: 4, 6: 21} if tiny else self.SHAPE_STRIDE
        nested_lengths = range(2, 5) if tiny else self.NESTED_LENGTHS
        self.items: list[TermItem] = []
        for length, stride in strides.items():
            shaped = [self.build(shape, rng, length) for shape in shapes(length)]
            capped = [t for t in shaped if lb.terms.potential(t[0]) <= self.POTENTIAL_CAP]
            self.items += [self.make_item(rng, *t) for t in capped[::stride]]
        for length in nested_lengths:
            nested = functools.reduce(lambda acc, _: (None, acc), range(length - 1), None)
            self.items.append(self.make_item(rng, *self.build(nested, rng, length)))
        rng.shuffle(self.items)

    def build(self, shape, rng: Random, length: int):
        """A tree of this shape on distinct generators in seeded order and tags."""
        terms = self.lb.terms
        names = rng.sample("abcdefgh"[:length], length)
        tagged = set(rng.sample(names, length // 2))
        tags = {name: name in tagged for name in names}
        leaves = iter(terms.Leaf(name, tags[name]) for name in names)

        def grow(node):
            if node is None:
                return next(leaves)
            return terms.Node(grow(node[0]), grow(node[1]))

        return grow(shape), tags

    def vector(self, rng: Random, tagged: bool):
        coords = [Fraction(rng.choice((-2, -1, 1, 2))) for _ in range(self.dim)]
        if tagged:
            coords[0] = Fraction(0)
        return self.lb.linalg.Vector(self.lb.fields.QQ, tuple(coords))

    def make_item(self, rng: Random, tree, tags: dict) -> TermItem:
        assignment = {name: self.vector(rng, tagged) for name, tagged in tags.items()}
        return TermItem(tree, assignment, Counter(self.lb.terms.leaves(tree)))

    def run_pass(self, tracer=None) -> PassResult:
        terms, times, failed = self.lb.terms, [], 0
        alg, ideal = self.alg, self.ideal
        t_pass = perf_counter()
        for k, item in enumerate(self.items):
            if tracer is not None:
                tracer.begin_item(k)
            t0 = perf_counter()
            combo = terms.normalize(item.tree)
            direct = terms.evaluate(item.tree, item.assignment, alg, ideal)
            via_normal = terms.evaluate(combo, item.assignment, alg, ideal)
            times.append(perf_counter() - t0)
            # equal leaf multisets imply equal length and weight
            if direct != via_normal or any(Counter(word.factors) != item.leaves
                                           for word, _ in combo.terms):
                failed += 1
                print(f"gate failed: normalize {terms.tree_text(item.tree)}", file=sys.stderr)
        return PassResult(perf_counter() - t_pass, times, failed)


WORKLOADS = {
    "nilpotent_deep": NilpotentDeep,
    "fixed_point": FixedPoint,
    "corpus_gf3": CorpusGF3,
    "rewrite_oracle": RewriteOracle,
}
