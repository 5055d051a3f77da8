"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Everything asserts exact (integer/rational) equality; the only tolerances are
wall-clock budgets, asserted with wide margins. Run with `pytest -s
tests/test_acceptance.py` to see the verdict lines.
"""

import time
from collections import Counter
from random import Random

import pytest

from leibnil.algebra import (
    IdealHandle,
    bracket,
    es_of,
    full_ideal,
    verify_right_leibniz,
)
from leibnil.cli import main
from leibnil.fields import QQ
from leibnil.linalg import contains, is_subspace_of, subspace_sum
from leibnil.search import run_search
from leibnil.series import (
    NEVER,
    bk_chain,
    compute_series,
    es_nil_k,
    left_powers,
    nilpotency_profile,
    right_powers,
)
from leibnil.terms import (
    Leaf,
    Node,
    RightWord,
    evaluate,
    leaves,
    lincomb,
    measures,
    normalize,
    psom_expand,
)

from .conftest import FIXTURE_NAMES, FIXTURES


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def random_tree(rng: Random, n_leaves: int, names: str = "abcxy"):
    if n_leaves == 1:
        return Leaf(rng.choice(names), rng.random() < 0.4)
    split = rng.randint(1, n_leaves - 1)
    return Node(random_tree(rng, split, names), random_tree(rng, n_leaves - split, names))


def random_in_space(rng: Random, space, alg):
    v = alg.basis_vector(1).scale(QQ.zero)
    for row in space.basis_vectors():
        v = v + row.scale(QQ.random(rng))
    return v


@pytest.fixture(scope="module")
def corpus_reports():
    start = time.monotonic()
    dim2 = run_search(dim=2, p=3, samples=0, seed=0)
    dim3 = run_search(dim=3, p=3, samples=5000, seed=0)
    return dim2, dim3, time.monotonic() - start


def test_criterion_1_identity_verification(algebras, broken):
    start = time.monotonic()
    ok = all(verify_right_leibniz(algebras[name].algebra) == () for name in FIXTURE_NAMES)
    ok = ok and len(verify_right_leibniz(broken.algebra)) >= 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    verdict(1, ok, f"identity checks on 4 fixtures + broken negative control "
                   f"({elapsed:.3f}s)")


def test_criterion_2_normalization_oracle(algebras):
    start = time.monotonic()
    trials_per_algebra = 1000
    checked = 0
    for name in FIXTURE_NAMES:
        alg = algebras[name].algebra
        rng = Random(1000 + alg.dim)
        for _ in range(trials_per_algebra):
            t = random_tree(rng, rng.randint(1, 6))
            length, weight = measures(t)
            multiset = Counter((leaf.name, leaf.in_b) for leaf in leaves(t))
            env = {n: random_in_space(rng, alg.full_space(), alg)
                   for n in {leaf.name for leaf in leaves(t)}}
            combo = normalize(t)
            assert evaluate(t, env, alg) == evaluate(combo, env, alg)
            for w, coeff in combo.terms:
                assert coeff != 0
                assert w.length == length and w.weight == weight
                assert Counter((leaf.name, leaf.in_b) for leaf in w.factors) == multiset
            checked += 1
    elapsed = time.monotonic() - start
    verdict(2, checked == 4 * trials_per_algebra and elapsed < 30.0,
            f"evaluate(t) == evaluate(normalize(t)) on {checked} seeded trees, "
            f"length/weight/multiset preserved ({elapsed:.1f}s)")


def test_criterion_3_psom_consistency():
    rng = Random(42)
    for _ in range(200):
        q0 = random_tree(rng, rng.randint(1, 4), names="pqr")
        m = rng.randint(1, 5)
        p0 = RightWord(tuple(Leaf(rng.choice("abcde"), rng.random() < 0.5)
                             for _ in range(m)))
        whole_tree = Node(q0, p0.as_tree())
        whole_len, whole_wt = measures(whole_tree)
        total = lincomb({})
        for term in psom_expand(q0, p0):
            total = total + normalize(term.tree).scale(term.sign)
            q_len, q_wt = measures(term.q_tree)
            a_wt = 1 if term.a_leaf.in_b else 0
            if term.p_word is None:
                assert whole_len == q_len + 1            # length split, tail term
                assert whole_wt == q_wt + a_wt           # weight split, tail term
            else:
                assert whole_len == q_len + term.p_word.length + 1
                assert whole_wt == q_wt + term.p_word.weight + a_wt
        assert total == normalize(whole_tree)
    verdict(3, True, "200 seeded expansions match normalize exactly, "
                     "split equations hold on every summand")


def test_criterion_4_symmetrized_bracket_in_es(algebras):
    rng = Random(7)
    pairs = []
    for name in FIXTURE_NAMES:
        loaded = algebras[name]
        spaces = [loaded.algebra.full_space()] + \
            [loaded.ideals[k] for k in sorted(loaded.ideals)]
        for space in spaces:
            pairs.append((loaded.algebra, space))
    checked = 0
    while checked < 500:
        alg, space = pairs[checked % len(pairs)]
        b = IdealHandle(alg, space)
        a_vec = random_in_space(rng, alg.full_space(), alg)
        b_vec = random_in_space(rng, space, alg)
        s = bracket(a_vec, b_vec, alg) + bracket(b_vec, a_vec, alg)
        assert contains(es_of(b), s)
        checked += 1
    verdict(4, checked == 500, "ab + ba lands in Es(B) for 500 seeded pairs "
                               "across bundled ideals")


def test_criterion_5_power_inclusions_and_chain(algebras):
    for name in FIXTURE_NAMES:
        b = full_ideal(algebras[name].algebra)
        es = es_of(b)
        rp = right_powers(b, 10)
        lp = left_powers(b, 10)
        for n in range(1, 11):
            assert is_subspace_of(rp.entry(n), subspace_sum(lp.entry(n), es)), (name, n)
        # raises if any B_k fails the ideal or chain check
        chain = bk_chain(compute_series(b, 10))
        for (_, upper), (_, lower) in zip(chain.entries, chain.entries[1:]):
            assert is_subspace_of(lower, upper)
        for _, space in chain.entries:
            IdealHandle(b.algebra, space)
    verdict(5, True, "B^n inside ^nB + Es(B) for n <= 10 and the B_k chain is a "
                     "decreasing chain of verified ideals on all fixtures")


def test_criterion_6_exact_profiles(algebras):
    expected = {
        "l2": (3, 3, 3, 3, 31, True),
        "h3": (3, 3, 3, 3, 31, True),
        "abelian2": (2, 2, 2, 2, 13, True),
    }
    for name, (r, l, g, s, bound, sat) in expected.items():
        p = nilpotency_profile(full_ideal(algebras[name].algebra), 31)
        assert (p.right_index, p.left_index, p.general_index, p.strong_index) == \
            (r, l, g, s), name
        assert p.theorem_bound == bound and p.bound_satisfied is sat, name

    a2 = full_ideal(algebras["a2"].algebra)
    p = nilpotency_profile(a2, 16)
    assert p.right_status == NEVER and p.right_index is None
    assert p.left_index == 3
    bundle = compute_series(a2, 16)
    es_right, es_left = bundle.es_right, bundle.es_left
    assert es_nil_k(es_right) is None and es_right.end == NEVER
    assert es_nil_k(es_left) == 1
    verdict(6, True, "exact profiles: l2/h3 all 3 (bound 31), abelian2 all 2 "
                     "(bound 13), a2 definitively not right nilpotent, left 3, "
                     "not Es_k-right nil, Es_1-left nil")


def test_criterion_7_theorem_corpus(corpus_reports):
    dim2, dim3, elapsed = corpus_reports
    ok = True
    for report in (dim2, dim3):
        ok = ok and report["bound_violations"] == []
    rediscovered = dim2["left_not_right_count"] >= 1
    ok = ok and rediscovered and elapsed < 300.0
    verdict(7, ok, f"{dim2['valid'] + dim3['valid']} validated algebras "
                   f"(dim-2 exhaustive + 5000 dim-3 samples), zero bound "
                   f"violations, {dim2['left_not_right_count']} left-not-right "
                   f"rediscoveries at dim 2 ({elapsed:.1f}s)")


def test_criterion_8_sandwich_and_filtration(corpus_reports):
    dim2, dim3, _ = corpus_reports
    ok = all(r["sandwich_violations"] == 0 and r["filtration_violations"] == 0
             for r in (dim2, dim3))
    verdict(8, ok, "right <= general <= strong and every pair of computed filtration "
                   "levels respects weights on every corpus algebra")


def test_criterion_9_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"profile_{tag}.json"
        assert main(["profile", str(FIXTURES / "l2.json"), "--seed", "3",
                     "--json", str(path)]) == 0
        outs.append(path.read_bytes())
    profile_same = outs[0] == outs[1]

    searches = []
    for tag in ("a", "b"):
        path = tmp_path / f"search_{tag}.json"
        assert main(["search", "--dim", "3", "--field", "F3", "--samples", "300",
                     "--seed", "12", "--json", str(path)]) == 0
        searches.append(path.read_bytes())
    search_same = searches[0] == searches[1]
    verdict(9, profile_same and search_same,
            "repeated profile and search runs with fixed seeds are byte-identical")
