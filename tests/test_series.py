import ast
from collections import Counter
from dataclasses import asdict
from functools import cache
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from leibnil import algebra, series
from leibnil.algebra import (
    IdealHandle,
    algebra_from_constants,
    bracket,
    full_ideal,
    is_right_leibniz,
    squares_ideal,
    subspace_product,
)
from leibnil.cli import main
from leibnil.fields import GF, QQ, PrimeField, RationalField
from leibnil.files import dump_report, profile_report
from leibnil.linalg import (
    Vector,
    contains,
    is_subspace_of,
    span,
    subspace_sum,
    vector,
    zero_subspace,
    zero_vector,
)
from leibnil.search import run_search, sparse_tensors_sampled
from leibnil.series import (
    FOUND,
    ChainVerificationError,
    NEVER,
    UNDETERMINED,
    SeriesTable,
    bk_chain,
    compute_series,
    es_nil_k,
    filtration_check,
    index_bound,
    left_powers,
    nilpotency_profile,
    power_levels,
    profile_from_series,
    right_powers,
    right_translates,
    verify_paper_inclusions,
)

from . import oracles
from .conftest import FIXTURE_NAMES, FIXTURES
from .oracles import (
    general_powers,
    ideal_closure,
    left_translates,
    random_right_product,
    random_vector_in,
    sampled_inclusion_report,
    strong_filtration,
)
from .strategies import subspaces, vectors


def qvec(*coords):
    return vector(QQ, coords)


def e2_line():
    return span([qvec(0, 1)], 2)


# Brute-force oracles over all bracketing shapes, independent of the series
# recurrences. Multilinearity makes basis tuples sufficient generators.

def all_shapes(n):
    if n == 1:
        return [None]
    shapes = []
    for i in range(1, n):
        for ls in all_shapes(i):
            for rs in all_shapes(n - i):
                shapes.append((ls, rs))
    return shapes


def eval_shape(shape, factors, alg):
    def rec(s, it):
        if s is None:
            return next(it)
        return bracket(rec(s[0], it), rec(s[1], it), alg)
    return rec(shape, iter(factors))


def oracle_general_power(b, n):
    """Span of every length-n bracketing of basis vectors of B."""
    alg = b.algebra
    basis = b.space.basis_vectors()
    if not basis:
        return alg.zero_space()
    out = []
    for shape in all_shapes(n):
        for factors in product(basis, repeat=n):
            out.append(eval_shape(shape, list(factors), alg))
    return span(out, alg.dim, alg.field)


def oracle_strong_level(b, m, max_len):
    """Span of all products of length <= max_len with >= m factors in B.

    Exact as long as every product of length max_len vanishes; positions
    outside the chosen B-slots range over all of L, which covers higher
    weights.
    """
    alg = b.algebra
    b_basis = b.space.basis_vectors()
    l_basis = [alg.basis_vector(i) for i in range(1, alg.dim + 1)]
    out = []
    for length in range(max(m, 1), max_len + 1):
        for shape in all_shapes(length):
            for b_slots in combinations(range(length), m):
                free = [i for i in range(length) if i not in b_slots]
                for b_choice in product(b_basis, repeat=m):
                    for l_choice in product(l_basis, repeat=len(free)):
                        factors = [None] * length
                        for slot, vec in zip(b_slots, b_choice):
                            factors[slot] = vec
                        for slot, vec in zip(free, l_choice):
                            factors[slot] = vec
                        out.append(eval_shape(shape, factors, alg))
    return span(out, alg.dim, alg.field)


def oracle_graded_filtration(b, m_max):
    """B^<m> for m = 1..m_max by the graded recurrence, not by a fixpoint.

    W_1 = B and W_m = ideal_closure(sum over i+j = m of W_i . W_j): a product
    with at least m factors in B splits at its top node into parts carrying
    i and j of them, and the closure supplies the factors from L.
    """
    alg = b.algebra
    w = {1: b.space}
    for m in range(2, m_max + 1):
        acc = alg.zero_space()
        for i in range(1, m):
            acc = subspace_sum(acc, subspace_product(w[i], w[m - i], alg))
        w[m] = ideal_closure(acc, alg).space
    return w


def signed_relabel(constants, dim, rng):
    """Constants of the copy f_{p(i)} = s_i e_i, for a random permutation p and signs s."""
    perm = list(range(1, dim + 1))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(dim)]
    return [(perm[i - 1], perm[j - 1], perm[k - 1],
             QQ.from_int(c * sign[i - 1] * sign[j - 1] * sign[k - 1]))
            for i, j, k, c in constants]


def family(name, n):
    """Signed relabelled NF_n ([e_i, e_1] = e_{i+1}) or S_n ([e_i, e_1] = e_i, i >= 2)."""
    if name == "NF":
        constants = [(i, 1, i + 1, 1) for i in range(1, n)]
    else:
        constants = [(i, 1, i, 1) for i in range(2, n + 1)]
    return algebra_from_constants(f"{name}{n}", n, QQ,
                                  signed_relabel(constants, n, Random(n)))


def sl2():
    """The Lie algebra sl_2 on e, f, h: [e, f] = h, [h, e] = 2e, [h, f] = -2f."""
    constants = []
    for i, j, k, c in ((1, 2, 3, 1), (3, 1, 1, 2), (3, 2, 2, -2)):
        constants += [(i, j, k, QQ.from_int(c)), (j, i, k, QQ.from_int(-c))]
    return algebra_from_constants("sl2", 3, QQ, constants)


def valid_gf3_tensors(count):
    """The first `count` right Leibniz algebras among seeded dim-3 GF(3) samples."""
    found = []
    for constants in sparse_tensors_sampled(3, 3, 5000, Random(4)):
        alg = algebra_from_constants(str(constants), 3, GF(3), list(constants))
        if is_right_leibniz(alg):
            found.append(alg)
            if len(found) == count:
                return found
    raise AssertionError(f"only {len(found)} valid tensors in the sample")


def strictly_upper_tensors(dim, p, rng):
    """Seeded sparse tensors with [e_i, e_j] in span(e_k : k > max(i, j)): nilpotent ones."""
    positions = [(i, j, k) for i in range(1, dim + 1) for j in range(1, dim + 1)
                 for k in range(max(i, j) + 1, dim + 1)]
    while True:
        combo = sorted(rng.sample(positions, rng.randint(1, min(6, len(positions)))))
        yield tuple((i, j, k, rng.randrange(1, p)) for i, j, k in combo)


@cache
def sampled_right_leibniz():
    """Valid right Leibniz algebras of dim 2-4 over Q, GF(3) and GF(5).

    Per field and dimension, six from seeded sparse tensors with up to four
    nonzero constants and six strictly upper ones with up to six, which
    reach deeper right indices and Es_k indices k > 1; over Q the values 1
    and 2 of a GF(3) sample become 1 and -1. Algebras with L.L = 0 are left
    out.
    """
    found = []
    for field, p in ((QQ, 3), (GF(3), 3), (GF(5), 5)):
        for dim in (2, 3, 4):
            rng = Random(dim * p)
            for source in (sparse_tensors_sampled(dim, p, 4000, rng, max_nonzero=4),
                           strictly_upper_tensors(dim, p, rng)):
                kept = 0
                for constants in source:
                    if field is QQ:
                        constants = [(i, j, k, QQ.from_int(1 if v == 1 else -1))
                                     for i, j, k, v in constants]
                    alg = algebra_from_constants(str(constants), dim, field, list(constants))
                    if is_right_leibniz(alg) and not subspace_product(
                            alg.full_space(), alg.full_space(), alg).is_zero():
                        found.append(alg)
                        kept += 1
                        if kept == 6:
                            break
    return found


def sampled_ideal(alg, which):
    """B = L, the squares ideal, or L^2."""
    if which == "full":
        return full_ideal(alg)
    if which == "squares":
        return squares_ideal(alg)
    return IdealHandle(alg, subspace_product(alg.full_space(), alg.full_space(), alg))


sampled_ideals = st.tuples(st.deferred(lambda: st.sampled_from(sampled_right_leibniz())),
                           st.sampled_from(["full", "squares", "square"])).map(
    lambda pair: sampled_ideal(*pair))


def inclusions(b, depth, n_max):
    """The inclusion checks at n_max from the series and B_k chain computed at depth."""
    bundle = compute_series(b, depth)
    return verify_paper_inclusions(bundle, bk_chain(bundle), n_max)


def assert_same_table(table, oracle):
    assert table.entries == oracle.entries
    assert table.end == oracle.end


def assert_same_checks(checks, oracle):
    assert checks == oracle
    assert [asdict(c) for c in checks] == [asdict(c) for c in oracle]
    assert all(c.passed for c in checks) == all(c.passed for c in oracle)


class TestRightPowers:
    def test_abelian_squares_to_zero(self, abelian2):
        table = right_powers(full_ideal(abelian2.algebra), 10)
        assert table.dims() == [2, 2, 0]
        assert table.end == FOUND and table.verdict()[0] == 2

    def test_a2_stabilizes_nonzero(self, a2):
        table = right_powers(full_ideal(a2.algebra), 10)
        assert table.dims() == [2, 2, 1, 1]
        assert table.end == NEVER
        assert table.verdict()[0] is None
        # fixed-point soundness: one more product step changes nothing
        fix = table.entries[-1][1]
        assert subspace_product(fix, a2.algebra.full_space(), a2.algebra) == fix
        # and the table extends past its computed range
        assert table.entry(40) == fix

    def test_l2_dies_at_three(self, l2):
        table = right_powers(full_ideal(l2.algebra), 10)
        assert table.dims() == [2, 2, 1, 0]
        assert table.verdict()[0] == 3

    def test_zero_ideal_has_index_one(self, a2):
        b = IdealHandle(a2.algebra, zero_subspace(QQ, 2))
        assert right_powers(b, 5).verdict()[0] == 1


class TestLeftPowers:
    def test_abelian(self, abelian2):
        assert left_powers(full_ideal(abelian2.algebra), 10).verdict()[0] == 2

    def test_a2_left_dies(self, a2):
        table = left_powers(full_ideal(a2.algebra), 10)
        assert table.dims() == [2, 2, 1, 0]
        assert table.verdict()[0] == 3

    def test_h3(self, h3):
        table = left_powers(full_ideal(h3.algebra), 10)
        assert table.dims() == [3, 3, 1, 0]
        assert table.verdict()[0] == 3


class TestGeneralPowers:
    def test_base_case_is_the_ideal(self, a2):
        b = full_ideal(a2.algebra)
        assert general_powers(b, 5).entries[0] == (1, b.space)

    def test_level_two_is_the_square(self, h3):
        b = full_ideal(h3.algebra)
        gp = general_powers(b, 5)
        rp = right_powers(b, 5)
        lp = left_powers(b, 5)
        assert gp.entry(2) == rp.entry(2) == lp.entry(2)

    def test_h3_dies_at_three(self, h3):
        assert general_powers(full_ideal(h3.algebra), 10).verdict()[0] == 3

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_bracketing_enumeration(self, algebras, name):
        b = full_ideal(algebras[name].algebra)
        table = general_powers(b, 4)
        for n in (2, 3, 4):
            assert table.entry(n) == oracle_general_power(b, n), (name, n)


class TestStrongFiltration:
    def test_level_one_is_the_ideal(self, algebras):
        for name in FIXTURE_NAMES:
            loaded = algebras[name]
            for space in loaded.ideals.values():
                b = IdealHandle(loaded.algebra, space)
                assert strong_filtration(b, 4).entry(1) == space

    def test_h3_dies_at_three(self, h3):
        table = strong_filtration(full_ideal(h3.algebra), 10)
        assert table.dims() == [3, 1, 0]
        assert table.verdict()[0] == 3

    def test_l2_dies_at_three_under_bound(self, l2):
        table = strong_filtration(full_ideal(l2.algebra), 31)
        assert table.verdict()[0] == 3
        assert 3 <= index_bound(3) == 31

    def test_a2_levels_freeze_at_the_line(self, a2):
        table = strong_filtration(full_ideal(a2.algebra), 8)
        assert table.dims() == [2] + [1] * 7
        assert table.end == NEVER

    @pytest.mark.parametrize("name,levels,max_len", [
        ("abelian2", (1, 2), 2),
        ("h3", (1, 2, 3), 3),
        ("l2", (1, 2, 3), 3),
    ])
    def test_matches_product_enumeration(self, algebras, name, levels, max_len):
        # valid because every product of length max_len vanishes in these algebras
        b = full_ideal(algebras[name].algebra)
        table = strong_filtration(b, max(levels))
        for m in levels:
            assert table.entry(m) == oracle_strong_level(b, m, max_len), (name, m)

    def assert_matches_graded_recurrence(self, b):
        table = strong_filtration(b, 12)
        graded = oracle_graded_filtration(b, 12)
        for m in range(1, 13):
            assert table.entry(m) == graded[m], (b.algebra.name, m)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_never_path_matches_graded_recurrence(self, n):
        # S_n: its levels freeze at a nonzero ideal
        alg = family("S", n)
        b = full_ideal(alg)
        assert strong_filtration(b, 12).end == NEVER
        self.assert_matches_graded_recurrence(b)
        self.assert_matches_graded_recurrence(squares_ideal(alg))

    def test_gf3_tensors_match_graded_recurrence(self):
        for alg in valid_gf3_tensors(120):
            self.assert_matches_graded_recurrence(full_ideal(alg))
            self.assert_matches_graded_recurrence(squares_ideal(alg))

    def test_center_of_h3_dies_at_two(self, h3):
        b = IdealHandle(h3.algebra, h3.ideals["center"])
        table = strong_filtration(b, 5)
        assert table.verdict()[0] == 2
        assert table.entry(2) == oracle_strong_level(b, 2, 3)


@st.composite
def lemma_ideals(draw):
    """B = L, the squares ideal, L^k or ^kL for k = 2, 3, or the closure of a random vector."""
    alg = draw(st.sampled_from(sampled_right_leibniz()))
    which = draw(st.sampled_from(["full", "squares", "right", "left", "closure"]))
    if which == "full":
        return full_ideal(alg)
    if which == "squares":
        return squares_ideal(alg)
    if which == "closure":
        v = draw(vectors(field=alg.field, dim=alg.dim))
        return ideal_closure(span([v], alg.dim, alg.field), alg)
    k = draw(st.sampled_from([2, 3]))
    powers = right_powers if which == "right" else left_powers
    return IdealHandle(alg, powers(full_ideal(alg), k).entry(k))


class TestWeightTables:
    @given(lemma_ideals())
    @settings(max_examples=120, deadline=None)
    def test_general_and_strong_levels_are_the_right_powers(self, b):
        """B^<m> = B^{{m}} = B^m for every ideal B of a right Leibniz algebra.

        Every product of elements of L is an integer combination of right
        words over the same factors (Loday-Pirashvili), so B^<m> is spanned
        by right words with at least m factors from B. Right multiplication
        by z is a derivation, (xy)z = (xz)y + x(yz); with B.L and L.B inside
        B this gives B^k.L inside B^k by induction on k. Reading a right word
        left to right, a factor from B takes B^j to B^{j+1} and a factor from
        L keeps B^j, so a right word with w factors from B lies in B^w. Hence
        B^<m> lies in B^m. A right word of length m over B is one bracketing
        of a length-m product, so B^m lies in B^{{m}}, and every such product
        has m factors from B, so B^{{m}} lies in B^<m>.
        """
        n = 2 * b.algebra.dim + 4
        rp, gp, sf = right_powers(b, n), general_powers(b, n), strong_filtration(b, n)
        for m in range(1, n + 1):
            assert gp.entry(m) == rp.entry(m) == sf.entry(m), (b.algebra.name, m)
        levels = power_levels(compute_series(b, n).right, n)
        for oracle in (gp, sf):
            assert_same_table(levels, oracle)

    @pytest.mark.parametrize("name,n,n_max,status", [
        ("NF", 5, 2, UNDETERMINED),
        ("NF", 5, 3, UNDETERMINED),
        ("NF", 5, 12, FOUND),
        ("S", 3, 12, NEVER),
        ("S", 5, 64, NEVER),
    ])
    def test_family_tables_match_the_oracles(self, name, n, n_max, status):
        alg = family(name, n)
        for b in (full_ideal(alg), squares_ideal(alg)):
            self.assert_tables_match(b, n_max)
        assert nilpotency_profile(full_ideal(alg), n_max).strong_status == status

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("n_max", [2, 3, 12])
    def test_fixture_tables_match_the_oracles(self, algebras, name, n_max):
        loaded = algebras[name]
        for space in [loaded.algebra.full_space(), *loaded.ideals.values()]:
            self.assert_tables_match(IdealHandle(loaded.algebra, space), n_max)

    @staticmethod
    def assert_tables_match(b, n_max):
        levels = power_levels(compute_series(b, n_max).right, n_max)
        for oracle in (general_powers(b, n_max), strong_filtration(b, n_max)):
            assert_same_table(levels, oracle)


def assert_table_shape(table):
    """The shape SeriesTable.entry and .verdict rely on, checked without them.

    Consecutive indices; FOUND exactly when the last entry is zero, and no
    earlier entry is; NEVER only at a repeat of a nonzero last entry.
    """
    indices = [k for k, _ in table.entries]
    assert indices == list(range(indices[0], indices[0] + len(indices)))
    zero = [s.is_zero() for _, s in table.entries]
    assert (table.end == FOUND) == zero[-1]
    assert not any(zero[:-1])
    if table.end == NEVER:
        assert len(table.entries) >= 2 and table.entries[-1][1] == table.entries[-2][1]


def assert_bundle_matches_the_oracles(b, n_max, k_max):
    """The bundle's verdicts, Es verdicts and B_k chain, field for field against the oracles."""
    bundle = compute_series(b, n_max, k_max)
    assert bundle.k_max == (b.algebra.dim + 1 if k_max is None else k_max)
    assert bundle.right.verdict() == oracles.one_step_status(bundle.right)
    assert bundle.left.verdict() == oracles.one_step_status(bundle.left)
    levels = bundle.levels
    assert levels == power_levels(bundle.right, n_max)
    chain = bk_chain(bundle)
    for table in (bundle.right, bundle.left, levels, bundle.es_right, bundle.es_left, chain):
        assert_table_shape(table)
    profile = profile_from_series(bundle)
    assert ((profile.general_index, profile.general_status),
            (profile.strong_index, profile.strong_status)) == \
        (levels.verdict(), levels.verdict()) == \
        oracles.weight_statuses(bundle.right, levels, levels)
    for table, side in ((bundle.es_right, "right"), (bundle.es_left, "left")):
        k, definitive, oracle_table = oracles.es_nil_index(b, side, k_max)
        assert (es_nil_k(table), table.end != UNDETERMINED) == (k, definitive), side
        assert_same_table(table, oracle_table)
        assert (es_nil_k(table), table.end != UNDETERMINED) == oracles.es_verdict(table), side
    # L . Es(B) = 0, and ^nB lies in B^n as left-normed words are combinations of right words
    es_dim = bundle.es_space.dim
    assert (es_nil_k(bundle.es_left), bundle.es_left.end, bundle.es_left.dims()) == \
        (1, FOUND, [es_dim, 0] if es_dim else [0])
    if profile.right_index is not None:
        assert profile.left_index is not None
        assert profile.left_index <= profile.right_index
    assert_same_table(chain, oracles.bk_chain(b, n_max))
    return bundle


class TestBundleMatchesTheOracles:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("n_max", [2, 3, 12])
    def test_fixtures_and_named_ideals(self, algebras, name, n_max):
        loaded = algebras[name]
        for space in [loaded.algebra.full_space(), *loaded.ideals.values()]:
            for k_max in (None, 1, 2):
                assert_bundle_matches_the_oracles(IdealHandle(loaded.algebra, space),
                                                  n_max, k_max)

    @pytest.mark.parametrize("name,n", [("NF", n) for n in range(3, 7)] +
                             [("S", n) for n in range(2, 6)])
    def test_relabelled_families(self, name, n):
        alg = family(name, n)
        for b in (full_ideal(alg), squares_ideal(alg)):
            for n_max in (2, 3, 12):
                for k_max in (None, 1, 2):
                    assert_bundle_matches_the_oracles(b, n_max, k_max)

    @given(lemma_ideals(), st.integers(2, 12), st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=120, deadline=None)
    def test_sampled_ideals(self, b, n_max, k_max):
        assert_bundle_matches_the_oracles(b, n_max, k_max)

    def test_undetermined_at_shallow_bounds(self, l2):
        # l2 has right index 3; NF_4 ([e_i, e_1] = e_{i+1}) has Es(L) Es_3-right nil
        bundle = assert_bundle_matches_the_oracles(full_ideal(l2.algebra), 2, None)
        for table in (bundle.right, bundle.left, bundle.levels):
            assert table.verdict() == (None, UNDETERMINED)
        bundle = assert_bundle_matches_the_oracles(full_ideal(family("NF", 4)), 12, 1)
        assert (es_nil_k(bundle.es_right), bundle.es_right.end) == (None, UNDETERMINED)

    def test_zero_es_is_nil_at_one(self, h3):
        # h3 is a Lie algebra, so its squares ideal and Es(L) are 0
        assert_bundle_matches_the_oracles(squares_ideal(h3.algebra), 12, None)
        bundle = assert_bundle_matches_the_oracles(full_ideal(h3.algebra), 12, None)
        assert bundle.es_space.is_zero()
        for table in (bundle.es_right, bundle.es_left):
            assert table.verdict() == (0, FOUND)
            assert es_nil_k(table) == 1


class TestSeriesComputedOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("es_of", "right_powers"):
            def counting(*args, _name=name, _real=getattr(series, name)):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(series, name, counting)
        return counts

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_profile_computes_es_and_right_powers_once(self, calls, name, capsys):
        assert main(["profile", str(FIXTURES / f"{name}.json"), "--nmax", "12"]) == 0
        assert calls == {"es_of": 1, "right_powers": 1}

    def test_search_computes_es_once_per_valid_candidate(self, calls):
        report = run_search(2, 3, None, 0)
        assert report["valid"] == 20
        assert calls == {"es_of": 20, "right_powers": 20}

    @pytest.mark.parametrize("name,ideal", [
        *[(name, "full") for name in FIXTURE_NAMES],
        ("a2", "span_e2"), ("l2", "span_e2"), ("h3", "center"), ("h3", "plane13"),
        ("sl2", "full"),
    ])
    def test_bk_chain_multiplies_no_entry_equal_to_l_or_b(self, algebras, name, ideal,
                                                          monkeypatch):
        # a2's span(e2) is its own B_2, and every B_k of the perfect sl2 is L
        alg = sl2() if name == "sl2" else algebras[name].algebra
        b = IdealHandle(alg, alg.full_space() if ideal == "full" else algebras[name].ideals[ideal])
        bundle = compute_series(b, 8)
        calls = []
        for module in (algebra, series):
            def counting(u, v, *rest, _real=module.subspace_product):
                calls.append((u, v))
                return _real(u, v, *rest)

            monkeypatch.setattr(module, "subspace_product", counting)
        chain = bk_chain(bundle)
        full = b.algebra.full_space()
        expected = []
        for _, space in chain.entries:
            if space not in (full, b.space) and (space, full) not in expected:
                expected += [(space, full), (full, space)]
        assert calls == expected
        assert name != "sl2" or chain.entries == ((0, full), (1, full), (2, full))


class TestTranslates:
    def test_zero_space_stays_zero(self, a2):
        alg = a2.algebra
        table = right_translates(zero_subspace(QQ, 2), 5, alg)
        assert table.end == FOUND and table.entries == ((0, zero_subspace(QQ, 2)),)

    def test_a2_e2_line_is_a_right_fixed_point(self, a2):
        table = right_translates(e2_line(), 5, a2.algebra)
        assert table.end == NEVER
        assert table.dims() == [1, 1]

    def test_a2_e2_line_dies_on_the_left(self, a2):
        table = left_translates(e2_line(), 5, a2.algebra)
        assert table.verdict()[0] == 1

    def test_l2_e2_line_dies_on_the_right(self, l2):
        table = right_translates(e2_line(), 5, l2.algebra)
        assert table.verdict()[0] == 1

    def test_h3_center_dies_both_ways(self, h3):
        center = h3.ideals["center"]
        assert right_translates(center, 5, h3.algebra).verdict()[0] == 1
        assert left_translates(center, 5, h3.algebra).verdict()[0] == 1


class TestEsNilIndex:
    def test_lie_algebra_trivially_one(self, h3):
        table = compute_series(full_ideal(h3.algebra), 2).es_right
        assert es_nil_k(table) == 1 and table.end == FOUND

    def test_a2_right_definitively_absent(self, a2):
        table = compute_series(full_ideal(a2.algebra), 2).es_right
        assert es_nil_k(table) is None and table.end == NEVER

    def test_a2_left_is_one(self, a2):
        table = compute_series(full_ideal(a2.algebra), 2).es_left
        assert es_nil_k(table) == 1 and table.end == FOUND

    def test_l2_right_is_one(self, l2):
        table = compute_series(full_ideal(l2.algebra), 2).es_right
        assert es_nil_k(table) == 1 and table.end == FOUND

    def test_k_max_below_one_rejected(self, l2):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            compute_series(full_ideal(l2.algebra), 2, k_max=0)


class TestBkChain:
    def test_lie_chain_equals_powers(self, h3):
        b = full_ideal(h3.algebra)
        chain = bk_chain(compute_series(b, 6))
        powers = right_powers(b, 6)
        for k, space in chain.entries:
            if k >= 2:
                assert space == powers.entry(k)

    def test_l2_chain_freezes_at_the_line(self, l2):
        chain = bk_chain(compute_series(full_ideal(l2.algebra), 6))
        assert chain.entry(2) == e2_line()
        assert chain.entry(3) == e2_line()
        assert chain.entry(6) == e2_line()

    def test_a2_chain(self, a2):
        chain = bk_chain(compute_series(full_ideal(a2.algebra), 8))
        for k in range(2, 9):
            assert chain.entry(k) == e2_line()

    def test_zero_ideal_chain_stops_at_b1(self, abelian2):
        alg = abelian2.algebra
        chain = bk_chain(compute_series(IdealHandle(alg, alg.zero_space()), 12))
        assert chain == SeriesTable(((0, alg.full_space()), (1, alg.zero_space())), FOUND)
        assert chain.verdict() == (1, FOUND) and chain.entry(3).is_zero()

    def test_b2_not_an_ideal_raises(self, h3_bundle_with_non_ideal_b2):
        with pytest.raises(ChainVerificationError, match=r"^B_2 is not a two-sided ideal$"):
            bk_chain(h3_bundle_with_non_ideal_b2)

    def test_chain_entries_are_ideals_and_decreasing(self, algebras):
        for name in FIXTURE_NAMES:
            alg = algebras[name].algebra
            chain = bk_chain(compute_series(full_ideal(alg), 8))
            for (_, upper), (_, lower) in zip(chain.entries, chain.entries[1:]):
                assert is_subspace_of(lower, upper)
            for _, space in chain.entries:
                IdealHandle(alg, space)  # re-validate two-sidedness


class TestMonotoneChains:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_decreasing_kinds_decrease(self, algebras, name):
        b = full_ideal(algebras[name].algebra)
        bundle = compute_series(b, 12)
        for table, start in ((bundle.right, 1), (bundle.left, 1), (bundle.levels, 0),
                             (bk_chain(bundle), 0)):
            entries = table.entries
            pairs = list(zip(entries, entries[1:]))
            for (k, upper), (_, lower) in pairs:
                if k >= start:
                    assert is_subspace_of(lower, upper), (name, start, k)


def fold_random_vector_in(space, rng, field):
    """random_vector_in as a fold of whole scaled rows, one draw per row."""
    v = zero_vector(field, space.ambient_dim)
    for row in space.basis:
        v = v + Vector(field, row).scale(field.random(rng))
    return v


class TestRandomVectorIn:
    @given(st.sampled_from([QQ, GF(5)]).flatmap(lambda f: subspaces(field=f)),
           st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_row_fold(self, space, seed):
        rng, oracle_rng = Random(seed), Random(seed)
        v = random_vector_in(space, rng, space.field)
        assert v == fold_random_vector_in(space, oracle_rng, space.field)
        assert rng.getstate() == oracle_rng.getstate()

    def test_zero_space_gives_zero_and_draws_nothing(self):
        rng = Random(4)
        state = rng.getstate()
        assert random_vector_in(zero_subspace(GF(5), 3), rng, GF(5)).is_zero()
        assert rng.getstate() == state


class TestEntryExtension:
    def test_stabilized_chain_extends_constantly(self, a2):
        chain = bk_chain(compute_series(full_ideal(a2.algebra), 8))
        assert chain.end == NEVER
        last_k, last = chain.entries[-1]
        assert [chain.entry(k) for k in (last_k + 1, 50)] == [last, last]

    def test_stabilized_translates_extend_constantly(self, a2):
        # [e_2, e_1] = e_2, so span(e_2) . L = span(e_2) is a fixed point
        table = right_translates(e2_line(), 5, a2.algebra)
        assert table.end == NEVER and table.entries[-1][0] == 1
        assert table.entry(2) == table.entry(50) == e2_line()

    def test_unfinished_table_has_no_entry_past_its_range(self):
        # NF_5: [e_i, e_1] = e_{i+1}, so B^4 = span(e_4, e_5) is nonzero and new
        table = right_powers(full_ideal(family("NF", 5)), 3)
        assert table.end == UNDETERMINED
        with pytest.raises(KeyError, match="table has no entry 4"):
            table.entry(4)


def l2_levels(entries, end):
    return SeriesTable(tuple(entries), end)


class TestFiltrationCheckPastTheLastLevel:
    """Check (d) on hand-built level tables of l2, where [e_1, e_1] = e_2 is the only bracket."""

    def test_zero_target_past_the_range_is_tested(self, l2):
        # levels span(e_2), L, 0: every pair in range passes, and (2, 2) gives
        # L . L = span(e_2), which escapes the zero level past the range
        alg = l2.algebra
        levels = l2_levels([(1, e2_line()), (2, alg.full_space()), (3, alg.zero_space())],
                           FOUND)
        check = filtration_check(levels, alg)
        assert not check.passed
        assert check.detail == "B^<2> . B^<2> escapes B^<4>"

    def test_pairs_past_a_fixed_point_are_skipped(self, l2, monkeypatch):
        # with C = span(e_1) at levels 2 and 3, only pairs past 3 want C . C
        alg = l2.algebra
        c = span([qvec(1, 0)], 2)
        levels = l2_levels([(1, alg.full_space()), (2, c), (3, c)], NEVER)
        products = []

        def recording(u, v, *rest, _real=series.subspace_product):
            products.append((u, v))
            return _real(u, v, *rest)

        monkeypatch.setattr(series, "subspace_product", recording)
        filtration_check(levels, alg)
        assert products and (c, c) not in products

    def test_a_never_nilpotent_ideal_tests_only_the_pairs_in_range(self, a2, monkeypatch):
        # a2's right powers stop at span(e_2): 65 pairs (i, j) != (0, 0) with
        # i + j <= 10, not the 120 of every pair of levels 0..10
        b = full_ideal(a2.algebra)
        right = right_powers(b, 10)
        levels = SeriesTable(tuple((m, right.entry(m)) for m in range(1, 11)), NEVER)
        tested = []

        def counting(u, w, _real=series.is_subspace_of):
            tested.append((u, w))
            return _real(u, w)

        monkeypatch.setattr(series, "is_subspace_of", counting)
        assert filtration_check(levels, b.algebra).passed
        assert len(tested) == 65


class TestInclusionChecks:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_full_ideal_inclusions_pass(self, algebras, name):
        checks = inclusions(full_ideal(algebras[name].algebra), 8, 8)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_named_ideal_inclusions_pass(self, algebras):
        for name in FIXTURE_NAMES:
            loaded = algebras[name]
            for space in loaded.ideals.values():
                b = IdealHandle(loaded.algebra, space)
                checks = inclusions(b, 6, 6)
                assert all(c.passed for c in checks), (name, [c for c in checks if not c.passed])

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_check_d_is_the_shared_filtration_check(self, algebras, name):
        b = full_ideal(algebras[name].algebra)
        check = filtration_check(strong_filtration(b, 8), b.algebra)
        assert check.passed
        assert check in inclusions(b, 8, 8)

    def test_report_is_seed_deterministic(self, l2):
        b = full_ideal(l2.algebra)
        bundle = compute_series(b, 6)
        chain = bk_chain(bundle)
        first = verify_paper_inclusions(bundle, chain, 6)
        second = verify_paper_inclusions(bundle, chain, 6)
        assert first == second
        # the seed is only echoed, so one seed gives one report
        profile = profile_from_series(bundle)
        assert dump_report(profile_report("full", bundle, chain, profile, first, 11)) == \
            dump_report(profile_report("full", bundle, chain, profile, second, 11))

    def test_n_max_past_the_series_depth_rejected(self):
        # NF_5 computed at 3 has no B^4; read at 5 that entry would be missing
        alg = algebra_from_constants("NF5", 5, QQ,
                                     [(i, 1, i + 1, QQ.one) for i in range(1, 5)])
        bundle = compute_series(full_ideal(alg), 3)
        with pytest.raises(ValueError, match="n_max 5 exceeds the series depth 3"):
            verify_paper_inclusions(bundle, bk_chain(bundle), 5)


class TestExactInclusions:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("n_max", [2, 3, 10, 12])
    def test_fixtures_and_named_ideals_match_sampling(self, algebras, name, n_max):
        loaded = algebras[name]
        for space in [loaded.algebra.full_space(), *loaded.ideals.values()]:
            b = IdealHandle(loaded.algebra, space)
            for nmax in (n_max, 64):
                checks = inclusions(b, nmax, min(n_max, 10))
                assert_same_checks(checks, sampled_inclusion_report(b, min(n_max, 10), seed=5))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("n_max", [2, 3, 4])
    def test_cut_hides_powers_past_n_max(self, n, n_max):
        # NF_n: [e_i, e_1] = e_{i+1}. Its right powers vanish at n + 1 and its
        # Es(L) is Es_{n-1}-right nil, so check (c) asks for B^l past n_max:
        # computed at n_max that entry is missing and the check is skipped.
        alg = algebra_from_constants(f"NF{n}", n, QQ,
                                     [(i, 1, i + 1, QQ.one) for i in range(1, n)])
        b = full_ideal(alg)
        checks = inclusions(b, 12, n_max)
        assert_same_checks(checks, sampled_inclusion_report(b, n_max, seed=n))

    @given(sampled_ideals, st.integers(2, 12), st.integers(0, 4), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_sampled_tensors_match_sampling(self, b, n_max, extra, seed):
        # the bundle may run past n_max, as a profile's does past 10
        nmax = n_max + extra
        checks = inclusions(b, nmax, n_max)
        assert_same_checks(checks, sampled_inclusion_report(b, n_max, seed=seed))

    @given(sampled_ideals, st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_right_products_lie_in_their_power(self, b, length, data):
        """A right product with w factors from B lies in B^w.

        B is an ideal, so B.L and L.B lie in B. Right multiplication by z is
        a derivation of a right Leibniz algebra: (xy)z = (xz)y + x(yz). So if
        B^k.L lies in B^k, then B^{k+1}.L = (B^k.B).L lies in
        (B^k.L).B + B^k.(B.L), which lies in B^k.B = B^{k+1}; with B.L in B
        this gives B^k.L inside B^k for every k. Now read a right product
        f_0 f_1 ... f_{m-1} left to right. The product so far lies in B^j,
        where j counts the factors from B read so far (B^0 = L): a factor
        from B takes B^j to B^j.B = B^{j+1}, and a factor from L keeps it in
        B^j.L, inside B^j. A first factor from B starts at B^1 = B.
        """
        length += 1
        weight = data.draw(st.integers(0, length))
        rng = Random(data.draw(st.integers(0, 2 ** 16)))
        v = random_right_product(b.algebra, b.space, length, weight, rng)
        assert contains(right_powers(b, max(weight, 1)).entry(weight), v)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("n_max", [2, 3, 4])
    def test_check_c_carries_the_powers_past_the_bundle(self, n, n_max):
        # NF_n computed only to n_max, as a profile at nmax <= 10 is: check (c)
        # reads B^{2l} past the bundle, so the right powers are carried on
        alg = algebra_from_constants(f"NF{n}", n, QQ,
                                     [(i, 1, i + 1, QQ.one) for i in range(1, n)])
        b = full_ideal(alg)
        checks = inclusions(b, n_max, n_max)
        assert_same_checks(checks, sampled_inclusion_report(b, n_max, seed=n))

    def test_escaping_chain_entry_fails_check_b(self, l2, shrunken_chain):
        b = full_ideal(l2.algebra)
        checks = verify_paper_inclusions(compute_series(b, 6), shrunken_chain, 6)
        failed = [(c.name, c.detail) for c in checks if not c.passed]
        assert failed == [("weight_2_right_products_in_chain", "B^2 escapes B_2")]
        # sampling finds the same escape, and only that one
        oracle = sampled_inclusion_report(b, 6, seed=13, chain=shrunken_chain)
        assert [(c.name, c.passed) for c in checks] == [(c.name, c.passed) for c in oracle]

    def test_doctored_power_fails_check_c(self, nf3_bundle_without_zero):
        bundle, chain = nf3_bundle_without_zero
        checks = verify_paper_inclusions(bundle, chain, 3)
        failed = [(c.name, c.detail) for c in checks if not c.passed]
        assert failed == [
            ("weight_4_right_products_in_power_2_translate_2", "B^4 escapes (B^2).L^2"),
            ("weight_6_right_products_in_power_3_translate_2", "B^6 escapes (B^3).L^2"),
        ]
        # the true NF_3 passes: the failure comes from the doctored table alone
        assert all(c.passed for c in sampled_inclusion_report(bundle.ideal, 3, seed=2))

    @pytest.mark.parametrize("argv", [
        ["l2", "--nmax", "12"],
        ["a2", "--nmax", "12"],
        ["h3", "--nmax", "64", "--seed", "7"],
        ["h3", "--ideal", "center", "--nmax", "10"],
    ])
    def test_passing_profile_draws_nothing(self, argv, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("a profile drew a random scalar")

        for field_class in (RationalField, PrimeField):
            monkeypatch.setattr(field_class, "random", refuse)
        assert main(["profile", str(FIXTURES / f"{argv[0]}.json"), *argv[1:]]) == 0
        assert "inclusion checks" in capsys.readouterr().out


class TestProfiles:
    def test_abelian_profile(self, abelian2):
        p = nilpotency_profile(full_ideal(abelian2.algebra), 16)
        assert (p.right_index, p.left_index, p.general_index, p.strong_index) == (2, 2, 2, 2)
        assert p.theorem_bound == 13 and p.bound_satisfied
        assert p.bound_verdict == "satisfied"

    def test_l2_profile(self, l2):
        p = nilpotency_profile(full_ideal(l2.algebra), 31)
        assert (p.right_index, p.left_index, p.general_index, p.strong_index) == (3, 3, 3, 3)
        assert p.theorem_bound == 31 and p.bound_satisfied
        assert p.es_right_nil_k == 1 and p.es_left_nil_k == 1

    def test_h3_profile(self, h3):
        p = nilpotency_profile(full_ideal(h3.algebra), 31)
        assert (p.right_index, p.left_index, p.general_index, p.strong_index) == (3, 3, 3, 3)
        assert p.theorem_bound == 31 and p.bound_satisfied

    def test_a2_profile(self, a2):
        p = nilpotency_profile(full_ideal(a2.algebra), 16)
        assert p.right_index is None and p.right_status == NEVER
        assert p.left_index == 3 and p.left_status == FOUND
        assert p.general_status == NEVER and p.strong_status == NEVER
        assert p.es_right_nil_k is None and p.es_right_definitive
        assert p.es_left_nil_k == 1
        assert p.theorem_bound is None and p.bound_verdict == "n/a"

    def test_a2_e2_ideal_profile(self, a2):
        # right nilpotent sub-ideal whose Es translates never die: the bound
        # conclusion still holds even though the hypothesis fails
        b = IdealHandle(a2.algebra, a2.ideals["span_e2"])
        p = nilpotency_profile(b, 16)
        assert p.right_index == 2 and p.strong_index == 2
        assert p.es_right_nil_k is None and p.es_right_definitive
        assert p.bound_satisfied and p.bound_verdict == "satisfied"

    def test_undetermined_when_bound_out_of_reach(self, l2):
        # n_max = 2 sees neither the index 3 nor a fixed point: nothing definitive
        b = full_ideal(l2.algebra)
        p = nilpotency_profile(b, 2)
        assert p.right_status == UNDETERMINED and p.right_index is None
        assert p.general_status == UNDETERMINED and p.strong_status == UNDETERMINED
        assert p.theorem_bound is None and p.bound_verdict == "n/a"


class TestIndexSandwich:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_sandwich_on_fixtures(self, algebras, name):
        p = nilpotency_profile(full_ideal(algebras[name].algebra), 31)
        if p.right_index is not None and p.general_index is not None:
            assert p.right_index <= p.general_index
        if p.general_index is not None and p.strong_index is not None:
            assert p.general_index <= p.strong_index


class TestInvariants:
    def test_library_has_no_assert(self):
        # invariants must raise under python -O too, which strips asserts
        src = Path(__file__).resolve().parent.parent / "src" / "leibnil"
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert asserts == [], f"{path.name} asserts at lines {asserts}"

    def test_library_imports_no_unused_name(self):
        # __init__.py imports names to re-export them
        src = Path(__file__).resolve().parent.parent / "src" / "leibnil"
        for path in sorted(src.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                        getattr(node, "module", None) != "__future__":
                    imported |= {alias.asname or alias.name.split(".")[0]
                                 for alias in node.names}
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused = sorted(imported - used)
            assert unused == [], f"{path.name} never uses {unused}"


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_random_tagged_products_land_in_their_level(algebras, data):
    # any concrete product with >= m factors inside B evaluates into B^<m>
    name = data.draw(st.sampled_from(FIXTURE_NAMES))
    loaded = algebras[name]
    alg = loaded.algebra
    b = full_ideal(alg)
    table = strong_filtration(b, 6)
    rng = Random(data.draw(st.integers(min_value=0, max_value=10 ** 6)))
    length = rng.randint(1, 5)
    weight = rng.randint(0, length)

    def rand_vec(space):
        v = alg.basis_vector(1).scale(QQ.zero)
        for row in space.basis_vectors():
            v = v + row.scale(QQ.random(rng))
        return v

    slots = set(rng.sample(range(length), weight))
    factors = [rand_vec(b.space if i in slots else alg.full_space())
               for i in range(length)]
    shapes = all_shapes(length)
    value = eval_shape(shapes[rng.randrange(len(shapes))], factors, alg)
    level = table.entry(min(weight, 6)) if weight >= 1 else alg.full_space()
    assert is_subspace_of(span([value], alg.dim, QQ), level)
