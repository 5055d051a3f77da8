import ast
from itertools import combinations, product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from leibnil.algebra import (
    IdealHandle,
    algebra_from_constants,
    bracket,
    es_of,
    full_ideal,
    ideal_closure,
    is_right_leibniz,
    squares_ideal,
    subspace_product,
)
from leibnil.fields import GF, QQ
from leibnil.linalg import (
    Vector,
    is_subspace_of,
    span,
    subspace_sum,
    vector,
    zero_subspace,
    zero_vector,
)
from leibnil.search import sparse_tensors_sampled
from leibnil.series import (
    FOUND,
    ChainVerificationError,
    NEVER,
    UNDETERMINED,
    SeriesKind,
    bk_chain,
    compute_series,
    es_nil_index,
    filtration_check,
    general_powers,
    index_bound,
    left_powers,
    left_translates,
    nilpotency_profile,
    profile_from_series,
    random_vector_in,
    right_powers,
    right_translates,
    strong_filtration,
    verify_paper_inclusions,
)

from .conftest import FIXTURE_NAMES
from .strategies import subspaces


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


class TestRightPowers:
    def test_abelian_squares_to_zero(self, abelian2):
        table = right_powers(full_ideal(abelian2.algebra), 10)
        assert table.dims() == [2, 2, 0]
        assert table.terminated_zero and table.first_zero_index() == 2

    def test_a2_stabilizes_nonzero(self, a2):
        table = right_powers(full_ideal(a2.algebra), 10)
        assert table.dims() == [2, 2, 1, 1]
        assert table.stabilized and not table.terminated_zero
        assert table.first_zero_index() is None
        # fixed-point soundness: one more product step changes nothing
        fix = table.entries[-1][1]
        assert subspace_product(fix, a2.algebra.full_space(), a2.algebra) == fix
        # and the table extends past its computed range
        assert table.entry(40) == fix

    def test_l2_dies_at_three(self, l2):
        table = right_powers(full_ideal(l2.algebra), 10)
        assert table.dims() == [2, 2, 1, 0]
        assert table.first_zero_index() == 3

    def test_zero_ideal_has_index_one(self, a2):
        b = IdealHandle(a2.algebra, zero_subspace(QQ, 2))
        assert right_powers(b, 5).first_zero_index() == 1


class TestLeftPowers:
    def test_abelian(self, abelian2):
        assert left_powers(full_ideal(abelian2.algebra), 10).first_zero_index() == 2

    def test_a2_left_dies(self, a2):
        table = left_powers(full_ideal(a2.algebra), 10)
        assert table.dims() == [2, 2, 1, 0]
        assert table.first_zero_index() == 3

    def test_h3(self, h3):
        table = left_powers(full_ideal(h3.algebra), 10)
        assert table.dims() == [3, 3, 1, 0]
        assert table.first_zero_index() == 3


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
        assert general_powers(full_ideal(h3.algebra), 10).first_zero_index() == 3

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
        assert table.first_zero_index() == 3

    def test_l2_dies_at_three_under_bound(self, l2):
        table = strong_filtration(full_ideal(l2.algebra), 31)
        assert table.first_zero_index() == 3
        assert 3 <= index_bound(3) == 31

    def test_a2_levels_freeze_at_the_line(self, a2):
        table = strong_filtration(full_ideal(a2.algebra), 8)
        assert table.dims() == [2] + [1] * 7
        assert table.stabilized and not table.terminated_zero

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
        # S_n: [e_i, e_1] = e_i for i >= 2; its levels freeze at a nonzero ideal
        constants = signed_relabel([(i, 1, i, 1) for i in range(2, n + 1)], n, Random(n))
        alg = algebra_from_constants(f"S{n}", n, QQ, constants)
        b = full_ideal(alg)
        assert strong_filtration(b, 12).stabilized
        self.assert_matches_graded_recurrence(b)
        self.assert_matches_graded_recurrence(squares_ideal(alg))

    def test_gf3_tensors_match_graded_recurrence(self):
        for alg in valid_gf3_tensors(120):
            self.assert_matches_graded_recurrence(full_ideal(alg))
            self.assert_matches_graded_recurrence(squares_ideal(alg))

    def test_center_of_h3_dies_at_two(self, h3):
        b = IdealHandle(h3.algebra, h3.ideals["center"])
        table = strong_filtration(b, 5)
        assert table.first_zero_index() == 2
        assert table.entry(2) == oracle_strong_level(b, 2, 3)


class TestTranslates:
    def test_zero_space_stays_zero(self, a2):
        alg = a2.algebra
        table = right_translates(zero_subspace(QQ, 2), 5, alg)
        assert table.terminated_zero and table.entries == ((0, zero_subspace(QQ, 2)),)

    def test_a2_e2_line_is_a_right_fixed_point(self, a2):
        table = right_translates(e2_line(), 5, a2.algebra)
        assert table.stabilized and not table.terminated_zero
        assert table.dims() == [1, 1]

    def test_a2_e2_line_dies_on_the_left(self, a2):
        table = left_translates(e2_line(), 5, a2.algebra)
        assert table.first_zero_index() == 1

    def test_l2_e2_line_dies_on_the_right(self, l2):
        table = right_translates(e2_line(), 5, l2.algebra)
        assert table.first_zero_index() == 1

    def test_h3_center_dies_both_ways(self, h3):
        center = h3.ideals["center"]
        assert right_translates(center, 5, h3.algebra).first_zero_index() == 1
        assert left_translates(center, 5, h3.algebra).first_zero_index() == 1


class TestEsNilIndex:
    def test_lie_algebra_trivially_one(self, h3):
        verdict = es_nil_index(full_ideal(h3.algebra), "right")
        assert verdict.k == 1 and verdict.definitive

    def test_a2_right_definitively_absent(self, a2):
        verdict = es_nil_index(full_ideal(a2.algebra), "right")
        assert verdict.k is None and verdict.definitive

    def test_a2_left_is_one(self, a2):
        verdict = es_nil_index(full_ideal(a2.algebra), "left")
        assert verdict.k == 1 and verdict.definitive

    def test_l2_right_is_one(self, l2):
        verdict = es_nil_index(full_ideal(l2.algebra), "right")
        assert verdict.k == 1 and verdict.definitive

    def test_bad_side_rejected(self, l2):
        with pytest.raises(ValueError):
            es_nil_index(full_ideal(l2.algebra), "up")


class TestBkChain:
    def test_lie_chain_equals_powers(self, h3):
        b = full_ideal(h3.algebra)
        chain = bk_chain(b, 6)
        powers = right_powers(b, 6)
        for k, space in chain.entries:
            if k >= 2:
                assert space == powers.entry(k)

    def test_l2_chain_freezes_at_the_line(self, l2):
        chain = bk_chain(full_ideal(l2.algebra), 6)
        assert chain.entry(2) == e2_line()
        assert chain.entry(3) == e2_line()
        assert chain.entry(6) == e2_line()

    def test_a2_chain(self, a2):
        chain = bk_chain(full_ideal(a2.algebra), 8)
        for k in range(2, 9):
            assert chain.entry(k) == e2_line()

    def test_chain_entries_are_ideals_and_decreasing(self, algebras):
        for name in FIXTURE_NAMES:
            alg = algebras[name].algebra
            chain = bk_chain(full_ideal(alg), 8)
            for (_, upper), (_, lower) in zip(chain.entries, chain.entries[1:]):
                assert is_subspace_of(lower, upper)
            for _, space in chain.entries:
                IdealHandle(alg, space)  # re-validate two-sidedness


class TestMonotoneChains:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_decreasing_kinds_decrease(self, algebras, name):
        b = full_ideal(algebras[name].algebra)
        bundle = compute_series(b, 12)
        for table in (bundle.right, bundle.left, bundle.strong, bk_chain(b, 12)):
            entries = table.entries
            start = 1 if table.kind in (SeriesKind.RIGHT_POWERS,
                                        SeriesKind.LEFT_POWERS) else 0
            pairs = list(zip(entries, entries[1:]))
            for (k, upper), (_, lower) in pairs:
                if k >= start:
                    assert is_subspace_of(lower, upper), (name, table.kind, k)


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


class TestInclusionChecks:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_full_ideal_inclusions_pass(self, algebras, name):
        b = full_ideal(algebras[name].algebra)
        report = verify_paper_inclusions(b, 8, seed=7, samples=10)
        assert report.ok, [c for c in report.checks if not c.passed]

    def test_named_ideal_inclusions_pass(self, algebras):
        for name in FIXTURE_NAMES:
            loaded = algebras[name]
            for space in loaded.ideals.values():
                b = IdealHandle(loaded.algebra, space)
                report = verify_paper_inclusions(b, 6, seed=3, samples=6)
                assert report.ok, (name, [c for c in report.checks if not c.passed])

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_check_d_is_the_shared_filtration_check(self, algebras, name):
        b = full_ideal(algebras[name].algebra)
        check = filtration_check(strong_filtration(b, 8), b.algebra)
        assert check.passed
        assert check in verify_paper_inclusions(b, 8).checks

    def test_report_is_seed_deterministic(self, l2):
        b = full_ideal(l2.algebra)
        first = verify_paper_inclusions(b, 6, seed=11, samples=8)
        second = verify_paper_inclusions(b, 6, seed=11, samples=8)
        assert first == second


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
    def test_inconsistent_bundle_raises(self, inconsistent_bundle):
        with pytest.raises(ChainVerificationError, match="right/general"):
            profile_from_series(inconsistent_bundle, 8)

    def test_library_has_no_assert(self):
        # invariants must raise under python -O too, which strips asserts
        src = Path(__file__).resolve().parent.parent / "src" / "leibnil"
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert asserts == [], f"{path.name} asserts at lines {asserts}"


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
