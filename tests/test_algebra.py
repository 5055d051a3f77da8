from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from leibnil import algebra
from leibnil.algebra import (
    AlgebraDef,
    ChainVerificationError,
    IdealHandle,
    algebra_from_constants,
    bracket,
    es_of,
    full_ideal,
    is_antisymmetric,
    is_right_leibniz,
    right_identity_sides,
    squares_ideal,
    subspace_product,
    verify_left_leibniz,
    verify_right_leibniz,
)
from leibnil.fields import GF, QQ, PrimeField
from leibnil.linalg import Vector, contains, is_subspace_of, span, vector, zero_subspace
from leibnil.search import sparse_tensors_exhaustive
from leibnil.series import NEVER, nilpotency_profile

from .conftest import FIXTURE_NAMES
from .oracles import (
    bracket_squares_ideal,
    bracketed_squares,
    dense_identity_failures,
    dense_is_antisymmetric,
    ideal_closure,
)
from .strategies import scalars, vectors


# Independent oracle: evaluate brackets straight off a constants dict, never
# touching the production bracket() path.

def oracle_bracket(constants, dim, x, y):
    out = [Fraction(0)] * dim
    for (i, j, k), c in constants.items():
        out[k - 1] += x[i - 1] * y[j - 1] * c
    return tuple(out)


def oracle_right_leibniz_failures(constants, dim):
    failures = []
    basis = [tuple(Fraction(1) if t == s else Fraction(0) for t in range(dim))
             for s in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                x, y, z = basis[i], basis[j], basis[k]
                lhs = oracle_bracket(constants, dim, x, oracle_bracket(constants, dim, y, z))
                ab = oracle_bracket(constants, dim, oracle_bracket(constants, dim, x, y), z)
                ac = oracle_bracket(constants, dim, oracle_bracket(constants, dim, x, z), y)
                rhs = tuple(p - q for p, q in zip(ab, ac))
                if lhs != rhs:
                    failures.append((i + 1, j + 1, k + 1))
    return failures


def oracle_left_leibniz_failures(constants, dim):
    failures = []
    basis = [tuple(Fraction(1) if t == s else Fraction(0) for t in range(dim))
             for s in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                x, y, z = basis[i], basis[j], basis[k]
                lhs = oracle_bracket(constants, dim, x, oracle_bracket(constants, dim, y, z))
                ab = oracle_bracket(constants, dim, oracle_bracket(constants, dim, x, y), z)
                bc = oracle_bracket(constants, dim, y, oracle_bracket(constants, dim, x, z))
                rhs = tuple(p + q for p, q in zip(ab, bc))
                if lhs != rhs:
                    failures.append((i + 1, j + 1, k + 1))
    return failures


A2_CONSTANTS = {(2, 1, 2): Fraction(1)}
L2_CONSTANTS = {(1, 1, 2): Fraction(1)}
H3_CONSTANTS = {(1, 2, 3): Fraction(1), (2, 1, 3): Fraction(-1)}
BROKEN_CONSTANTS = {(2, 1, 2): Fraction(1), (1, 2, 1): Fraction(1)}


def qvec(*coords):
    return vector(QQ, coords)


@st.composite
def sampled_algebras(draw):
    """Sparse dim-1..3 tensors over Q or GF(3), most of them not Leibniz."""
    field = draw(st.sampled_from([QQ, GF(3)]))
    dim = draw(st.integers(min_value=1, max_value=3))
    index = st.integers(min_value=1, max_value=dim)
    cells = draw(st.dictionaries(st.tuples(index, index, index),
                                 scalars(field).filter(lambda c: c != 0), max_size=4))
    return algebra_from_constants("sampled", dim, field,
                                  [(i, j, k, c) for (i, j, k), c in cells.items()])


class TestBracket:
    def test_abelian_brackets_vanish(self, abelian2):
        alg = abelian2.algebra
        assert bracket(qvec(3, -2), qvec("1/2", 5), alg).is_zero()

    def test_a2_basis_brackets(self, a2):
        alg = a2.algebra
        e1, e2 = alg.basis_vector(1), alg.basis_vector(2)
        assert bracket(e2, e1, alg) == e2
        assert bracket(e1, e2, alg).is_zero()

    def test_h3_square_vanishes_by_bilinearity(self, h3):
        alg = h3.algebra
        x = alg.basis_vector(1) + alg.basis_vector(2)
        assert bracket(x, x, alg).is_zero()

    def test_mismatched_input_rejected(self, a2):
        with pytest.raises(ValueError):
            bracket(qvec(1, 0, 0), qvec(1, 0), a2.algebra)
        with pytest.raises(ValueError):
            bracket(vector(GF(3), [1, 0]), vector(GF(3), [0, 1]), a2.algebra)

    @given(st.data())
    def test_bilinearity(self, a2, data):
        alg = a2.algebra
        x = data.draw(vectors(field=QQ, dim=2))
        y = data.draw(vectors(field=QQ, dim=2))
        z = data.draw(vectors(field=QQ, dim=2))
        c = data.draw(scalars(QQ))
        left = bracket(x.scale(c) + y, z, alg)
        assert left == bracket(x, z, alg).scale(c) + bracket(y, z, alg)
        right = bracket(z, x.scale(c) + y, alg)
        assert right == bracket(z, x, alg).scale(c) + bracket(z, y, alg)


@st.composite
def tables_and_vectors(draw):
    """A dim-1..4 table over Q, GF(3) or GF(5), about half of its cells
    nonzero and seldom Leibniz, and two vectors (zero coordinates included)."""
    field = draw(st.sampled_from([QQ, GF(3), GF(5)]))
    dim = draw(st.integers(min_value=1, max_value=4))
    maybe_zero = st.one_of(st.just(field.zero), scalars(field))
    cells = draw(st.lists(maybe_zero, min_size=dim ** 3, max_size=dim ** 3))
    constants = {ijk: c for ijk, c in zip(product(range(1, dim + 1), repeat=3), cells)
                 if c != 0}
    x, y = (Vector(field, tuple(draw(st.lists(scalars(field), min_size=dim, max_size=dim))))
            for _ in range(2))
    return field, dim, constants, x, y


class TestSparseKernel:
    @given(tables_and_vectors())
    @settings(max_examples=150, deadline=None)
    def test_bracket_matches_the_constants_oracle(self, case):
        field, dim, constants, x, y = case
        alg = algebra_from_constants("sampled", dim, field,
                                     [(i, j, k, c) for (i, j, k), c in constants.items()])
        expected = oracle_bracket(constants, dim, x.coords, y.coords)
        if isinstance(field, PrimeField):
            expected = tuple(int(c) % field.p for c in expected)
        assert bracket(x, y, alg) == Vector(field, expected)

    def test_rows_hold_the_nonzero_cells(self, h3):
        # [e1, e2] = e3 and [e2, e1] = -e3, 0-based (j, ((k, c), ...)) per row
        assert h3.algebra._rows == (((1, ((2, Fraction(1)),)),),
                                    ((0, ((2, Fraction(-1)),)),),
                                    ())

    def test_algebra_def_contract(self):
        assert [f.name for f in fields(AlgebraDef)] == ["name", "field", "dim", "table"]
        constants = [(i, j, k, Fraction(c)) for (i, j, k), c in H3_CONSTANTS.items()]
        first = algebra_from_constants("h3", 3, QQ, constants)
        second = algebra_from_constants("h3", 3, QQ, constants)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert repr(first) == "AlgebraDef('h3', dim 3 over Q)"
        assert first != algebra_from_constants("h3", 3, QQ, constants[:1])


def assert_matches_the_dense_loop(alg):
    """Both verifiers give the dense loop's triples, and each failing right
    triple's two sides are the dense loop's lhs and rhs."""
    right = dense_identity_failures(alg, "right")
    assert verify_right_leibniz(alg) == tuple(triple for triple, _, _ in right)
    for triple, lhs, rhs in right:
        assert right_identity_sides(alg, triple) == (lhs, rhs)
    left = dense_identity_failures(alg, "left")
    assert verify_left_leibniz(alg) == tuple(triple for triple, _, _ in left)


class TestIdentityVerification:
    def test_abelian_valid(self, abelian2):
        assert verify_right_leibniz(abelian2.algebra) == ()
        assert verify_left_leibniz(abelian2.algebra) == ()

    def test_a2_right_identity_matches_oracle(self, a2):
        assert oracle_right_leibniz_failures(A2_CONSTANTS, 2) == []
        assert verify_right_leibniz(a2.algebra) == ()
        assert is_right_leibniz(a2.algebra)

    def test_a2_left_identity_golden(self, a2):
        # brute-force oracle says the left identity fails on a2
        expected = oracle_left_leibniz_failures(A2_CONSTANTS, 2)
        assert expected  # (2,1,1) among others
        failures = verify_left_leibniz(a2.algebra)
        assert failures
        assert sorted(failures) == sorted(expected)

    def test_l2_both_identities_match_oracle(self, l2):
        assert oracle_right_leibniz_failures(L2_CONSTANTS, 2) == []
        assert oracle_left_leibniz_failures(L2_CONSTANTS, 2) == []
        assert verify_right_leibniz(l2.algebra) == ()
        assert verify_left_leibniz(l2.algebra) == ()

    def test_h3_is_lie_so_both_hold(self, h3):
        assert verify_right_leibniz(h3.algebra) == ()
        assert verify_left_leibniz(h3.algebra) == ()

    def test_broken_fails_with_reported_triples(self, broken):
        expected = oracle_right_leibniz_failures(BROKEN_CONSTANTS, 2)
        failures = verify_right_leibniz(broken.algebra)
        assert failures
        assert sorted(failures) == sorted(expected)
        assert not is_right_leibniz(broken.algebra)
        lhs, rhs = right_identity_sides(broken.algebra, failures[0])
        assert lhs != rhs

    @given(sampled_algebras())
    @settings(max_examples=80, deadline=None)
    def test_report_matches_the_identity_loop(self, alg):
        failures = verify_right_leibniz(alg)
        assert (not failures) == is_right_leibniz(alg)
        assert_matches_the_dense_loop(alg)
        if not failures:
            # the consequences [y,[x,x]] = 0 and [z,[x,y]] + [z,[y,x]] = 0 need no
            # check of their own: they follow from the identity on basis triples
            t, e = alg.table, [alg.basis_vector(i) for i in range(1, alg.dim + 1)]
            for x, y, z in product(range(alg.dim), repeat=3):
                assert bracket(e[y], t[x][x], alg).is_zero()
                assert bracket(e[z], t[x][y] + t[y][x], alg).is_zero()

    @given(st.data())
    @settings(max_examples=40)
    def test_right_identity_on_random_triples(self, algebras, data):
        name = data.draw(st.sampled_from(FIXTURE_NAMES))
        alg = algebras[name].algebra
        x = data.draw(vectors(field=QQ, dim=alg.dim))
        y = data.draw(vectors(field=QQ, dim=alg.dim))
        z = data.draw(vectors(field=QQ, dim=alg.dim))
        lhs = bracket(x, bracket(y, z, alg), alg)
        rhs = bracket(bracket(x, y, alg), z, alg) - bracket(bracket(x, z, alg), y, alg)
        assert lhs == rhs


@st.composite
def identity_cases(draw):
    """A dim-1..4 tensor over Q, GF(3) or GF(5), of one of four shapes.

    "sparse" has at most four nonzero cells and "dense" about half of all
    cells; both seldom satisfy an identity. "central" has only cells
    [e_i, e_j] = c e_dim with i, j < dim, so every double bracket vanishes
    and both identities hold. "right" has only cells [e_i, e_1] = c e_k with
    k >= 2, so the right identity holds and the left one usually fails.
    """
    field = draw(st.sampled_from([QQ, GF(3), GF(5)]))
    dim = draw(st.integers(min_value=1, max_value=4))
    shape = draw(st.sampled_from(["sparse", "dense", "central", "right"]))
    cells = list(product(range(1, dim + 1), repeat=3))
    if shape == "central":
        cells = [(i, j, k) for i, j, k in cells if i < dim and j < dim and k == dim]
    elif shape == "right":
        cells = [(i, j, k) for i, j, k in cells if j == 1 and k >= 2]
    nonzero = scalars(field).filter(lambda c: c != 0)
    if shape == "sparse":
        chosen = draw(st.lists(st.sampled_from(cells), max_size=4, unique=True))
        values = [draw(nonzero) for _ in chosen]
    else:
        chosen = cells
        values = draw(st.lists(st.one_of(st.just(field.zero), nonzero),
                               min_size=len(cells), max_size=len(cells)))
    constants = [(i, j, k, c) for (i, j, k), c in zip(chosen, values) if c != 0]
    return shape, algebra_from_constants(shape, dim, field, constants)


class TestSparseIdentityCheck:
    @given(identity_cases())
    @settings(max_examples=200, deadline=None)
    def test_failures_match_the_dense_loop(self, case):
        shape, alg = case
        right, left = verify_right_leibniz(alg), verify_left_leibniz(alg)
        assert_matches_the_dense_loop(alg)
        assert is_right_leibniz(alg) == (not right)
        if shape in ("central", "right"):
            assert right == ()
        if shape == "central":
            assert left == ()

    def test_every_small_gf3_tensor_matches_the_dense_loop(self):
        # the 128 dim-2 tensors over GF(3) with one or two nonzero constants
        valid = 0
        for constants in sparse_tensors_exhaustive(2, 3):
            alg = algebra_from_constants("gf3", 2, GF(3), constants)
            assert_matches_the_dense_loop(alg)
            assert is_right_leibniz(alg) == (not dense_identity_failures(alg, "right"))
            assert is_antisymmetric(alg) == dense_is_antisymmetric(alg)
            valid += is_right_leibniz(alg)
        assert valid == 20


@st.composite
def antisymmetry_cases(draw):
    """A dim-1..4 tensor that is antisymmetric by construction, sometimes broken.

    Cells [e_i, e_j] with i < j get a value and [e_j, e_i] its negative; a
    broken case then overwrites one cell, which may be on the diagonal.
    """
    field = draw(st.sampled_from([QQ, GF(3), GF(5)]))
    dim = draw(st.integers(min_value=1, max_value=4))
    index = st.integers(min_value=1, max_value=dim)
    nonzero = scalars(field).filter(lambda c: c != 0)
    upper = draw(st.dictionaries(st.tuples(index, index, index).filter(lambda t: t[0] < t[1]),
                                 nonzero, max_size=6))
    cells = {**upper, **{(j, i, k): field.neg(c) for (i, j, k), c in upper.items()}}
    if draw(st.booleans()):
        cells[draw(st.tuples(index, index, index))] = draw(nonzero)
    return algebra_from_constants("anti", dim, field,
                                  [(i, j, k, c) for (i, j, k), c in cells.items()])


class TestAntisymmetry:
    @given(antisymmetry_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_dense_comparison(self, alg):
        assert is_antisymmetric(alg) == dense_is_antisymmetric(alg)

    def test_fixtures(self, algebras, broken):
        assert [is_antisymmetric(algebras[name].algebra) for name in FIXTURE_NAMES] == \
            [True, False, False, True]
        assert not is_antisymmetric(broken.algebra)


class TestStructureConstants:
    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            algebra_from_constants("bad", 2, QQ, [(3, 1, 1, Fraction(1))])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            algebra_from_constants("bad", 2, QQ,
                                   [(1, 1, 2, Fraction(1)), (1, 1, 2, Fraction(2))])

    def test_explicit_zero_rejected(self):
        with pytest.raises(ValueError):
            algebra_from_constants("bad", 2, QQ, [(1, 1, 2, Fraction(0))])

    @pytest.mark.parametrize("value", [4, 3, -1, Fraction(1, 2), Fraction(1), True, "1", 1.0])
    def test_non_element_rejected_over_gf3(self, value):
        with pytest.raises(ValueError, match=r"^structure constant at \(1,1,2\) is not an "
                                             r"element of GF\(3\): "):
            algebra_from_constants("bad", 2, GF(3), [(1, 1, 2, value)])

    @pytest.mark.parametrize("value", [True, "1/2", 0.5])
    def test_non_element_rejected_over_q(self, value):
        with pytest.raises(ValueError, match=r"^structure constant at \(1,1,2\) is not an "
                                             r"element of Q: "):
            algebra_from_constants("bad", 2, QQ, [(1, 1, 2, value)])

    def test_unreduced_residue_no_longer_breaks_antisymmetry(self):
        # [e1,e2] = 2e1 and [e2,e1] = 4e1 over GF(3): 4 is 1 = -2, but stored
        # unreduced it made is_antisymmetric False and the algebra unequal to
        # the one written with 1; it is rejected instead
        with pytest.raises(ValueError, match="not an element of GF"):
            algebra_from_constants("bad", 2, GF(3), [(1, 2, 1, 2), (2, 1, 1, 4)])
        alg = algebra_from_constants("ok", 2, GF(3), [(1, 2, 1, 2), (2, 1, 1, 1)])
        assert is_antisymmetric(alg)

    def test_field_elements_accepted(self):
        assert algebra_from_constants("q", 2, QQ, [(1, 1, 2, Fraction(1, 2)), (1, 2, 1, -3)])
        assert algebra_from_constants("gf3", 2, GF(3), [(1, 1, 2, 1), (1, 2, 1, 2)])


class TestSubspaceProduct:
    def test_product_with_zero_is_zero(self, a2):
        alg = a2.algebra
        assert subspace_product(alg.full_space(), zero_subspace(QQ, 2), alg).is_zero()

    def test_a2_full_products(self, a2):
        alg = a2.algebra
        full = alg.full_space()
        assert subspace_product(full, full, alg) == span([qvec(0, 1)], 2)

    def test_h3_products(self, h3):
        alg = h3.algebra
        full = alg.full_space()
        e3_line = span([qvec(0, 0, 1)], 3)
        assert subspace_product(full, full, alg) == e3_line
        assert subspace_product(e3_line, full, alg).is_zero()


class TestIdeals:
    def test_closure_of_zero_is_zero(self, a2):
        alg = a2.algebra
        assert ideal_closure(zero_subspace(QQ, 2), alg).space.is_zero()

    def test_a2_e2_line_is_already_closed(self, a2):
        alg = a2.algebra
        closed = ideal_closure(span([qvec(0, 1)], 2), alg)
        assert closed.space == span([qvec(0, 1)], 2)

    def test_h3_closure_of_e1(self, h3):
        # by hand: e1.L = span{e3}, L.e1 = span{e3}, e3 central
        alg = h3.algebra
        closed = ideal_closure(span([qvec(1, 0, 0)], 3), alg)
        assert closed.space == span([qvec(1, 0, 0), qvec(0, 0, 1)], 3)

    def test_ideal_handle_rejects_non_ideal(self, a2):
        # [e2, e1] = e2 leaves span(e1) on the left only
        with pytest.raises(ValueError, match=r"^subspace is not a left ideal$"):
            IdealHandle(a2.algebra, span([qvec(1, 0)], 2))

    def test_ideal_handle_tests_the_right_side_first(self, h3):
        # [e1, e2] = e3 and [e2, e1] = -e3: span(e1) fails on both sides
        with pytest.raises(ValueError, match=r"^subspace is not a right ideal$"):
            IdealHandle(h3.algebra, span([qvec(1, 0, 0)], 3))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_full_ideal_multiplies_nothing(self, algebras, name, monkeypatch):
        # L is an ideal of itself, so validating it costs no L.L product
        calls = []
        real = algebra.subspace_product
        monkeypatch.setattr(algebra, "subspace_product",
                            lambda *args: calls.append(args) or real(*args))
        full_ideal(algebras[name].algebra)
        assert calls == []

    def test_bundled_subspaces_are_ideals(self, algebras):
        for loaded in algebras.values():
            for space in loaded.ideals.values():
                IdealHandle(loaded.algebra, space)  # must not raise

    @given(st.data())
    @settings(max_examples=25)
    def test_closure_is_a_fixed_point(self, algebras, data):
        name = data.draw(st.sampled_from(FIXTURE_NAMES))
        alg = algebras[name].algebra
        seed_vec = data.draw(vectors(field=QQ, dim=alg.dim))
        closed = ideal_closure(span([seed_vec], alg.dim, QQ), alg).space
        full = alg.full_space()
        assert is_subspace_of(subspace_product(closed, full, alg), closed)
        assert is_subspace_of(subspace_product(full, closed, alg), closed)


class TestLeibnizKernel:
    @given(identity_cases().filter(lambda case: is_right_leibniz(case[1])))
    @settings(max_examples=100, deadline=None)
    def test_squares_span_an_ideal_annihilated_on_the_left(self, case):
        # L . I = 0 and I . L inside I for the span I of the squares, so the
        # closure adds nothing
        _, alg = case
        full, squares = alg.full_space(), bracketed_squares(alg)
        assert subspace_product(full, squares, alg).is_zero()
        assert is_subspace_of(subspace_product(squares, full, alg), squares)
        assert ideal_closure(squares, alg).space == squares


class TestSquaresIdeal:
    def test_lie_algebra_has_no_squares(self, h3):
        assert squares_ideal(h3.algebra).space.is_zero()

    def test_a2_squares_span_e2(self, a2):
        # [a e1 + b e2, same] = ab e2
        assert squares_ideal(a2.algebra).space == span([qvec(0, 1)], 2)

    def test_l2_squares_span_e2(self, l2):
        assert squares_ideal(l2.algebra).space == span([qvec(0, 1)], 2)

    @given(st.data())
    @settings(max_examples=40)
    def test_squares_ideal_contains_every_square(self, algebras, data):
        name = data.draw(st.sampled_from(FIXTURE_NAMES))
        alg = algebras[name].algebra
        x = data.draw(vectors(field=QQ, dim=alg.dim))
        assert contains(squares_ideal(alg).space, bracket(x, x, alg))

    @given(identity_cases())
    @settings(max_examples=100, deadline=None)
    def test_table_generators_match_the_bracketed_squares(self, case):
        # off the right Leibniz algebras the span of the squares may be no
        # ideal, or not annihilated on the left; squares_ideal then raises
        _, alg = case
        try:
            space = squares_ideal(alg).space
        except (ChainVerificationError, ValueError):
            assert not is_right_leibniz(alg)
        else:
            assert space == bracket_squares_ideal(alg)

    def test_squares_not_annihilated_on_the_left_raise(self):
        # [e1,[e1,e1]] = e1: the identity fails, and the squares span L
        alg = algebra_from_constants("t", 2, QQ, [(1, 1, 1, QQ.one), (2, 1, 2, QQ.one)])
        assert not is_right_leibniz(alg)
        with pytest.raises(ChainVerificationError, match=r"^L \. I is not zero"):
            squares_ideal(alg)

    def test_cache_stays_bounded_over_many_profiles(self):
        maxsize = squares_ideal.cache_info().maxsize
        assert maxsize is not None
        for c in range(1, maxsize + 4):
            # distinct algebras [e2, e1] = c e2, each profiled once
            alg = algebra_from_constants(f"a2_{c}", 2, QQ, [(2, 1, 2, QQ.from_int(c))])
            assert nilpotency_profile(full_ideal(alg), 3).right_status == NEVER
        assert squares_ideal.cache_info().currsize <= maxsize


class TestEsOf:
    def test_zero_ideal_gives_zero(self, a2):
        alg = a2.algebra
        b = IdealHandle(alg, zero_subspace(QQ, 2))
        assert es_of(b).is_zero()

    def test_a2_full_es_is_e2_line(self, a2):
        assert es_of(full_ideal(a2.algebra)) == span([qvec(0, 1)], 2)

    def test_h3_es_is_zero(self, h3):
        assert es_of(full_ideal(h3.algebra)).is_zero()

    @given(st.data())
    @settings(max_examples=40)
    def test_symmetrized_bracket_lands_in_es(self, algebras, data):
        # for a in L and b in the ideal, ab + ba is a member of Es(B)
        name = data.draw(st.sampled_from(FIXTURE_NAMES))
        loaded = algebras[name]
        alg = loaded.algebra
        spaces = [alg.full_space()] + sorted(loaded.ideals.values(),
                                             key=lambda s: s.basis)
        b_space = data.draw(st.sampled_from(spaces))
        b = IdealHandle(alg, b_space)
        a_vec = data.draw(vectors(field=QQ, dim=alg.dim))
        coeffs = [data.draw(scalars(QQ)) for _ in range(b_space.dim)]
        b_vec = alg.basis_vector(1).scale(QQ.zero)
        for c, row in zip(coeffs, b_space.basis_vectors()):
            b_vec = b_vec + row.scale(c)
        s = bracket(a_vec, b_vec, alg) + bracket(b_vec, a_vec, alg)
        assert contains(es_of(b), s)
