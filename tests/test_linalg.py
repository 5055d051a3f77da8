from dataclasses import FrozenInstanceError, asdict, fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from leibnil.fields import GF, QQ
from leibnil.linalg import (
    Subspace,
    Vector,
    contains,
    full_subspace,
    reduce_against,
    is_subspace_of,
    span,
    subspace_intersect,
    subspace_sum,
    vector,
    zero_subspace,
)

from .strategies import paired_subspaces, scalars, small_fields, subspaces, vectors


def qvec(*coords):
    return vector(QQ, coords)


class TestSpan:
    def test_standard_basis_spans_everything(self):
        s = span([qvec(1, 0), qvec(0, 1)], 2)
        assert s == full_subspace(QQ, 2)
        assert s.dim == 2

    def test_dependent_vectors_collapse(self):
        # hand row-reduction: (2,4) and (1,2) are proportional
        s = span([qvec(2, 4), qvec(1, 2)], 2)
        assert s.dim == 1
        assert s.basis == ((Fraction(1), Fraction(2)),)

    def test_empty_span_is_zero(self):
        s = span([], 2, QQ)
        assert s.is_zero() and s.dim == 0

    def test_empty_span_without_field_rejected(self):
        with pytest.raises(ValueError):
            span([], 2)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError):
            span([qvec(1, 0), vector(GF(3), [1, 0])], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            span([qvec(1, 0, 0)], 2)


class TestSumIntersect:
    def test_sum_with_zero_is_identity(self):
        u = span([qvec(1, 2)], 2)
        assert subspace_sum(u, zero_subspace(QQ, 2)) == u

    def test_lines_sum_to_plane(self):
        s = subspace_sum(span([qvec(1, 0)], 2), span([qvec(0, 1)], 2))
        assert s == full_subspace(QQ, 2)

    def test_sum_dim_three(self):
        # row-reduce the union: (1,1,0), (1,0,0) are independent
        s = subspace_sum(span([qvec(1, 1, 0)], 3), span([qvec(1, 0, 0)], 3))
        assert s.dim == 2

    def test_intersect_idempotent(self):
        u = span([qvec(1, 2), qvec(0, 1)], 2)
        assert subspace_intersect(u, u) == u

    def test_orthogonal_lines_intersect_trivially(self):
        s = subspace_intersect(span([qvec(1, 0)], 2), span([qvec(0, 1)], 2))
        assert s.is_zero()

    def test_intersect_containment(self):
        u = span([qvec(1, 1), qvec(1, 0)], 2)
        v = span([qvec(1, 1)], 2)
        assert subspace_intersect(u, v) == v

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subspace_sum(span([qvec(1, 0)], 2), span([qvec(1, 0, 0)], 3))
        with pytest.raises(ValueError):
            subspace_intersect(span([qvec(1, 0)], 2), span([vector(GF(3), [1, 0])], 2))


class TestZeroTests:
    @given(vectors())
    def test_is_zero_means_every_coordinate_equals_zero(self, v):
        assert v.is_zero() == all(a == v.field.zero for a in v.coords)

    def test_unnormalized_residue_counts_as_nonzero(self):
        # 3 is 0 in GF(3) but not the residue 0; zero tests look at the value
        assert not Vector(GF(3), (0, 3)).is_zero()
        assert Vector(GF(3), (0, 0)).is_zero()


class TestContains:
    def test_zero_vector_always_contained(self):
        assert contains(zero_subspace(QQ, 2), qvec(0, 0))
        assert contains(span([qvec(1, 2)], 2), qvec(0, 0))

    def test_scalar_multiple_contained(self):
        assert contains(span([qvec(1, 2)], 2), qvec(2, 4))

    def test_nonmember_rejected(self):
        assert not contains(span([qvec(1, 2)], 2), qvec(1, 0))

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            contains(span([qvec(1, 0)], 2), qvec(1, 0, 0))


def dense_reduce_against(u, v):
    """Reference residual: subtract c*row from every coordinate of v."""
    f = u.field
    coords = list(v.coords)
    for row in u.basis:
        pivot_col = next(i for i, a in enumerate(row) if a)
        c = coords[pivot_col]
        if c:
            coords = [f.sub(x, f.mul(c, y)) for x, y in zip(coords, row)]
    return Vector(f, tuple(coords))


@given(st.data())
def test_reduce_against_matches_dense_elimination(data):
    f = data.draw(small_fields)
    d = data.draw(st.integers(min_value=1, max_value=6))
    u = data.draw(subspaces(field=f, dim=d))
    v = data.draw(vectors(field=f, dim=d))
    assert reduce_against(u, v) == dense_reduce_against(u, v)


@given(paired_subspaces())
def test_dimension_formula(pair):
    u, v = pair
    total = subspace_sum(u, v).dim + subspace_intersect(u, v).dim
    assert total == u.dim + v.dim


@given(subspaces())
def test_span_is_canonical(u):
    assert span(u.basis_vectors(), u.ambient_dim, u.field) == u


@given(paired_subspaces())
def test_intersection_inside_both(pair):
    u, v = pair
    w = subspace_intersect(u, v)
    assert is_subspace_of(w, u) and is_subspace_of(w, v)


@given(paired_subspaces())
def test_sum_contains_both(pair):
    u, v = pair
    s = subspace_sum(u, v)
    assert is_subspace_of(u, s) and is_subspace_of(v, s)


@given(subspaces(), vectors())
def test_contains_iff_sum_dim_unchanged(u, v):
    if v.field != u.field or len(v.coords) != u.ambient_dim:
        return
    grown = subspace_sum(u, span([v], u.ambient_dim, u.field))
    assert contains(u, v) == (grown.dim == u.dim)


@given(subspaces())
def test_echelon_shape(u):
    # pivots 1, strictly increasing pivot columns, zeros above and below
    zero, one = u.field.zero, u.field.one
    pivot_cols = []
    for row in u.basis:
        col = next(i for i, a in enumerate(row) if a != zero)
        assert row[col] == one
        pivot_cols.append(col)
    assert pivot_cols == sorted(set(pivot_cols))
    for r, row in enumerate(u.basis):
        for r2, other in enumerate(u.basis):
            if r2 != r:
                assert other[pivot_cols[r]] == zero


class TestSubspaceContract:
    """Equality and hashing follow the fields, whatever the hash caching does."""

    @given(st.data())
    def test_spans_of_one_space_are_equal_and_hash_equal(self, data):
        f = data.draw(small_fields)
        d = data.draw(st.integers(min_value=1, max_value=4))
        vs = data.draw(st.lists(vectors(field=f, dim=d), max_size=d + 1))
        scales = [data.draw(scalars(f).filter(lambda c: c != 0)) for _ in vs]
        # nonzero multiples in reverse order, plus sums of neighbours
        others = [v.scale(c) for v, c in zip(vs, scales)][::-1]
        others += [x + y for x, y in zip(vs, vs[1:])]
        u, w = span(vs, d, f), span(others, d, f)
        assert u == w and w == u
        assert hash(u) == hash(w)

    @given(subspaces(field=GF(5)))
    def test_same_rows_over_q_and_gf_p_are_unequal(self, s):
        q = Subspace(QQ, s.ambient_dim, tuple(tuple(Fraction(a) for a in row)
                                             for row in s.basis))
        assert q.basis == s.basis
        assert q != s and s != q
        assert len({q, s}) == 2

    @given(paired_subspaces())
    def test_equality_is_field_equality(self, pair):
        u, v = pair
        same = (u.field, u.ambient_dim, u.basis) == (v.field, v.ambient_dim, v.basis)
        hash(u)
        assert (u == v) == same
        assert (u == v) == (u == replace(v))

    def test_fields_repr_and_replace_unchanged(self):
        s = span([qvec(1, 2)], 2)
        before = repr(s)
        hash(s)
        assert [f.name for f in fields(Subspace)] == ["field", "ambient_dim", "basis"]
        assert repr(s) == before == "<dim 1 in Q^2: (1, 2)>"
        assert asdict(s) == {"field": {}, "ambient_dim": 2,
                             "basis": ((Fraction(1), Fraction(2)),)}
        t = replace(s)
        assert t == s and t is not s and hash(t) == hash(s)
        assert replace(s, basis=()) == zero_subspace(QQ, 2)
        assert s != "not a subspace"

    def test_setting_an_attribute_raises(self):
        s = span([qvec(1, 2)], 2)
        hash(s)
        with pytest.raises(FrozenInstanceError):
            s.basis = ()
        with pytest.raises(FrozenInstanceError):
            s.extra = 1

    @given(paired_subspaces())
    def test_inclusion_shortcuts_agree_with_row_test(self, pair):
        u, v = pair

        def row_test(a, b):
            return all(contains(b, w) for w in a.basis_vectors())

        assert is_subspace_of(u, u) is True and row_test(u, u)
        assert is_subspace_of(u, v) == row_test(u, v)
        if u.dim > v.dim:
            assert not row_test(u, v)
