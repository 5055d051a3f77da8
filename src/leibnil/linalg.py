"""Exact vectors and canonical subspaces.

A subspace is stored as its reduced row-echelon basis, which is unique for a
given row space, so subspace equality is plain structural equality. All
operations (span, sum, intersection, membership) are exact over the carrier
field; nothing here is numerical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import Field, Scalar


@dataclass(frozen=True)
class Vector:
    field: Field
    coords: tuple[Scalar, ...]

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Vector") -> "Vector":
        _check_compatible(self, other)
        f = self.field
        return Vector(f, tuple(f.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Vector") -> "Vector":
        _check_compatible(self, other)
        f = self.field
        return Vector(f, tuple(f.sub(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Vector":
        return Vector(self.field, tuple(self.field.neg(a) for a in self.coords))

    def scale(self, c: Scalar) -> "Vector":
        f = self.field
        return Vector(f, tuple(f.mul(c, a) for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self) -> str:
        return "(" + ", ".join(self.field.format(a) for a in self.coords) + ")"


def vector(field: Field, coords: Iterable) -> Vector:
    """Parse coordinates (scalars, ints or exact literals) into a Vector."""
    return Vector(field, tuple(field.parse(c) if isinstance(c, (str, int)) else c
                               for c in coords))


def zero_vector(field: Field, dim: int) -> Vector:
    return Vector(field, (field.zero,) * dim)


def basis_vector(field: Field, dim: int, i: int) -> Vector:
    """Standard basis vector e_i, 1-based."""
    if not 1 <= i <= dim:
        raise ValueError(f"basis index {i} out of range 1..{dim}")
    return Vector(field, tuple(field.one if j == i - 1 else field.zero
                               for j in range(dim)))


def _check_compatible(x: Vector, y: Vector) -> None:
    if x.field != y.field:
        raise ValueError(f"mixed fields: {x.field!r} vs {y.field!r}")
    if len(x.coords) != len(y.coords):
        raise ValueError(f"length mismatch: {len(x.coords)} vs {len(y.coords)}")


def _rref(field: Field, rows: list[list[Scalar]]) -> tuple[tuple[Scalar, ...], ...]:
    """Reduced row echelon form; returns the nonzero rows."""
    if not rows:
        return ()
    ncols = len(rows[0])
    m = [list(r) for r in rows]
    nrows = len(m)
    piv = 0
    for c in range(ncols):
        pr = next((r for r in range(piv, nrows) if m[r][c]), None)
        if pr is None:
            continue
        m[piv], m[pr] = m[pr], m[piv]
        inv = field.div(field.one, m[piv][c])
        m[piv] = [field.mul(inv, x) for x in m[piv]]
        for r in range(nrows):
            if r != piv and m[r][c]:
                factor = m[r][c]
                m[r] = [field.sub(x, field.mul(factor, y))
                        for x, y in zip(m[r], m[piv])]
        piv += 1
        if piv == nrows:
            break
    return tuple(tuple(row) for row in m[:piv])


@dataclass(frozen=True)
class Subspace:
    """A subspace given by its canonical reduced-echelon basis rows.

    Equality and hashing are those of the field tuple, but the hash is
    computed once per object and kept outside the fields: series memos look
    subspaces up many times, and hashing the rows means hashing every scalar.
    """

    field: Field
    ambient_dim: int
    basis: tuple[tuple[Scalar, ...], ...]

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.field, self.ambient_dim, self.basis))
            object.__setattr__(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return (self.field, self.ambient_dim, self.basis) == \
            (other.field, other.ambient_dim, other.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def basis_vectors(self) -> list[Vector]:
        return [Vector(self.field, row) for row in self.basis]

    def __repr__(self) -> str:
        rows = "; ".join(
            "(" + ", ".join(self.field.format(a) for a in row) + ")"
            for row in self.basis)
        return f"<dim {self.dim} in {self.field!r}^{self.ambient_dim}: {rows or '0'}>"


def span(vectors: Sequence[Vector], ambient_dim: int, field: Field | None = None) -> Subspace:
    """Canonical subspace spanned by the given vectors.

    `field` is required when `vectors` is empty (the zero subspace carries it).
    """
    if not vectors:
        if field is None:
            raise ValueError("empty span needs an explicit field")
        return Subspace(field, ambient_dim, ())
    f = vectors[0].field
    if field is not None and field != f:
        raise ValueError(f"mixed fields: {field!r} vs {f!r}")
    for v in vectors:
        if v.field != f:
            raise ValueError(f"mixed fields: {f!r} vs {v.field!r}")
        if len(v.coords) != ambient_dim:
            raise ValueError(f"vector length {len(v.coords)} != ambient {ambient_dim}")
    return Subspace(f, ambient_dim, _rref(f, [list(v.coords) for v in vectors]))


def zero_subspace(field: Field, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, ())


def full_subspace(field: Field, ambient_dim: int) -> Subspace:
    rows = tuple(tuple(field.one if j == i else field.zero for j in range(ambient_dim))
                 for i in range(ambient_dim))
    return Subspace(field, ambient_dim, rows)


def _check_same_ambient(u: Subspace, v: Subspace) -> None:
    if u.field != v.field:
        raise ValueError(f"mixed fields: {u.field!r} vs {v.field!r}")
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(f"ambient mismatch: {u.ambient_dim} vs {v.ambient_dim}")


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_same_ambient(u, v)
    rows = [list(r) for r in u.basis] + [list(r) for r in v.basis]
    return Subspace(u.field, u.ambient_dim, _rref(u.field, rows))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Intersection via the Zassenhaus block trick.

    Reduce rows [x | x] for x in u's basis and [y | 0] for y in v's basis;
    the fully reduced rows whose left half vanished have right halves spanning
    u ∩ v.
    """
    _check_same_ambient(u, v)
    f, n = u.field, u.ambient_dim
    zero_row = [f.zero] * n
    block = [list(r) + list(r) for r in u.basis] + \
            [list(r) + zero_row for r in v.basis]
    reduced = _rref(f, block)
    inter_rows = [list(row[n:]) for row in reduced if not any(row[:n])]
    return Subspace(f, n, _rref(f, inter_rows))


def reduce_against(u: Subspace, v: Vector) -> Vector:
    """Residual of v after elimination by u's echelon basis.

    Each row is subtracted only at its nonzero entries, which in reduced
    echelon form start at the pivot; the other coordinates are not touched.
    """
    if v.field != u.field:
        raise ValueError(f"mixed fields: {u.field!r} vs {v.field!r}")
    if len(v.coords) != u.ambient_dim:
        raise ValueError(f"vector length {len(v.coords)} != ambient {u.ambient_dim}")
    f = u.field
    coords = list(v.coords)
    for row in u.basis:
        pivot_col = next(i for i, a in enumerate(row) if a)
        c = coords[pivot_col]
        if c:
            for k in range(pivot_col, len(row)):
                y = row[k]
                if y:
                    coords[k] = f.sub(coords[k], f.mul(c, y))
    return Vector(f, tuple(coords))


def contains(u: Subspace, v: Vector) -> bool:
    return reduce_against(u, v).is_zero()


def is_subspace_of(u: Subspace, v: Subspace) -> bool:
    _check_same_ambient(u, v)
    if u is v:
        return True
    if u.dim > v.dim:
        return False
    return all(contains(v, w) for w in u.basis_vectors())
