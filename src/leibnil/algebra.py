"""Leibniz algebras by structure constants.

An algebra is a dimension, a field, and the bracket table [e_i, e_j] stored
as vectors. The nonzero structure constants are also kept per row, and
`bracket` contracts those directly. The identity
[x,[y,z]] = [[x,y],z] - [[x,z],y] holds when it holds on all basis triples,
by trilinearity. Its defect on every triple at once is summed from the
products of two nonzero constants, so only a failing triple is bracketed.
Ideals, the ideal generated by all squares [x,x], and products of subspaces
live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .fields import Field, Scalar
from .linalg import (
    Subspace,
    Vector,
    basis_vector,
    full_subspace,
    is_subspace_of,
    span,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)


class ChainVerificationError(RuntimeError):
    """A mathematical invariant that follows from the theory failed on an instance.

    Raised in every interpreter mode, unlike `assert`; the CLI maps it to
    exit status 1.
    """


@dataclass(frozen=True)
class AlgebraDef:
    """Bilinear bracket on field^dim, given by [e_i, e_j] = table[i-1][j-1].

    `__post_init__` also keeps, outside the fields, the nonzero constants of
    each row i as `_rows[i] = ((j, ((k, c), ...)), ...)`, 0-based; `bracket`
    reads them. Equality, hashing and repr see only the fields.
    """

    name: str
    field: Field
    dim: int
    table: tuple[tuple[Vector, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if len(self.table) != self.dim or any(len(row) != self.dim for row in self.table):
            raise ValueError("bracket table shape does not match dim")
        # `is` first here and in `bracket`: the vectors of one algebra usually
        # share its field object, and field equality is a dataclass comparison
        field, dim = self.field, self.dim
        rows = []
        for row in self.table:
            cells = []
            for j, v in enumerate(row):
                if (v.field is not field and v.field != field) or len(v.coords) != dim:
                    raise ValueError("bracket table entry does not conform to the algebra")
                if any(v.coords):
                    cells.append((j, tuple([(k, c) for k, c in enumerate(v.coords) if c])))
            rows.append(tuple(cells))
        object.__setattr__(self, "_rows", tuple(rows))

    def basis_vector(self, i: int) -> Vector:
        return basis_vector(self.field, self.dim, i)

    def full_space(self) -> Subspace:
        return full_subspace(self.field, self.dim)

    def zero_space(self) -> Subspace:
        return zero_subspace(self.field, self.dim)

    def __repr__(self) -> str:
        return f"AlgebraDef({self.name!r}, dim {self.dim} over {self.field!r})"


def algebra_from_constants(name: str, dim: int, field: Field,
                           constants: Iterable[tuple[int, int, int, Scalar]]) -> AlgebraDef:
    """Build an algebra from sparse (i, j, k, value) structure constants, 1-based.

    Explicit zeros and repeated (i, j, k) positions are rejected rather than
    merged; sparse input is expected to be canonical.
    """
    table = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    seen: set[tuple[int, int, int]] = set()
    for (i, j, k, value) in constants:
        for idx in (i, j, k):
            if isinstance(idx, bool) or not isinstance(idx, int) or not 1 <= idx <= dim:
                raise ValueError(f"structure-constant index out of range 1..{dim}: ({i},{j},{k})")
        if (i, j, k) in seen:
            raise ValueError(f"duplicate structure constant at ({i},{j},{k})")
        seen.add((i, j, k))
        if value == field.zero:
            raise ValueError(f"explicit zero structure constant at ({i},{j},{k})")
        table[i - 1][j - 1][k - 1] = value
    rows = tuple(tuple(Vector(field, tuple(cell)) for cell in row) for row in table)
    return AlgebraDef(name, field, dim, rows)


def bracket(x: Vector, y: Vector, alg: AlgebraDef) -> Vector:
    """[x, y] = sum of c * x_i * y_j * e_k over the nonzero constants (i, j, k, c)."""
    f = alg.field
    if (x.field is not f and x.field != f) or (y.field is not f and y.field != f):
        raise ValueError("vector field does not match the algebra")
    if len(x.coords) != alg.dim or len(y.coords) != alg.dim:
        raise ValueError("vector length does not match the algebra dimension")
    add, mul = f.add, f.mul
    ys = y.coords
    out = [f.zero] * alg.dim
    for xi, cells in zip(x.coords, alg._rows):
        if not xi:
            continue
        for j, cell in cells:
            yj = ys[j]
            if not yj:
                continue
            s = mul(xi, yj)
            for k, c in cell:
                out[k] = add(out[k], mul(s, c))
    return Vector(f, tuple(out))


@dataclass(frozen=True)
class IdentityFailure:
    triple: tuple[int, int, int]
    lhs: Vector
    rhs: Vector


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    failures: tuple[IdentityFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _failing_triples(alg: AlgebraDef, side: str) -> list[tuple[int, int, int]]:
    """The basis triples (i, j, k), 0-based and in order, breaking the identity.

    side "right": [x,[y,z]] = [[x,y],z] - [[x,z],y];
    side "left":  [x,[y,z]] = [[x,y],z] + [y,[x,z]].
    At (i, j, k), lhs - rhs has e_l coordinate
    sum_m c_jk^m c_im^l - c_ij^m c_mk^l + c_ik^m c_mj^l on the right side, and
    the left side ends in - c_ik^m c_jm^l. Each nonzero c_ab^m is paired with
    the nonzero cells of row m and of column m ([e_i, e_m]), so only products
    of two nonzero constants are formed.
    """
    add, sub, mul, zero = alg.field.add, alg.field.sub, alg.field.mul, alg.field.zero
    rows = alg._rows
    cols: list[list] = [[] for _ in rows]
    for i, cells in enumerate(rows):
        for m, cell in cells:
            cols[m].append((i, cell))
    third, third_partners = (add, rows) if side == "right" else (sub, cols)
    defect: dict[tuple[int, int, int, int], Scalar] = {}
    get = defect.get
    for a, cells in enumerate(rows):
        for b, cell in cells:
            for m, c in cell:
                for i, inner in cols[m]:  # c_ab^m as c_jk^m
                    for l, d in inner:
                        key = (i, a, b, l)
                        defect[key] = add(get(key, zero), mul(c, d))
                for k, inner in rows[m]:  # as c_ij^m
                    for l, d in inner:
                        key = (a, b, k, l)
                        defect[key] = sub(get(key, zero), mul(c, d))
                for j, inner in third_partners[m]:  # as c_ik^m
                    for l, d in inner:
                        key = (a, j, b, l)
                        defect[key] = third(get(key, zero), mul(c, d))
    return sorted({key[:3] for key, v in defect.items() if v})


def _identity_report(alg: AlgebraDef, side: str) -> VerificationReport:
    """The failures of one identity, each with its lhs and rhs built by `bracket`.

    Brackets of two basis vectors are table entries, so only the outer
    bracket of each term is expanded.
    """
    t, e = alg.table, alg.basis_vector
    failures = []
    for i, j, k in _failing_triples(alg, side):
        lhs = bracket(e(i + 1), t[j][k], alg)
        if side == "right":
            rhs = bracket(t[i][j], e(k + 1), alg) - bracket(t[i][k], e(j + 1), alg)
        else:
            rhs = bracket(t[i][j], e(k + 1), alg) + bracket(e(j + 1), t[i][k], alg)
        failures.append(IdentityFailure((i + 1, j + 1, k + 1), lhs, rhs))
    return VerificationReport(side, tuple(failures))


def verify_right_leibniz(alg: AlgebraDef) -> VerificationReport:
    """Check [x,[y,z]] = [[x,y],z] - [[x,z],y] on all basis triples."""
    return _identity_report(alg, "right")


def is_right_leibniz(alg: AlgebraDef) -> bool:
    """Boolean form of verify_right_leibniz, which builds no lhs or rhs."""
    return not _failing_triples(alg, "right")


def verify_left_leibniz(alg: AlgebraDef) -> VerificationReport:
    """Check [x,[y,z]] = [[x,y],z] + [y,[x,z]] on all basis triples."""
    return _identity_report(alg, "left")


def is_antisymmetric(alg: AlgebraDef) -> bool:
    """True when [e_i, e_j] = -[e_j, e_i] and [e_i, e_i] = 0 throughout.

    Read off the nonzero cells: each lies off the diagonal and its transpose
    holds its negative.
    """
    neg = alg.field.neg
    cells = {(i, j): cell for i, row in enumerate(alg._rows) for j, cell in row}
    return all(i != j and cells.get((j, i)) == tuple([(k, neg(c)) for k, c in cell])
               for (i, j), cell in cells.items())


def subspace_product(u: Subspace, v: Subspace, alg: AlgebraDef) -> Subspace:
    """Span of [x, y] over basis pairs; sufficient by bilinearity."""
    if u.ambient_dim != alg.dim or v.ambient_dim != alg.dim:
        raise ValueError("ambient mismatch with the algebra")
    if u.is_zero() or v.is_zero():
        return alg.zero_space()
    products = [bracket(x, y, alg)
                for x in u.basis_vectors() for y in v.basis_vectors()]
    return span(products, alg.dim, alg.field)


def _non_ideal_side(s: Subspace, alg: AlgebraDef) -> str | None:
    """The side on which s is not an ideal of alg, "right" before "left", or None.

    L itself is an ideal, so it is answered without a product.
    """
    if s.dim == alg.dim:
        return None
    full = alg.full_space()
    if not is_subspace_of(subspace_product(s, full, alg), s):
        return "right"
    if not is_subspace_of(subspace_product(full, s, alg), s):
        return "left"
    return None


def ideal_closure(s: Subspace, alg: AlgebraDef) -> "IdealHandle":
    """Smallest two-sided ideal containing s, by fixpoint iteration.

    Dimensions strictly increase until stable, so at most dim(alg)+1 rounds
    are ever needed.
    """
    full = alg.full_space()
    current = s
    for _ in range(alg.dim + 1):
        grown = subspace_sum(current, subspace_product(current, full, alg))
        grown = subspace_sum(grown, subspace_product(full, current, alg))
        if grown == current:
            return IdealHandle(alg, current)
        if grown.dim <= current.dim:
            raise ChainVerificationError("ideal closure failed to grow")
        current = grown
    raise ChainVerificationError("ideal closure failed to stabilize within dim+1 rounds")


@dataclass(frozen=True)
class IdealHandle:
    """A verified two-sided ideal of an algebra."""

    algebra: AlgebraDef
    space: Subspace

    def __post_init__(self) -> None:
        if self.space.ambient_dim != self.algebra.dim or self.space.field != self.algebra.field:
            raise ValueError("subspace does not live in the algebra")
        side = _non_ideal_side(self.space, self.algebra)
        if side is not None:
            raise ValueError(f"subspace is not a {side} ideal")

    @property
    def dim(self) -> int:
        return self.space.dim


def full_ideal(alg: AlgebraDef) -> IdealHandle:
    return IdealHandle(alg, alg.full_space())


# Profiles of one algebra, one per named ideal say, share its squares ideal;
# the bound keeps a long-lived process, such as a search, from holding every
# algebra it has seen.
@lru_cache(maxsize=8)
def squares_ideal(alg: AlgebraDef) -> IdealHandle:
    """Ideal generated by all squares [x, x].

    [x, x] = sum_i x_i^2 [e_i, e_i] + sum_{i<j} x_i x_j ([e_i, e_j] + [e_j, e_i]),
    so the cells t[i][i] and the sums t[i][j] + t[j][i] (i < j) generate every
    square; char 2 is excluded at field construction, matching the theory
    this targets.
    """
    t = alg.table
    gens = [t[i][i] for i in range(alg.dim)]
    gens += [t[i][j] + t[j][i] for i in range(alg.dim) for j in range(i + 1, alg.dim)]
    return ideal_closure(span(gens, alg.dim, alg.field), alg)


def es_of(b: IdealHandle) -> Subspace:
    """Intersection of the ideal with the squares ideal of its algebra."""
    return subspace_intersect(b.space, squares_ideal(b.algebra).space)
