"""Exact nilpotency analysis for finite-dimensional Leibniz algebras.

Structure-constant algebras over Q or GF(p), canonical subspace arithmetic,
nilpotency series with the strong-index bound made executable (only the
right and left powers are computed; the general powers and the strong
filtration are read off the right powers), a right-normed term rewriter with
an evaluation oracle, and a CLI.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraDef,
    IdealHandle,
    algebra_from_constants,
    bracket,
    es_of,
    full_ideal,
    is_right_leibniz,
    right_identity_sides,
    squares_ideal,
    subspace_product,
    verify_left_leibniz,
    verify_right_leibniz,
)
from .fields import GF, QQ, PrimeField, RationalField
from .linalg import (
    Subspace,
    Vector,
    basis_vector,
    contains,
    full_subspace,
    is_subspace_of,
    span,
    subspace_intersect,
    subspace_sum,
    vector,
    zero_subspace,
    zero_vector,
)
from .series import (
    ChainVerificationError,
    NilpotencyProfile,
    SeriesTable,
    bk_chain,
    compute_series,
    es_nil_k,
    index_bound,
    left_powers,
    nilpotency_profile,
    right_powers,
    right_translates,
    verify_paper_inclusions,
)
from .terms import (
    Leaf,
    LinComb,
    Node,
    RightWord,
    evaluate,
    measures,
    normalize,
    parse,
    psom_expand,
)
