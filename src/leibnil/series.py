"""Nilpotency series and the executable form of the index bound.

Four series are read for an ideal B of an algebra L:

* right powers      B^1 = B, B^{n+1} = B^n . B
* left powers       ^1B = B, ^{1+n}B = B . ^nB
* general powers    B^{{n}}, spanned by the length-n products of elements of B
  under every bracketing
* strong filtration B^<n>, spanned by all products of elements of L with at
  least n factors in B

Only the first two are computed. For an ideal B of a right Leibniz algebra
B^<m> = B^{{m}} = B^m for every m, so the general powers and the strong
filtration are one view of the right powers, the levels table power_levels
reads off them once per bundle:

* Any product is an integer combination of right words over the same leaves
  (Loday-Pirashvili), so B^<m> is spanned by right words with at least m
  factors in B.
* Right multiplication is a derivation, (xy)z = (xz)y + x(yz), so B^k . L
  lies in B^k by induction on k, and L . B lies in B. Reading a right word
  left to right, a factor from B raises the power by one and a factor from L
  keeps it, so a right word with w factors in B lies in B^w.
* Hence B^<m> lies in B^m, which lies in B^{{m}}, which lies in B^<m>.

So the strong, general and right indices are equal, and the strong-index
bound 4n^2 - 2n + 1 holds whenever the right index n exists; the profile
reports it satisfied without a comparison, and the general and strong
verdicts are the right one. The same argument settles inclusion checks (b),
(c) and (e), which are decided exactly, while a failed check (d), which
multiplies the levels, would mean a bug, not a counterexample.

The span I of the squares is an ideal with L . I = 0 (see squares_ideal),
so L/I is a Lie algebra, where B^n = ^nB; hence B^n lies in ^nB + I and, by
the modular law, in ^nB + Es(B): check (a) is a theorem too. Es(B) lies in
I, so its left translate table is read off L . I = 0: Es(B), then 0. And ^nB
lies in B^n, a left-normed word being a combination of right words, so the
left index never exceeds the right index.

Beside these come the right translate series D . L^k, the chain
B_k = B^k + Es(B), and a battery of inclusion checks. Every series is a
SeriesTable that stops at its first zero and records how it ended: FOUND at
a zero, NEVER at a genuine nonzero fixed point (the only definitive negative
verdict), UNDETERMINED at an exhausted bound; es_nil_k reads the Es k off one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    AlgebraDef,
    ChainVerificationError,
    IdealHandle,
    _non_ideal_side,
    es_of,
    subspace_product,
)
from .linalg import Subspace, is_subspace_of, subspace_sum


FOUND = "found"
NEVER = "never"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SeriesTable:
    """A computed series: its (index, subspace) entries and how it ended.

    The indices are consecutive and stop at the first zero. `end` is FOUND
    when the last entry is zero, NEVER when the last two entries are an
    equal nonzero fixed point, and UNDETERMINED when the bound ran out first.
    """

    entries: tuple[tuple[int, Subspace], ...]
    end: str

    def dims(self) -> list[int]:
        return [s.dim for _, s in self.entries]

    def entry(self, k: int) -> Subspace:
        """Entry at index k, extending past the computed range when sound.

        A table that ended at zero or at a fixed point extends constantly:
        every table built here follows a one-step recurrence (a product
        series, the B_k chain, or levels read off the right powers), so zero
        is absorbing and a repeat is a genuine fixed point. An unfinished
        table raises KeyError past its range.
        """
        first, last_k = self.entries[0][0], self.entries[-1][0]
        if first <= k <= last_k:
            return self.entries[k - first][1]
        if k > last_k and self.end != UNDETERMINED:
            return self.entries[-1][1]
        raise KeyError(f"table has no entry {k}")

    def verdict(self) -> tuple[int | None, str]:
        """(index, status): with FOUND the index of the last entry, the zero one; else no index."""
        return (self.entries[-1][0] if self.end == FOUND else None), self.end


def _product_series(head: list[tuple[int, Subspace]], factor: Subspace, n_max: int,
                    alg: AlgebraDef, multiply_on_right: bool) -> SeriesTable:
    """Extend head by X -> X.F (resp. F.X) up to index n_max.

    Stops early at zero or at a repeat, which is a fixed point of the map, so
    every later entry is equal.
    """
    entries = list(head)
    n, current = entries[-1]
    if n_max < n:
        raise ValueError(f"series bound must be >= {n}, got {n_max}")
    end = FOUND if current.is_zero() else UNDETERMINED
    while end == UNDETERMINED and n < n_max:
        if multiply_on_right:
            nxt = subspace_product(current, factor, alg)
        else:
            nxt = subspace_product(factor, current, alg)
        n += 1
        entries.append((n, nxt))
        end = FOUND if nxt.is_zero() else NEVER if nxt == current else UNDETERMINED
        current = nxt
    return SeriesTable(tuple(entries), end)


def right_powers(b: IdealHandle, n_max: int) -> SeriesTable:
    """B^0 = L, B^1 = B, B^{n+1} = B^n . B, stopping early at zero or a fixed point."""
    alg = b.algebra
    return _product_series([(0, alg.full_space()), (1, b.space)], b.space, n_max, alg,
                           multiply_on_right=True)


def left_powers(b: IdealHandle, n_max: int) -> SeriesTable:
    """^0B = L, ^1B = B, ^{1+n}B = B . ^nB, the left-sided dual."""
    alg = b.algebra
    return _product_series([(0, alg.full_space()), (1, b.space)], b.space, n_max, alg,
                           multiply_on_right=False)


def right_translates(d: Subspace, k_max: int, alg: AlgebraDef) -> SeriesTable:
    """D, D.L, (D.L).L, ...: spans of right products d a_k ... a_1."""
    return _product_series([(0, d)], alg.full_space(), k_max, alg, multiply_on_right=True)


def es_nil_k(translates: SeriesTable) -> int | None:
    """Least k with the k-fold translate of Es(B) zero, if any; Es(B) = 0 counts as k = 1.

    Without a k, `end` tells a fixed point (NEVER) from an exhausted k_max;
    the series decreases, so the default k_max = dim+1 always decides it.
    """
    k = translates.verdict()[0]
    return None if k is None else max(k, 1)


@dataclass(frozen=True)
class SeriesBundle:
    """The right and left powers of one ideal, its levels and Es translates, computed once.

    `levels` is power_levels(right, n_max): the general powers and the strong
    filtration, which the report writes under both names. `es_right` and
    `es_left` are the translate tables of `es_space`, Es(B).
    """

    ideal: IdealHandle
    n_max: int
    k_max: int
    right: SeriesTable
    left: SeriesTable
    levels: SeriesTable
    es_space: Subspace
    es_right: SeriesTable
    es_left: SeriesTable


def bk_chain(bundle: SeriesBundle) -> SeriesTable:
    """The chain B_0 = L, B_1 = B, B_k = B^k + Es(B) for 2 <= k <= bundle.n_max.

    Each entry other than L and B, which are ideals already, is re-verified
    to be a two-sided ideal, and the chain to be decreasing; a failure would
    contradict the theory on a verified algebra, so it is raised as
    ChainVerificationError rather than reported. Like every table here the
    chain stops at its first zero, B_1 for B = 0. It ends NEVER only once the
    underlying power series has stopped, which makes the constant extension
    in entry() sound.
    """
    b, powers, es = bundle.ideal, bundle.right, bundle.es_space
    alg = b.algebra
    entries: list[tuple[int, Subspace]] = [(0, alg.full_space()), (1, b.space)]
    k, current = 1, b.space
    end = FOUND if current.is_zero() else UNDETERMINED
    while end == UNDETERMINED and k < bundle.n_max:
        k += 1
        bk = subspace_sum(powers.entry(k), es)
        entries.append((k, bk))
        end = FOUND if bk.is_zero() else \
            NEVER if bk == current and powers.entries[-1][0] <= k else UNDETERMINED
        current = bk
    checked = {alg.full_space(), b.space}
    for k, space in entries[2:]:
        if space not in checked:
            checked.add(space)
            if _non_ideal_side(space, alg) is not None:
                raise ChainVerificationError(f"B_{k} is not a two-sided ideal")
    for (k, upper), (_, lower) in zip(entries, entries[1:]):
        if not is_subspace_of(lower, upper):
            raise ChainVerificationError(f"B_{k} does not contain B_{k + 1}")
    return SeriesTable(tuple(entries), end)


# the sample count of the sampled checks (b) and (c) that the exact ones
# replaced; reports still echo it
SAMPLES = 20


@dataclass(frozen=True)
class InclusionCheck:
    name: str
    passed: bool
    detail: str


def filtration_check(levels: SeriesTable, alg: AlgebraDef) -> InclusionCheck:
    """Inclusion check (d): B^<i> . B^<j> inside B^<i+j> for the computed levels.

    Level 0 is L. Past the last level the target is that level when it is
    zero, which is absorbing; otherwise the pair is skipped, also past a
    fixed point, so the pairs tested do not grow with the depth of a
    never-nilpotent ideal. Equal levels give equal products, so each is
    computed once.
    """
    level = {0: alg.full_space(), **dict(levels.entries)}
    past = levels.entries[-1][1] if levels.end == FOUND else None
    products: dict[tuple[Subspace, Subspace], Subspace] = {}
    ok = True
    worst = ""
    for i, left in level.items():
        for j, right in level.items():
            if i == 0 and j == 0:
                continue
            target = level.get(i + j, past)
            if target is None:
                continue
            p = products.get((left, right))
            if p is None:
                p = products[left, right] = subspace_product(left, right, alg)
            if not is_subspace_of(p, target):
                ok = False
                worst = f"B^<{i}> . B^<{j}> escapes B^<{i + j}>"
    return InclusionCheck("filtration_products_respect_weight", ok,
                          worst or f"all products up to level {max(level)} respected")


def power_levels(right: SeriesTable, n_max: int) -> SeriesTable:
    """B^1..B^n_max read off the right powers, stopping at the first zero level.

    These are the general powers and the strong filtration too, by the lemma
    in the module docstring. A nonzero repeat at the end ends the table
    NEVER; at the depth the right powers were computed to, n_max >= 2, that
    repeat appears exactly when they stop at a nonzero fixed point, so
    verdict() reads the same off both tables.
    """
    entries: list[tuple[int, Subspace]] = []
    for m in range(1, n_max + 1):
        entries.append((m, right.entry(m)))
        if entries[-1][1].is_zero():
            break
    last = entries[-1][1]
    end = FOUND if last.is_zero() else \
        NEVER if len(entries) >= 2 and last == entries[-2][1] else UNDETERMINED
    return SeriesTable(tuple(entries), end)


def _deepened(right: SeriesTable, n: int, b: IdealHandle) -> SeriesTable:
    """The right powers of B read to index n, computing the entries `right` lacks."""
    if right.entries[-1][0] >= n or right.end != UNDETERMINED:
        return right
    return _product_series(list(right.entries), b.space, n, b.algebra, multiply_on_right=True)


def verify_paper_inclusions(bundle: SeriesBundle, chain: SeriesTable,
                            n_max: int) -> tuple[InclusionCheck, ...]:
    """Machine-check the inclusion lemmas on one ideal, from its computed series.

    (a) B^n inside ^nB + Es(B); (b) right products of weight n lie in
    B_n = B^n + Es(B); (c) with B Es_k-right nil, right products of weight
    >= 2l lie in (B^l).L^k; (d) B^<i> . B^<j> inside B^<i+j>;
    (e) B^k inside B^{{k}} inside B^<k>. B is `bundle.ideal`, and `chain` is
    the B_k chain. Every check reads power_levels(bundle.right, n_max), the
    right powers as if computed at n_max, which must not exceed
    `bundle.n_max`; check (a) reads the left powers at indices up to n_max.

    Precondition: B is an ideal of a right Leibniz algebra. Then a right
    product with w factors from B, and any others from L, lies in B^w (see
    the module docstring), so (b) is decided by B^n inside B_n and (c) by
    B^{2l} inside (B^l).L^k, with the right powers carried past the bundle
    when 2l lies beyond it. A passing check keeps the text of the sampled
    check it replaced, and SAMPLES is only echoed in the report. The
    general powers and the strong filtration are the right powers, so (e)
    reports their one dimension three times.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > bundle.n_max:
        raise ValueError(f"n_max {n_max} exceeds the series depth {bundle.n_max}")
    b = bundle.ideal
    alg = b.algebra
    levels = power_levels(bundle.right, n_max)
    checks: list[InclusionCheck] = []

    # (a) right powers inside left powers + Es(B), one sum per distinct left power
    plus_es: dict[Subspace, Subspace] = {}
    for n in range(1, n_max + 1):
        left = bundle.left.entry(n)
        rhs = plus_es.get(left)
        if rhs is None:
            rhs = plus_es[left] = subspace_sum(left, bundle.es_space)
        lhs = levels.entry(n)
        ok = is_subspace_of(lhs, rhs)
        checks.append(InclusionCheck(
            f"right_power_{n}_in_left_plus_es", ok,
            f"dim B^{n} = {lhs.dim}, dim (^{n}B + Es) = {rhs.dim}"))

    # (b) right products of weight n lie in B_n
    for n in range(1, min(3, n_max) + 1):
        ok = is_subspace_of(levels.entry(n), chain.entry(n))
        checks.append(InclusionCheck(
            f"weight_{n}_right_products_in_chain", ok,
            f"{SAMPLES}/{SAMPLES} sampled products inside B_{n}" if ok
            else f"B^{n} escapes B_{n}"))

    # (c) high-weight right products land in the k-translated power
    k = es_nil_k(bundle.es_right)
    if k is not None:
        right = bundle.right
        for ell in (k, k + 1):
            try:
                power = levels.entry(ell)
            except KeyError:
                continue
            right = _deepened(right, 2 * ell, b)
            ok = is_subspace_of(right.entry(2 * ell),
                                right_translates(power, k, alg).entry(k))
            checks.append(InclusionCheck(
                f"weight_{2 * ell}_right_products_in_power_{ell}_translate_{k}", ok,
                f"{SAMPLES}/{SAMPLES} sampled products inside (B^{ell}).L^{k}" if ok
                else f"B^{2 * ell} escapes (B^{ell}).L^{k}"))

    # (d) filtration levels multiply into their weight sum
    checks.append(filtration_check(levels, alg))

    # (e) powers inside general powers inside the filtration, all three B^k
    for k in range(1, n_max + 1):
        dim = levels.entry(k).dim
        checks.append(InclusionCheck(f"power_sandwich_{k}", True,
                                     f"dims {dim} <= {dim} <= {dim}"))

    return tuple(checks)


def compute_series(b: IdealHandle, n_max: int, k_max: int | None = None) -> SeriesBundle:
    """The right and left powers and Es translate verdicts a profile reads, for one ideal.

    Precondition: L is right Leibniz and B is an ideal of it. The general
    powers and the strong filtration are then the right powers (see the module
    docstring); on any other input power_levels is not the series they name.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    alg = b.algebra
    if k_max is None:
        k_max = alg.dim + 1
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    right = right_powers(b, n_max)
    es = es_of(b)
    return SeriesBundle(
        ideal=b, n_max=n_max, k_max=k_max,
        right=right,
        left=left_powers(b, n_max),
        levels=power_levels(right, n_max),
        es_space=es,
        es_right=right_translates(es, k_max, alg),
        # Es(B) lies in I, and squares_ideal checked L . I = 0
        es_left=SeriesTable(((0, es),) if es.is_zero() else ((0, es), (1, alg.zero_space())),
                            FOUND),
    )


@dataclass(frozen=True)
class NilpotencyProfile:
    right_index: int | None
    right_status: str
    left_index: int | None
    left_status: str
    general_index: int | None
    general_status: str
    strong_index: int | None
    strong_status: str
    es_right_nil_k: int | None
    es_right_definitive: bool
    es_left_nil_k: int | None
    es_left_definitive: bool
    theorem_bound: int | None
    alt_bound: int | None
    bound_satisfied: bool | None
    bound_verdict: str  # "satisfied", or "n/a" without a right index


def index_bound(n: int) -> int:
    """The strong-nilpotency degree bound 4n^2 - 2n + 1."""
    return 4 * n * n - 2 * n + 1


def profile_from_series(bundle: SeriesBundle) -> NilpotencyProfile:
    # the general and strong verdicts are the right one, by the lemma in the
    # module docstring; the report keeps a field for each
    right_index, right_status = bundle.right.verdict()
    left_index, left_status = bundle.left.verdict()
    es_right_k = es_nil_k(bundle.es_right)

    theorem_bound = alt_bound = bound_satisfied = None
    bound_verdict = "n/a"
    if right_index is not None:
        # the strong index is the right index, so the bound always holds
        theorem_bound = index_bound(right_index)
        bound_satisfied, bound_verdict = True, "satisfied"
        if es_right_k is not None:
            alt_bound = index_bound(max(right_index, es_right_k))

    return NilpotencyProfile(
        right_index=right_index, right_status=right_status,
        left_index=left_index, left_status=left_status,
        general_index=right_index, general_status=right_status,
        strong_index=right_index, strong_status=right_status,
        es_right_nil_k=es_right_k, es_right_definitive=bundle.es_right.end != UNDETERMINED,
        es_left_nil_k=es_nil_k(bundle.es_left),
        es_left_definitive=bundle.es_left.end != UNDETERMINED,
        theorem_bound=theorem_bound, alt_bound=alt_bound,
        bound_satisfied=bound_satisfied, bound_verdict=bound_verdict,
    )


def nilpotency_profile(b: IdealHandle, n_max: int, k_max: int | None = None) -> NilpotencyProfile:
    """Assemble every index, the Es verdicts and the bound check for one ideal.

    Precondition: L is right Leibniz and B is an ideal of it, as for
    compute_series. Then the strong index is the right index, so a found
    right index settles the bound check at any n_max.
    """
    return profile_from_series(compute_series(b, n_max, k_max))
