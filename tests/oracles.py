"""Reference computations the library's series are checked against.

`general_powers` and `strong_filtration` compute the general powers by their
recurrence over bracketings and the weight filtration as a least fixpoint
over weight levels, independently of the right powers the library reads
both tables from. `es_nil_index` and `bk_chain` recompute Es(B) and the
right powers for each verdict and for the chain, independently of the
series bundle the library reads them from. `one_step_status`,
`es_verdict` and `weight_statuses` read the verdicts off the tables by
three separate rules, apart from `SeriesTable.verdict` and `es_nil_k`,
which the library reads them with. `sampled_inclusion_report`
recomputes every table and decides the inclusion checks (b) and (c) by
sampling alone, with `random_right_product`, where the library decides them
by exact inclusion. `dense_identity_failures` and `dense_is_antisymmetric`
bracket or compare every basis triple or pair, where the library reads only
the nonzero structure constants. `bracket_squares_ideal` brackets the
squares of e_i and e_i + e_j and closes their span by `ideal_closure`'s
fixpoint, where the library reads the generators off the table and checks
that their span is already an ideal. `left_translates` multiplies out the
left translate series of Es(B), which the library reads off L . I = 0.
"""

from itertools import product
from random import Random

from leibnil.algebra import (
    AlgebraDef,
    ChainVerificationError,
    IdealHandle,
    bracket,
    es_of,
    subspace_product,
)
from leibnil.fields import Field
from leibnil.linalg import Subspace, Vector, contains, is_subspace_of, span, subspace_sum
from leibnil.series import (
    FOUND,
    NEVER,
    UNDETERMINED,
    InclusionCheck,
    SeriesTable,
    _product_series,
    filtration_check,
    left_powers,
    right_powers,
    right_translates,
)


def _table(entries: list[tuple[int, Subspace]], stabilized: bool,
           terminated_zero: bool) -> SeriesTable:
    """A table whose end is read off the oracle's own two flags."""
    end = FOUND if terminated_zero else NEVER if stabilized else UNDETERMINED
    return SeriesTable(tuple(entries), end)


class _Products:
    """Interned subspaces with memoized products and inclusions, for one computation.

    Equal subspaces become one object, so every memo lookup after the first
    is a cached hash and an identity test. Products and inclusion tests are
    called through their module-level names, so a wrapper installed on
    those names still sees each one computed.
    """

    def __init__(self, alg: AlgebraDef) -> None:
        self.alg = alg
        self._interned: dict[Subspace, Subspace] = {}
        self._products: dict[tuple[Subspace, Subspace], Subspace] = {}
        self._inside: dict[tuple[Subspace, Subspace], bool] = {}

    def intern(self, s: Subspace) -> Subspace:
        return self._interned.setdefault(s, s)

    def product(self, u: Subspace, v: Subspace) -> Subspace:
        """u . v for interned u and v, itself interned."""
        p = self._products.get((u, v))
        if p is None:
            p = self._products[u, v] = self.intern(subspace_product(u, v, self.alg))
        return p

    def inside(self, u: Subspace, w: Subspace) -> bool:
        """Whether u lies in w, for interned u and w."""
        inside = self._inside.get((u, w))
        if inside is None:
            inside = self._inside[u, w] = is_subspace_of(u, w)
        return inside



def general_powers(b: IdealHandle, n_max: int) -> SeriesTable:
    """Spans of length-n products under arbitrary bracketing.

    A length-n product splits uniquely at its top node, so the exact
    recurrence B^{{n}} = sum over i+j=n of B^{{i}} . B^{{j}} needs no
    fixpoint. For an ideal the chain decreases, so zero is absorbing and the
    loop may stop there; a nonzero repeat is recorded as stabilized but is
    not treated as definitive.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    alg = b.algebra
    ops = _Products(alg)
    levels: dict[int, Subspace] = {1: ops.intern(b.space)}
    entries: list[tuple[int, Subspace]] = [(1, b.space)]
    terminated_zero = b.space.is_zero()
    n = 1
    while not terminated_zero and n < n_max:
        n += 1
        acc = alg.zero_space()
        # equal levels give equal products; the sum needs each distinct one once
        for p in dict.fromkeys(ops.product(levels[i], levels[n - i]) for i in range(1, n)):
            acc = subspace_sum(acc, p)
        acc = levels[n] = ops.intern(acc)
        entries.append((n, acc))
        terminated_zero = acc.is_zero()
    stabilized = len(entries) >= 2 and entries[-1][1] == entries[-2][1] \
        and not terminated_zero
    return _table(entries, stabilized, terminated_zero)


def strong_filtration(b: IdealHandle, n_max: int) -> SeriesTable:
    """Weight filtration B^<m> as a simultaneous least fixpoint.

    Levels 0..n_max start at (L, B, 0, ..., 0) and absorb every product
    W_i . W_j into level min(i+j, n_max) until nothing changes; capping the
    target level is sound because the true filtration is decreasing. The
    fixpoint exit condition is precisely W_i . W_j inside W_{i+j} for all
    computed pairs. Dimensions only grow, so the round cap below cannot be
    hit without a bug.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    alg = b.algebra
    ops = _Products(alg)
    w: list[Subspace] = [ops.intern(alg.full_space()), ops.intern(b.space)] + \
        [ops.intern(alg.zero_space())] * (n_max - 1)
    for _ in range(n_max * alg.dim + 2):
        changed = False
        for i in range(n_max + 1):
            if w[i].is_zero():
                continue
            for j in range(n_max + 1):
                if (i == 0 and j == 0) or w[j].is_zero():
                    continue
                p = ops.product(w[i], w[j])
                if p.is_zero():
                    continue
                t = min(i + j, n_max)
                if not ops.inside(p, w[t]):
                    w[t] = ops.intern(subspace_sum(w[t], p))
                    changed = True
        if not changed:
            break
    else:
        raise ChainVerificationError("strong filtration failed to stabilize within its round cap")
    for m in range(1, n_max + 1):
        if not is_subspace_of(w[m], w[m - 1]):
            raise ChainVerificationError("strong filtration is not decreasing")
    entries: list[tuple[int, Subspace]] = []
    terminated_zero = False
    for m in range(1, n_max + 1):
        entries.append((m, w[m]))
        if w[m].is_zero():
            terminated_zero = True
            break
    stabilized = len(entries) >= 2 and entries[-1][1] == entries[-2][1] \
        and not terminated_zero
    return _table(entries, stabilized, terminated_zero)


def first_zero_index(table: SeriesTable) -> int | None:
    """Least index k >= 1 whose entry is the zero subspace."""
    for k, s in table.entries:
        if k >= 1 and s.is_zero():
            return k
    return None


def one_step_status(table: SeriesTable) -> tuple[int | None, str]:
    """The right or left power verdict: FOUND at a zero, NEVER when it ended at a fixed point."""
    idx = first_zero_index(table)
    if idx is not None:
        return idx, FOUND
    return None, NEVER if table.end == NEVER else UNDETERMINED


def weight_statuses(right: SeriesTable, general: SeriesTable,
                    strong: SeriesTable) -> tuple[tuple[int | None, str], ...]:
    """The general and strong verdicts, NEVER whenever the right powers are."""
    if one_step_status(right)[1] == NEVER:
        # B^n contains the nonzero fixed point for every n, and
        # B^n <= B^{{n}} <= B^<n>, so neither of the larger series can vanish.
        return (None, NEVER), (None, NEVER)
    return tuple((idx, FOUND if idx is not None else UNDETERMINED)
                 for idx in (first_zero_index(general), first_zero_index(strong)))


def ideal_closure(s: Subspace, alg: AlgebraDef) -> IdealHandle:
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


def left_translates(d: Subspace, k_max: int, alg: AlgebraDef) -> SeriesTable:
    """D, L.D, L.(L.D), ...: spans of left products a_1(a_2(...(a_k d)))."""
    return _product_series([(0, d)], alg.full_space(), k_max, alg, multiply_on_right=False)


def es_verdict(table: SeriesTable) -> tuple[int | None, bool]:
    """(k, definitive) read off a translate series of Es(B) by scanning it for a zero."""
    for k, s in table.entries:
        if s.is_zero():
            return max(k, 1), True
    return None, table.end == NEVER


def es_nil_index(b: IdealHandle, side: str,
                 k_max: int | None = None) -> tuple[int | None, bool, SeriesTable]:
    """(k, definitive, translate table) of Es(B) on one side, multiplied out afresh."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    alg = b.algebra
    if k_max is None:
        k_max = alg.dim + 1
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    d = es_of(b)
    if side == "right":
        table = right_translates(d, k_max, alg)
    else:
        table = left_translates(d, k_max, alg)
    return (*es_verdict(table), table)


def bk_chain(b: IdealHandle, k_max: int) -> SeriesTable:
    """The chain B_0 = L, B_1 = B, B_k = B^k + Es(B) for k >= 2.

    Each entry is re-verified to be a two-sided ideal and the chain to be
    decreasing; a failure would contradict the theory on a verified algebra,
    so it is raised as ChainVerificationError rather than reported. The chain
    stops at its first zero, B_1 for B = 0. The stabilized flag is set only
    once the underlying power series has stopped, which makes the constant
    extension in entry() sound.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    alg = b.algebra
    es = es_of(b)
    powers = right_powers(b, k_max)
    entries: list[tuple[int, Subspace]] = [(0, alg.full_space()), (1, b.space)]
    terminated_zero = b.space.is_zero()
    stabilized = False
    # no B_k past a zero B_1
    for k in range(2, 1 if terminated_zero else k_max + 1):
        bk = subspace_sum(powers.entry(k), es)
        entries.append((k, bk))
        if bk.is_zero():
            terminated_zero = True
            break
        if bk == entries[-2][1] and powers.entries[-1][0] <= k:
            # underlying power series has already stopped, so B_k is constant now
            stabilized = True
            break
    checked: set[Subspace] = set()
    full = alg.full_space()
    for k, space in entries:
        if space in checked:
            continue
        checked.add(space)
        if not is_subspace_of(subspace_product(space, full, alg), space) or \
                not is_subspace_of(subspace_product(full, space, alg), space):
            raise ChainVerificationError(f"B_{k} is not a two-sided ideal")
    for (k, upper), (_, lower) in zip(entries, entries[1:]):
        if not is_subspace_of(lower, upper):
            raise ChainVerificationError(f"B_{k} does not contain B_{k + 1}")
    return _table(entries, stabilized, terminated_zero)


def random_vector_in(space: Subspace, rng: Random, field: Field) -> Vector:
    """Random field combination of the basis rows (zero when the space is zero).

    One coefficient is drawn per basis row, in row order, so a seed gives the
    same vector as summing whole scaled rows.
    """
    out = [field.zero] * space.ambient_dim
    for row in space.basis:
        c = field.random(rng)
        for k, a in enumerate(row):
            if a:
                out[k] = field.add(out[k], field.mul(c, a))
    return Vector(field, tuple(out))


def random_right_product(alg: AlgebraDef, b_space: Subspace, length: int,
                         weight: int, rng: Random) -> Vector:
    """Evaluate a random right product with `weight` factors drawn from b_space."""
    positions = set(rng.sample(range(length), weight))
    factors = []
    for pos in range(length):
        if pos in positions:
            factors.append(random_vector_in(b_space, rng, alg.field))
        else:
            factors.append(random_vector_in(alg.full_space(), rng, alg.field))
    acc = factors[0]
    for f in factors[1:]:
        acc = bracket(acc, f, alg)
    return acc


def sampled_inclusion_report(b, n_max, k_max=None, seed=0, samples=20, chain=None):
    """The inclusion checks, with every check (b) and (c) decided by sampling.

    Every table is recomputed at n_max; `chain` replaces the B_k chain.
    """
    alg = b.algebra
    if k_max is None:
        k_max = alg.dim + 1
    rng = Random(seed)
    checks = []

    es = es_of(b)
    rp = right_powers(b, n_max)
    lp = left_powers(b, n_max)
    gp = general_powers(b, n_max)
    sf = strong_filtration(b, n_max)
    if chain is None:
        chain = bk_chain(b, max(2, n_max))
    k = es_nil_index(b, "right", k_max)[0]

    for n in range(1, n_max + 1):
        lhs, rhs = rp.entry(n), subspace_sum(lp.entry(n), es)
        ok = is_subspace_of(lhs, rhs)
        checks.append(InclusionCheck(
            f"right_power_{n}_in_left_plus_es", ok,
            f"dim B^{n} = {lhs.dim}, dim (^{n}B + Es) = {rhs.dim}"))

    for n in range(1, min(3, n_max) + 1):
        target = chain.entry(n)
        bad = 0
        for _ in range(samples):
            length = rng.randint(n, n + 2)
            v = random_right_product(alg, b.space, length, n, rng)
            if not contains(target, v):
                bad += 1
        checks.append(InclusionCheck(
            f"weight_{n}_right_products_in_chain", bad == 0,
            f"{samples - bad}/{samples} sampled products inside B_{n}"))

    if k is not None:
        for ell in (k, k + 1):
            try:
                power = rp.entry(ell)
            except KeyError:
                continue
            translated = right_translates(power, k, alg).entry(k)
            bad = 0
            for _ in range(samples):
                length = rng.randint(2 * ell, 2 * ell + 2)
                weight = rng.randint(2 * ell, length)
                v = random_right_product(alg, b.space, length, weight, rng)
                if not contains(translated, v):
                    bad += 1
            checks.append(InclusionCheck(
                f"weight_{2 * ell}_right_products_in_power_{ell}_translate_{k}",
                bad == 0,
                f"{samples - bad}/{samples} sampled products inside (B^{ell}).L^{k}"))

    checks.append(filtration_check(sf, alg))

    for k in range(1, n_max + 1):
        bp, gk, wk = rp.entry(k), gp.entry(k), sf.entry(k)
        ok = is_subspace_of(bp, gk) and is_subspace_of(gk, wk)
        checks.append(InclusionCheck(
            f"power_sandwich_{k}", ok,
            f"dims {bp.dim} <= {gk.dim} <= {wk.dim}"))

    return tuple(checks)


def dense_identity_failures(alg: AlgebraDef,
                            side: str) -> list[tuple[tuple[int, int, int], Vector, Vector]]:
    """The failures of one identity as (triple, lhs, rhs), 1-based, by three
    brackets on each basis triple in order.

    side "right": [x,[y,z]] = [[x,y],z] - [[x,z],y];
    side "left":  [x,[y,z]] = [[x,y],z] + [y,[x,z]].
    """
    t = alg.table
    e = [alg.basis_vector(i) for i in range(1, alg.dim + 1)]
    failures = []
    for i, j, k in product(range(alg.dim), repeat=3):
        lhs = bracket(e[i], t[j][k], alg)
        if side == "right":
            rhs = bracket(t[i][j], e[k], alg) - bracket(t[i][k], e[j], alg)
        else:
            rhs = bracket(t[i][j], e[k], alg) + bracket(e[j], t[i][k], alg)
        if lhs != rhs:
            failures.append(((i + 1, j + 1, k + 1), lhs, rhs))
    return failures


def dense_is_antisymmetric(alg: AlgebraDef) -> bool:
    """[e_i, e_j] = -[e_j, e_i] and [e_i, e_i] = 0, compared on every basis pair."""
    for i in range(alg.dim):
        if not alg.table[i][i].is_zero():
            return False
        for j in range(alg.dim):
            if alg.table[i][j] != -alg.table[j][i]:
                return False
    return True


def bracketed_squares(alg: AlgebraDef) -> Subspace:
    """The span of [x, x] for x = e_i and x = e_i + e_j (i < j), which spans every square."""
    e = [alg.basis_vector(i) for i in range(1, alg.dim + 1)]
    gens = [bracket(x, x, alg) for x in e]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            s = e[i] + e[j]
            gens.append(bracket(s, s, alg))
    return span(gens, alg.dim, alg.field)


def bracket_squares_ideal(alg: AlgebraDef) -> Subspace:
    """The ideal generated by all squares, as the closure of `bracketed_squares`."""
    return ideal_closure(bracketed_squares(alg), alg).space
