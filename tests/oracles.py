"""Reference computations the library's series are checked against.

`general_powers` and `strong_filtration` compute the general powers by their
recurrence over bracketings and the weight filtration as a least fixpoint
over weight levels, independently of the right powers the library reads
both tables from. `sampled_inclusion_report` recomputes every table and
decides the inclusion checks (b) and (c) by sampling alone.
"""

from random import Random

from leibnil.algebra import (
    AlgebraDef,
    ChainVerificationError,
    IdealHandle,
    es_of,
    subspace_product,
)
from leibnil.linalg import Subspace, contains, is_subspace_of, subspace_sum
from leibnil.series import (
    InclusionCheck,
    InclusionReport,
    SeriesKind,
    SeriesTable,
    _random_right_product,
    bk_chain,
    es_nil_index,
    filtration_check,
    left_powers,
    right_powers,
    right_translates,
)


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
    return SeriesTable(SeriesKind.GENERAL_POWERS, tuple(entries), stabilized,
                       terminated_zero)


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
    return SeriesTable(SeriesKind.STRONG_FILTRATION, tuple(entries), stabilized,
                       terminated_zero)



def sampled_inclusion_report(b, n_max, k_max=None, seed=0, samples=20, chain=None):
    """The inclusion report with every check (b) and (c) decided by sampling.

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
    es_right = es_nil_index(b, "right", k_max)

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
            v = _random_right_product(alg, b.space, length, n, rng)
            if not contains(target, v):
                bad += 1
        checks.append(InclusionCheck(
            f"weight_{n}_right_products_in_chain", bad == 0,
            f"{samples - bad}/{samples} sampled products inside B_{n}"))

    if es_right.found:
        k = es_right.k
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
                v = _random_right_product(alg, b.space, length, weight, rng)
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

    return InclusionReport(seed, samples, tuple(checks))
