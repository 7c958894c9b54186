"""Immanant characters of Jacobi-Trudi matrices and their hook expansions.

The immanant character of a shape at a partition theta is the class
function whose inner product with any virtual character phi reads off
the s_theta coefficient of the phi-immanant of the shape's Jacobi-Trudi
matrix.  For theta = (N) it collapses to the Stanley-Stembridge
character of the shape's Hessenberg function h.  For hook thetas it
expands as an explicit non-negative sum of Stanley-Stembridge
characters, read off the multiplicity formula: the first n-1 columns are
a fixed ones (h' = h) and lowerable ones (h' = h - 1, where the bottom
nonzero entry is the constant 1), and each set T of lowerable columns gives
the summand h' on T, h elsewhere, with multiplicity binom(a, leg - |T|).
The sets T come from `itertools.combinations`, one size at a time, and are
sorted once by their first leg-sized subset of columns.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations

from .characters import ClassFunction, zee
from .jacobitrudi import (
    HessenbergFunction,
    NotHessenbergError,
    cycle_cover_counts,
    hess_prime,
    hessenberg_from_skew,
)
from .permutations import Permutation
from .tableaux import (
    Partition,
    SkewShape,
    _Frozen,
    _pieri_layers,
    check_partition,
    hook_leg,
    partitions_of,
)


def content_vector(shape: SkewShape, w: Permutation) -> tuple[int, ...]:
    """The shuffled difference vector whose Kostka number weights w.

    Entry at position w(i) is (outer + staircase)_{w(i)} - (inner + staircase)_i,
    which is the matrix subscript in row w(i), column i.  The entries sum
    to the size of the shape.
    """
    mu, nu = shape.padded()
    out = [0] * shape.rows
    for i, target in enumerate(w):
        r = target - 1
        out[r] = mu[r] - nu[i] + i - r
    return tuple(out)


def check_theta_size(theta: Partition, shape: SkewShape) -> None:
    """Refuse a theta whose size is not the shape's number of boxes."""
    if sum(theta) != shape.size:
        raise ValueError(f"theta has size {sum(theta)} but the shape has {shape.size} boxes")


def immanant_characters(shape: SkewShape, thetas=None) -> dict[Partition, ClassFunction]:
    """Class function of the shape at each theta (default: every partition of its size): the
    thetas checked, then `_grid_characters` on the grid clipped at the largest theta_2 asked."""
    if thetas is None:
        thetas = partitions_of(shape.size)
    else:
        thetas = [check_partition(theta) for theta in thetas]
        for theta in thetas:
            check_theta_size(theta, shape)
    c = max((theta[1] for theta in thetas if len(theta) > 1), default=0)
    return _grid_characters(_clip(shape, c), shape.size, thetas)


def _clip(shape: SkewShape, c: int) -> tuple[tuple[int, ...], ...]:
    """The shape's Jacobi-Trudi grid with each negative subscript -1 (no edge) and the rest
    capped at c: fewer start names in `cycle_cover_counts`, and shapes share a grid.  The
    subscript (i, j) is read off the beta-numbers as (mu_i - i) - (nu_j - j)."""
    mu, nu = shape.padded()
    ends = [v - j for j, v in enumerate(nu)]
    return tuple(
        tuple([-1 if (x := m - i - e) < 0 else x if x < c else c for e in ends]) for i, m in enumerate(mu)
    )


def _up_to_half_turn(grid) -> tuple[tuple[int, ...], ...]:
    """min(G, G'), G'[i][j] = G[n-1-j][n-1-i] the grid turned 180 degrees: w -> r w^-1 r, r the
    reversal, maps the cycle covers of G onto those of G' with equal types and subscripts, so equal gammas."""
    return min(grid, tuple(zip(*grid[::-1]))[::-1])


def _grid_characters(grid, size: int, thetas, columns: dict | None = None) -> dict[Partition, ClassFunction]:
    """gamma_theta at each theta of `size` from a grid clipped (`_clip`) at c >= every theta_2.

    zee(rho) * sum of N[rho][alpha] * K(theta, alpha), with N from one
    `cycle_cover_counts` call shared by every theta (the content of w is the
    subscript multiset along w^-1) on that grid; the boxes clipped off alpha
    go back on its first part.
    K is kept by the lemma: if alpha_i > theta_2, then K(theta, alpha) =
    K(theta - e_1, alpha - e_i).  In an SSYT of shape theta the i's outside
    row 1 lie in distinct columns left of row 1's i-block, which starts at
    column a, so at most a - 1 lie outside and the block ends at b >= alpha_i
    > theta_2.  No cell lies below row 1 past column theta_2, so deleting the
    i at b and shifting the rest of row 1 left is a bijection onto
    SSYT(theta - e_1, alpha - e_i); its inverse inserts an i after the block.
    So both contents count K((|a| - |bar|, bar), a) for a = min(alpha, c) and
    bar = (theta_2, ...), 0 when that first part is below theta_2.

    Every alpha has at most `rows` parts, so a theta with more has gamma 0.  The
    others are padded to the longest of them, and one `_pieri_layers` walk inside their
    entrywise maximum gives every K(mu, alpha) as alpha's last layer, mu -> K(mu, alpha);
    each layer is read as alpha's column [(mu, K)] over the asked thetas' rows, folded
    into them as it comes, and dropped.  Calls that share `rows`, `size` and `thetas`
    may share one `columns` dict, which keeps each alpha's column instead, so that each
    alpha is walked once over those calls.
    """
    counts = cycle_cover_counts(grid)
    rows, classes = len(grid), partitions_of(len(grid))
    weights: dict[Partition, list[tuple[int, int]]] = {}  # alpha: (class index, zee * N)
    for i, rho in enumerate(classes):
        for a, m in counts.get(rho, {}).items():
            weights.setdefault((size - sum(a[1:]), *a[1:]) if size else a, []).append((i, zee(rho) * m))
    width = max((len(theta) for theta in thetas if len(theta) <= rows), default=0)
    padded = {theta: theta + (0,) * (width - len(theta)) for theta in thetas if len(theta) <= rows}
    acc = {mu: [0] * len(classes) for mu in padded.values()}
    walk = _pieri_layers(tuple(map(max, zip(*acc))), (), weights if columns is None else
                         [alpha for alpha in weights if alpha not in columns])
    read = ((alpha, [(mu, k) for mu, k in layer.items() if mu in acc]) for alpha, layer in walk)
    if columns is not None:  # keep the new columns, then read every alpha's from the memo
        columns.update(read)
        read = ((alpha, columns[alpha]) for alpha in weights)
    for alpha, column in read:
        for mu, k in column:
            row = acc[mu]
            for i, w in weights[alpha]:
                row[i] += w * k
    zero = ClassFunction(rows, dict.fromkeys(classes, 0))
    by_mu = {mu: ClassFunction(rows, dict(zip(classes, row))) for mu, row in acc.items()}
    return {theta: by_mu[padded[theta]] if theta in padded else zero for theta in thetas}


def immanant_character(theta, shape: SkewShape) -> ClassFunction:
    """Class function of the shape at theta; the one-theta case of `immanant_characters`."""
    theta = check_partition(theta)
    return immanant_characters(shape, (theta,))[theta]


@cache
def stanley_stembridge_character(h: HessenbergFunction) -> ClassFunction:
    """Value at a class is zee * number of class members staying under h.

    Counted on h's pattern in a Jacobi-Trudi grid's orientation (row i,
    column j present when i <= h(j)), the one `cycle_cover_counts` prunes
    best.  That grid admits the inverses of the members, and inverting
    keeps the cycle type.
    """
    n = h.n
    admissible = [[0 if i <= v else -1 for v in h.values] for i in range(1, n + 1)]
    counts = cycle_cover_counts(admissible)
    values = {rho: zee(rho) * sum(counts.get(rho, {}).values()) for rho in partitions_of(n)}
    return ClassFunction(n, values)


class HookDecomposition(_Frozen):
    """Multiset of Hessenberg functions expanding a hook immanant character: `summands`
    holds (HessenbergFunction, int) pairs, and `base` and `prime` are h and h' of `shape`."""

    __slots__ = ("theta", "shape", "base", "prime", "leg", "summands")

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.summands)

    def multiplicity(self, h: HessenbergFunction) -> int:
        return dict(self.summands)[h]  # each T lowers a different set of columns

    def character(self) -> ClassFunction:
        n = self.shape.rows
        values = dict.fromkeys(partitions_of(n), 0)
        for h, m in self.summands:
            for rho, v in stanley_stembridge_character(h).values.items():
                values[rho] += m * v
        return ClassFunction(n, values)

    def to_json(self) -> dict:
        return {
            "theta": list(self.theta),
            "shape": self.shape.to_json(),
            "h": list(self.base.values),
            "summands": [{"h": list(h.values), "mult": m} for h, m in self.summands],
        }


def hook_decompositions(shape: SkewShape, thetas) -> dict[Partition, HookDecomposition]:
    """Expand the immanant character at each hook theta over lowered Hessenberg functions.

    Each subset T of the lowerable columns with leg - a <= |T| <= leg gives
    the summand h' on T and h elsewhere, with multiplicity binom(a, leg - |T|):
    the leg-sized subsets of the first n-1 columns lowering exactly T.  The T
    of each size come from `combinations`, so the work follows the summands,
    not the leg-sized subsets, and one sort orders the summands by their first
    such subset, sorted(T + the leftmost leg - |T| fixed columns).  A leg longer
    than n-1 has no T, so its expansion is empty.  Every theta is checked before
    any work, and h and h' are computed once for all of them.  Requires a shape
    with at least one row and no empty rows; callers must strip empty rows first
    (see reductions.remove_empty_rows).
    """
    legs = {theta: hook_leg(theta) for theta in map(check_partition, thetas)}
    for theta in legs:
        check_theta_size(theta, shape)
    if shape.has_empty_rows:
        raise ValueError("shape has empty rows; remove them first (remove_empty_rows)")
    if shape.rows == 0:
        raise ValueError("the hook expansion needs a shape with at least one row")
    # a row and no empty one, so h'(j) >= j and hess_prime cannot raise
    base, prime = hessenberg_from_skew(shape), hess_prime(shape)
    high, low = base.values, prime.values
    fixed = tuple(j for j in range(shape.rows - 1) if low[j] == high[j])
    lowerable = [j for j in range(shape.rows - 1) if low[j] != high[j]]
    a = len(fixed)
    out = {}
    for theta, k in legs.items():
        terms = sorted(
            (sorted(T + fixed[: k - t]), T, math.comb(a, k - t))
            for t in range(max(0, k - a), min(k, len(lowerable)) + 1)
            for T in combinations(lowerable, t)
        )
        summands = []
        for _, T, m in terms:
            values = list(high)
            for j in T:
                values[j] = low[j]
            summands.append((HessenbergFunction(tuple(values)), m))
        out[theta] = HookDecomposition(theta, shape, base, prime, k, tuple(summands))
    return out


def hook_decomposition(theta, shape: SkewShape) -> HookDecomposition:
    """The expansion at one hook theta; the one-theta case of `hook_decompositions`."""
    theta = check_partition(theta)
    return hook_decompositions(shape, (theta,))[theta]


def collected_coefficient(decomp: HookDecomposition, h: HessenbergFunction) -> int:
    """Multiplicity binom(a, leg - |T|) of the summand h lowered on T; KeyError if h is not one."""
    return decomp.multiplicity(h)


def is_abelian(h: HessenbergFunction) -> bool:
    """h(1) = n, or the value at position h(1)+1 is n."""
    return h.n == 0 or h(1) == h.n or h(h(1) + 1) == h.n


def is_preabelian(shape: SkewShape) -> bool:
    """True when the ones-deleted nonzero pattern is an abelian Hessenberg function."""
    try:
        return is_abelian(hess_prime(shape))
    except NotHessenbergError:
        return False


def is_dahlberg_small(h: HessenbergFunction) -> bool:
    """h(i) - i <= 2 everywhere."""
    return h.max_excess <= 2
