"""Immanant characters of Jacobi-Trudi matrices and their hook expansions.

The immanant character of a shape at a partition theta is the class
function whose inner product with any virtual character phi reads off
the s_theta coefficient of the phi-immanant of the shape's Jacobi-Trudi
matrix.  For theta = (N) it collapses to the Stanley-Stembridge
character of the shape's Hessenberg function h.  For hook thetas it
expands as an explicit non-negative sum of Stanley-Stembridge
characters: each summand takes the ones-deleted pattern h' on a
leg-sized subset of the first n-1 columns and h elsewhere.  Subscripts
strictly decrease down a column, so h' = h - 1 exactly at the columns
whose bottom nonzero entry is the constant 1.
"""

from __future__ import annotations

import math
from itertools import combinations

from .characters import ClassFunction, zee, zero_character
from .jacobitrudi import (
    HessenbergFunction,
    NotHessenbergError,
    cycle_cover_counts,
    hess_prime,
    hessenberg_from_skew,
    jt_matrix,
)
from .permutations import Permutation
from .tableaux import (
    Partition,
    SkewShape,
    _Frozen,
    _ssyt_count,
    check_partition,
    hook_leg,
    is_hook,
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
    """Class function of the shape at each theta (default: every partition of its size).

    zee(rho) * sum of N[rho][alpha] * K(theta, alpha), with N from one
    `cycle_cover_counts` call shared by every theta: the content of w is the
    subscript multiset along w^-1.  Each alpha is a partition of the shape's
    size, so K comes straight from the Pieri kernel.  When every theta is a
    hook (N-k, 1^k) and the shape has a box, K = C(l(alpha) - 1, k) needs
    only the number of positive subscripts, so the count runs on the grid
    clipped at 1, where alpha is (1,) * l.
    """
    if thetas is None:
        thetas = partitions_of(shape.size)
    else:
        thetas = [check_partition(theta) for theta in thetas]
        for theta in thetas:
            check_theta_size(theta, shape)
    sub = jt_matrix(shape).sub
    hooks = shape.size > 0 and all(map(is_hook, thetas))
    if hooks:
        sub = [[min(x, 1) for x in row] for row in sub]
    counts = cycle_cover_counts(sub)
    classes = [(rho, zee(rho), counts.get(rho, {}).items()) for rho in partitions_of(shape.rows)]
    out = {}
    for theta in thetas:
        if hooks:  # by_length[l] = C(l - 1, leg) for the l <= n positive subscripts
            by_length = [0] + [math.comb(l, len(theta) - 1) for l in range(shape.rows)]
            values = {
                rho: z * sum(c * by_length[len(alpha)] for alpha, c in by_alpha)
                for rho, z, by_alpha in classes
            }
        else:
            values = {
                rho: z * sum(c * _ssyt_count(theta, (), alpha) for alpha, c in by_alpha)
                for rho, z, by_alpha in classes
            }
        out[theta] = ClassFunction(shape.rows, values)
    return out


def immanant_character(theta, shape: SkewShape) -> ClassFunction:
    """Class function of the shape at theta; the one-theta case of `immanant_characters`."""
    theta = check_partition(theta)
    return immanant_characters(shape, (theta,))[theta]


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
    """Multiset of Hessenberg functions expanding a hook immanant character."""

    __slots__ = ("theta", "shape", "base", "prime", "leg", "summands")

    def __init__(
        self,
        theta: Partition,
        shape: SkewShape,
        base: HessenbergFunction,
        prime: HessenbergFunction,
        leg: int,
        summands: tuple[tuple[HessenbergFunction, int], ...],
    ):
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "leg", leg)
        object.__setattr__(self, "summands", summands)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.summands)

    def multiplicity(self, h: HessenbergFunction) -> int:
        for cand, m in self.summands:
            if cand == h:
                return m
        raise KeyError(f"{h} is not a summand")

    def character(self) -> ClassFunction:
        out = zero_character(self.shape.rows)
        for h, m in self.summands:
            out = out + m * stanley_stembridge_character(h)
        return out

    def to_json(self) -> dict:
        return {
            "theta": list(self.theta),
            "shape": self.shape.to_json(),
            "h": list(self.base.values),
            "summands": [{"h": list(h.values), "mult": m} for h, m in self.summands],
        }


def hook_decompositions(shape: SkewShape, thetas) -> dict[Partition, HookDecomposition]:
    """Expand the immanant character at each hook theta over lowered Hessenberg functions.

    One summand per leg-sized subset S of the first n-1 columns: h' on S
    and h elsewhere, collected with multiplicities in first-seen order.  A
    leg longer than n-1 has no such subset, so its expansion is empty.
    Every theta is checked before any work, and h and h' are computed once
    for all of them.  Requires a shape with at least one row and no empty
    rows; callers must strip empty rows first (see reductions.remove_empty_rows).
    """
    thetas = [check_partition(theta) for theta in thetas]
    legs = {}
    for theta in thetas:
        legs[theta] = hook_leg(theta)
        check_theta_size(theta, shape)
    if shape.has_empty_rows:
        raise ValueError("shape has empty rows; remove them first (remove_empty_rows)")
    n = shape.rows
    if n == 0:
        raise ValueError("the hook expansion needs a shape with at least one row")
    base = hessenberg_from_skew(shape)
    prime = hess_prime(shape)  # a row and no empty one, so h'(j) >= j and this cannot raise
    out = {}
    for theta, k in legs.items():
        collected: dict[tuple[int, ...], int] = {}  # first-seen order
        for subset in combinations(range(n - 1), k):
            values = list(base.values)
            for j in subset:
                values[j] = prime.values[j]
            values = tuple(values)
            collected[values] = collected.get(values, 0) + 1
        summands = tuple((HessenbergFunction(v), m) for v, m in collected.items())
        out[theta] = HookDecomposition(theta, shape, base, prime, k, summands)
    return out


def hook_decomposition(theta, shape: SkewShape) -> HookDecomposition:
    """The expansion at one hook theta; the one-theta case of `hook_decompositions`."""
    theta = check_partition(theta)
    return hook_decompositions(shape, (theta,))[theta]


def collected_coefficient(decomp: HookDecomposition, h: HessenbergFunction) -> int:
    """Closed-form multiplicity binom(a, b) of a collected summand.

    Of the first n-1 columns, a counts those where h' = h (nothing to
    lower), and b is the leg minus the number where the summand is
    lowered.  Checked against the enumerated multiplicity.
    """
    enumerated = decomp.multiplicity(h)  # KeyError if not a summand
    base = decomp.base.values[: decomp.shape.rows - 1]
    a = sum(p == v for p, v in zip(decomp.prime.values, base))
    b = decomp.leg - sum(g != v for g, v in zip(h.values, base))
    predicted = math.comb(a, b) if b >= 0 else 0
    if predicted != enumerated:
        raise AssertionError(
            f"multiplicity formula binom({a},{b})={predicted} disagrees with "
            f"enumerated {enumerated} for {h}"
        )
    return predicted


def is_abelian(h: HessenbergFunction) -> bool:
    """h(1) = n, or the value at position h(1)+1 is n."""
    n = h.n
    if n == 0:
        return True
    if h(1) == n:
        return True
    return h(h(1) + 1) == n


def is_preabelian(shape: SkewShape) -> bool:
    """True when the ones-deleted nonzero pattern is an abelian Hessenberg function."""
    try:
        return is_abelian(hess_prime(shape))
    except NotHessenbergError:
        return False


def is_dahlberg_small(h: HessenbergFunction) -> bool:
    """h(i) - i <= 2 everywhere."""
    return h.max_excess <= 2
