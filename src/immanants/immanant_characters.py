"""Immanant characters of Jacobi-Trudi matrices and their hook expansions.

The immanant character of a shape at a partition theta is the class
function whose inner product with any virtual character phi reads off
the s_theta coefficient of the phi-immanant of the shape's Jacobi-Trudi
matrix.  For theta = (N) it collapses to the Stanley-Stembridge
character of the shape's Hessenberg function.  For hook thetas it
expands as an explicit non-negative sum of Stanley-Stembridge
characters, built here by lowering Hessenberg values at the columns
whose bottom nonzero entry is the constant 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .characters import ClassFunction, zee, zero_character
from .jacobitrudi import (
    HessenbergFunction,
    NotHessenbergError,
    cycle_cover_counts,
    hess_prime,
    hessenberg,
    hessenberg_from_skew,
    jt_matrix,
)
from .permutations import Permutation
from .tableaux import (
    Partition,
    SkewShape,
    _ssyt_count,
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


def immanant_characters(shape: SkewShape, thetas=None) -> dict[Partition, ClassFunction]:
    """Class function of the shape at each theta (default: every partition of its size).

    zee(rho) * sum of N[rho][alpha] * K(theta, alpha), with N read off one
    `cycle_cover_counts` walk shared by every theta: the content of w is the
    subscript multiset along w^-1.  Each alpha is already a partition of the
    shape's size, so K comes straight from the Pieri kernel.
    """
    if thetas is None:
        thetas = partitions_of(shape.size)
    else:
        thetas = [check_partition(theta) for theta in thetas]
        for theta in thetas:
            if sum(theta) != shape.size:
                raise ValueError(
                    f"theta has size {sum(theta)} but the shape has {shape.size} boxes"
                )
    counts = cycle_cover_counts(jt_matrix(shape).sub)
    classes = [(rho, zee(rho), counts.get(rho, {}).items()) for rho in partitions_of(shape.rows)]
    return {
        theta: ClassFunction(
            shape.rows,
            {
                rho: z * sum(c * _ssyt_count(theta, (), alpha) for alpha, c in by_alpha)
                for rho, z, by_alpha in classes
            },
        )
        for theta in thetas
    }


def immanant_character(theta, shape: SkewShape) -> ClassFunction:
    """Class function of the shape at theta; the one-theta case of `immanant_characters`."""
    theta = check_partition(theta)
    return immanant_characters(shape, (theta,))[theta]


def stanley_stembridge_character(h: HessenbergFunction) -> ClassFunction:
    """Value at a class is zee * number of class members staying under h."""
    n = h.n
    admissible = [[0 if j <= v else -1 for j in range(1, n + 1)] for v in h.values]
    counts = cycle_cover_counts(admissible)
    values = {rho: zee(rho) * sum(counts.get(rho, {}).values()) for rho in partitions_of(n)}
    return ClassFunction(n, values)


def _corners(shape: SkewShape, h: HessenbergFunction) -> tuple[int, ...]:
    sub = jt_matrix(shape).sub
    return tuple(sub[v - 1][j] for j, v in enumerate(h.values))


def _lowered(values: tuple[int, ...], corners: tuple[int, ...], subset) -> tuple[int, ...]:
    lowered = list(values)
    for i in subset:
        if corners[i - 1] == 0:
            lowered[i - 1] -= 1
    return tuple(lowered)


@dataclass(frozen=True)
class HookDecomposition:
    """Multiset of Hessenberg functions expanding a hook immanant character."""

    theta: Partition
    shape: SkewShape
    base: HessenbergFunction
    leg: int
    summands: tuple[tuple[HessenbergFunction, int], ...]

    @cached_property
    def corners(self) -> tuple[int, ...]:
        """Subscript of each column's bottom nonzero entry (the h(i)-th row), computed once."""
        return _corners(self.shape, self.base)

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


def hook_decomposition(theta, shape: SkewShape) -> HookDecomposition:
    """Expand the immanant character of a hook theta over lowered Hessenberg functions.

    One summand per leg-sized subset of the first n-1 columns, collected
    with multiplicities.  Requires a shape with no empty rows; callers
    must strip empty rows first (see reductions.remove_empty_rows).
    """
    theta = check_partition(theta)
    k = hook_leg(theta)
    if sum(theta) != shape.size:
        raise ValueError(
            f"theta has size {sum(theta)} but the shape has {shape.size} boxes"
        )
    if shape.has_empty_rows:
        raise ValueError("shape has empty rows; remove them first (remove_empty_rows)")
    n = shape.rows
    base = hessenberg_from_skew(shape)
    if k > n - 1:
        warnings.warn(
            f"leg {k} exceeds {n - 1}; the expansion is empty and the character is zero",
            stacklevel=2,
        )
        return HookDecomposition(theta, shape, base, k, ())
    corners = _corners(shape, base)
    collected: dict[tuple[int, ...], int] = {}  # first-seen order
    for subset in combinations(range(1, n), k):
        values = _lowered(base.values, corners, subset)
        collected[values] = collected.get(values, 0) + 1
    summands = tuple((hessenberg(v), m) for v, m in collected.items())
    return HookDecomposition(theta, shape, base, k, summands)


def collected_coefficient(decomp: HookDecomposition, h: HessenbergFunction) -> int:
    """Closed-form multiplicity binom(a, b) of a collected summand.

    a counts the first n-1 columns whose bottom nonzero entry has positive
    subscript; b is the leg minus the number of lowered values.  Checked
    against the enumerated multiplicity.
    """
    enumerated = decomp.multiplicity(h)  # KeyError if not a summand
    d = decomp.corners
    n = decomp.shape.rows
    a = sum(1 for i in range(1, n) if d[i - 1] > 0)
    b = decomp.leg - sum(
        1 for i in range(1, n) if decomp.base.values[i - 1] != h.values[i - 1]
    )
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
