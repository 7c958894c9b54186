"""Jacobi-Trudi matrices, Hessenberg functions, and immanants.

The matrix of a skew shape is stored as its grid of subscripts
``sub[i][j] = outer_i - inner_j + j - i`` (1-based indices): subscript 0
renders as the constant 1, negative subscripts as 0, and positive k as
the degree-k complete homogeneous function.  Immanants then reduce to
bookkeeping over multisets of subscripts, counted by cycle type over the
permutations with no zero entry (`cycle_cover_counts`: partial cycle
covers grown one cycle at a time, each cycle a path grown backwards into
the cover's least uncovered vertex, rather than a pass over S_n).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import le

from .characters import ClassFunction
# cycle_type is unused here; bench/traced_cli.py rebinds it on this module at start-up.
from .permutations import Permutation, cycle_type  # noqa: F401
from .symfunc import SymFunc, sym_func
from .tableaux import Partition, SkewShape


class NotHessenbergError(ValueError):
    """Raised when a vector fails the Hessenberg function invariants."""


@dataclass(frozen=True)
class HessenbergFunction:
    """A weakly increasing h: [n] -> [n] with h(i) >= i, stored as a vector."""

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        for i, v in enumerate(self.values, start=1):
            if not i <= v <= n:
                raise NotHessenbergError(
                    f"h({i}) = {v} violates {i} <= h({i}) <= {n} in {list(self.values)}"
                )
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise NotHessenbergError(f"{list(self.values)} is not weakly increasing")

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    def admits(self, w: Permutation) -> bool:
        """True iff w(i) <= h(i) for every i."""
        return all(map(le, w, self.values))

    @property
    def max_excess(self) -> int:
        """max over i of h(i) - i."""
        return max((v - i for i, v in enumerate(self.values, start=1)), default=0)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.values)) + ")"


def hessenberg(values) -> HessenbergFunction:
    return HessenbergFunction(tuple(int(v) for v in values))


def hess_indicator(h: HessenbergFunction, w: Permutation) -> int:
    return 1 if h.admits(w) else 0


@dataclass(frozen=True)
class JTMatrix:
    """Subscript grid of the Jacobi-Trudi matrix of a skew shape."""

    n: int
    sub: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        """Subscript at row i, column j (1-based)."""
        return self.sub[i - 1][j - 1]

    def cell_label(self, i: int, j: int) -> str:
        s = self.entry(i, j)
        if s < 0:
            return "0"
        if s == 0:
            return "1"
        return f"h_{s}"

    def render(self) -> str:
        cells = [[self.cell_label(i, j) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "cells": [[self.cell_label(i, j) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)],
            "subscripts": [list(row) for row in self.sub],
        }


def jt_matrix(shape: SkewShape) -> JTMatrix:
    mu, nu = shape.padded()
    n = shape.rows
    sub = tuple(
        tuple(mu[i] - nu[j] + (j + 1) - (i + 1) for j in range(n)) for i in range(n)
    )
    return JTMatrix(n, sub)


def _leading_run(shape: SkewShape, least: int) -> HessenbergFunction:
    """h(j) = last row whose column-j subscript mu_i - nu_j + j - i is at least `least`.

    i - mu_i strictly increases, so those rows are a prefix found by bisection.
    """
    mu, nu = shape.padded()
    keys = [i - m for i, m in enumerate(mu)]
    return hessenberg([bisect_right(keys, j - v - least) for j, v in enumerate(nu)])


def hessenberg_from_skew(shape: SkewShape) -> HessenbergFunction:
    """Nonzero pattern of the matrix: h(j) = last row whose column-j entry is nonzero."""
    return _leading_run(shape, 0)


def hess_prime(shape: SkewShape) -> HessenbergFunction:
    """Nonzero pattern after replacing constant-1 entries by 0.

    Raises NotHessenbergError when some column loses its last entry at or
    below the diagonal; by convention such shapes are not pre-abelian.
    """
    return _leading_run(shape, 1)


def cycle_cover_counts(sub) -> dict[Partition, dict[Partition, int]]:
    """N[rho][alpha]: how many permutations w of cycle type rho, with every
    sub[r][w(r)] >= 0, have positive subscripts forming the multiset alpha.

    The one count over S_n behind every sum in the library, a dynamic
    program over vertex sets of the square grid `sub` (row r -> column c is
    an edge unless sub[r][c] < 0).  Partial covers (vertex sets covered by
    disjoint cycles) wait in layers by their least uncovered vertex m, and
    grow by the cycle through m: a path into m over larger uncovered
    vertices, grown backwards from m with the cover's counts in tow, and
    merged into its next layer once an edge from m closes it.  On
    Jacobi-Trudi grids every column's support is a prefix of rows, so
    backward paths climb slowly and nearly all of them close.  A multiset
    travels as an int holding one digit per value (cycle lengths below,
    subscripts above), so merging is addition.
    """
    n = len(sub)
    width = n.bit_length()  # a digit counts up to n
    # Digit k - 1 counts cycles of length k, digit n - 1 + x subscripts x.
    # into[c]: (row r, its bit, the code of subscript sub[r][c]) per edge r -> c.
    into = [
        [(r, 1 << r, x and 1 << width * (n - 1 + x)) for r, x in enumerate(column) if x >= 0]
        for column in zip(*sub)
    ]
    layers = [{} for _ in range(n + 1)]  # layers[m]: covers whose least uncovered vertex is m
    layers[0][0] = {0: 1}
    for m in range(n):
        # (used, first vertex u) -> counts of the covers with a path u -> ... -> m
        paths = {(used | 1 << m, m): terms for used, terms in layers[m].items()}
        layers[m] = None
        cycle = 1  # the code of one cycle as long as the paths
        while paths:
            longer: dict[tuple[int, int], dict[int, int]] = {}
            for (used, u), terms in paths.items():
                for r, bit, e in into[u]:
                    if r == m:  # the edge m -> u closes the cycle
                        e += cycle
                        bucket, key = layers[(~used & (used + 1)).bit_length() - 1], used
                    elif used & bit:
                        continue
                    else:
                        bucket, key = longer, (used | bit, r)
                    target = bucket.get(key)
                    if target is None:
                        target = bucket[key] = {}
                    get = target.get
                    for code, count in terms.items():
                        code += e
                        target[code] = get(code, 0) + count
            paths = longer
            cycle <<= width
    covers = layers[n].get((1 << n) - 1, {})
    shift = width * n
    low = (1 << shift) - 1
    alphas: dict[int, Partition] = {}
    by_rho: dict[int, dict[Partition, int]] = {}
    while covers:  # popped as decoded, so the codes and the result are not both held
        code, count = covers.popitem()
        alpha = alphas.get(code >> shift)
        if alpha is None:
            alpha = alphas[code >> shift] = _multiset(code >> shift, width)
        by_rho.setdefault(code & low, {})[alpha] = count
    return {_multiset(rho, width): by_alpha for rho, by_alpha in by_rho.items()}


def _multiset(code: int, width: int) -> Partition:
    """The decreasing tuple with digit d of `code` (base 2**width) copies of d + 1."""
    mask = (1 << width) - 1
    out: list[int] = []
    value = 1
    while code:
        out += [value] * (code & mask)
        code >>= width
        value += 1
    out.reverse()
    return tuple(out)


def immanant(chi: ClassFunction, shape: SkewShape) -> SymFunc:
    """The immanant of the shape's Jacobi-Trudi matrix, in the h basis.

    Sums chi(w) * h_{subscripts along w} over permutations, grouped by
    `cycle_cover_counts`.
    """
    n = shape.rows
    if chi.n != n:
        raise ValueError(f"character on S_{chi.n} does not match shape with {n} rows")
    coeffs: dict[Partition, int] = {}
    for rho, by_alpha in cycle_cover_counts(jt_matrix(shape).sub).items():
        c = chi.values[rho]
        if c:
            for alpha, count in by_alpha.items():
                coeffs[alpha] = coeffs.get(alpha, 0) + c * count
    return sym_func("h", shape.size, coeffs)
