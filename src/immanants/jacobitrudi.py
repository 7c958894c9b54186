"""Jacobi-Trudi matrices, Hessenberg functions, and immanants.

The matrix of a skew shape is stored as its grid of subscripts
``sub[i][j] = outer_i - inner_j + j - i`` (1-based indices): subscript 0
renders as the constant 1, negative subscripts as 0, and positive k as
the degree-k complete homogeneous function.  Immanants then reduce to
bookkeeping over multisets of subscripts, counted by cycle type over the
permutations with no zero entry (`cycle_cover_counts`: a sweep in which
each column picks its row, extending path fragments that close into
cycles, rather than a pass over S_n).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import le
from typing import TYPE_CHECKING

from .characters import ClassFunction
# cycle_type is unused here; bench/traced_cli.py rebinds it on this module at start-up.
from .permutations import Permutation, cycle_type  # noqa: F401
from .tableaux import Partition, SkewShape, _as_ints

if TYPE_CHECKING:
    from .symfunc import SymFunc


class NotHessenbergError(ValueError):
    """Raised when a vector fails the Hessenberg function invariants."""


@dataclass(frozen=True)
class HessenbergFunction:
    """A weakly increasing h: [n] -> [n] with h(i) >= i, stored as a vector."""

    values: tuple[int, ...]

    def __post_init__(self):
        values = self.values
        n = len(values)
        # One pass over the pairs i <= h(i), then h(i) <= h(i+1) and h(n) <= n.
        if not all(map(le, chain(range(1, n + 1), values), chain(values, values[1:], (n,)))):
            self._refuse()

    def _refuse(self):
        """Raise the NotHessenbergError naming the first invariant that fails."""
        n = len(self.values)
        for i, v in enumerate(self.values, start=1):
            if not i <= v <= n:
                raise NotHessenbergError(
                    f"h({i}) = {v} violates {i} <= h({i}) <= {n} in {list(self.values)}"
                )
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
    return HessenbergFunction(_as_ints(values))


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
    return HessenbergFunction(tuple(bisect_right(keys, j - v - least) for j, v in enumerate(nu)))


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

    The one count over S_n behind every sum in the library: a sweep over
    the columns of the square grid `sub` (row r -> column c is an edge
    unless sub[r][c] < 0), column c picking the row r with w(r) = c.  The
    state is the open path fragments (tail t >= c, length, start s < c),
    each from the unpicked row s back to t, the next column to pick along
    it.  Column c closes the fragment with tail c (or a new one at row c),
    joins it to another's start, or extends it to a free row.  A start is
    named by the first row with the same entries in later columns, the
    only ones that read it: one name on clipped grids and 0/-1 patterns.
    A multiset travels as an int holding one digit per value (cycle
    lengths below, subscripts above), so merging is addition.
    """
    n = len(sub)
    width = n.bit_length()  # a digit counts up to n
    # Digit k - 1 counts cycles of length k, digit n - 1 + x subscripts x.
    states: dict[tuple, dict[int, int]] = {(): {0: 1}}
    for c, column in enumerate(zip(*sub)):
        # edges[r]: the code of subscript sub[r][c], or None without the edge r -> c
        edges = [None if x < 0 else x and 1 << width * (n - 1 + x) for x in column]
        free = [(r, edges[r]) for r in range(c + 1, n) if edges[r] is not None]
        fresh = [row[c + 1 :] for row in sub].index(sub[c][c + 1 :])  # a start at row c
        grown: dict[tuple, dict[int, int]] = {}
        while states:  # popped, so each state is freed once it has grown
            fragments, terms = states.popitem()
            if fragments and fragments[0][0] == c:
                (_, length, start), rest = fragments[0], fragments[1:]
                close = edges[start]
            else:  # a new fragment at row c, whose closing edge reads row c, not its name
                length, start, rest, close = 0, fresh, fragments, edges[c]
            length += 1
            moves = [] if close is None else [(rest, close + (1 << width * (length - 1)))]
            for i, (tail, other, joined) in enumerate(rest):  # join a fragment's start
                if edges[joined] is not None:
                    fragment = (tail, length + other, start)
                    moves.append((rest[:i] + (fragment,) + rest[i + 1 :], edges[joined]))
            tails = {tail for tail, _, _ in rest}
            for r, e in free:  # claim a free row
                if r not in tails:
                    moves.append((tuple(sorted(rest + ((r, length, start),))), e))
            for key, e in moves:
                target = grown.setdefault(key, {})
                get = target.get
                for code, count in terms.items():
                    code += e
                    target[code] = get(code, 0) + count
        states = grown
    covers = states.get((), {})
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
    from .symfunc import sym_func  # only immanant needs symfunc: the rest of this module runs without it

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
