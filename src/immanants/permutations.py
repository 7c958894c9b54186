"""Symmetric group plumbing: one-line permutations, cycle types, classes, admission masks."""

from __future__ import annotations

import itertools
from functools import cache
from operator import itemgetter

from .tableaux import Partition

Permutation = tuple[int, ...]


def inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for i, target in enumerate(w):
        inv[target - 1] = i + 1
    return tuple(inv)


def shuffle(w: Permutation, seq: tuple[int, ...]) -> tuple[int, ...]:
    """Place entry i of seq at position w(i): the result at w(i) is seq_i."""
    out = [0] * len(seq)
    for i, target in enumerate(w):
        out[target - 1] = seq[i]
    return tuple(out)


def cycle_type(w: Permutation) -> Partition:
    n = len(w)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = w[j] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def symmetric_group(n: int) -> tuple[Permutation, ...]:
    return tuple(itertools.permutations(range(1, n + 1)))


def conjugacy_classes(n: int) -> dict[Partition, tuple[Permutation, ...]]:
    """All of S_n grouped by cycle type; `sn_layout` keeps the one cached copy."""
    grouped: dict[Partition, list[Permutation]] = {}
    for w in symmetric_group(n):
        grouped.setdefault(cycle_type(w), []).append(w)
    return {rho: tuple(ws) for rho, ws in grouped.items()}


@cache
def sn_layout(n: int):
    """S_n laid out for bitmask admission tests, built once per n.

    Returns (perms, classes, below).  perms lists every permutation, class
    by class in `conjugacy_classes` order; classes holds (rho, start, stop)
    with perms[start:stop] the class of rho; below[j][v] is the int whose
    bit p is set iff perms[p][j] <= v, for v = 0..n.  A Hessenberg function
    h therefore admits exactly the positions in the AND over j of
    below[j][h(j+1)].  Each mask is read off one column of perms in linear
    time: its bytes, mapped to "1" where the entry is at most v, parse as a
    binary int (reversed, so that position p is bit p).
    """
    groups = conjugacy_classes(n)
    perms = [w for members in groups.values() for w in members]
    classes = []
    start = 0
    for rho, members in groups.items():
        classes.append((rho, start, start + len(members)))
        start += len(members)
    at_most = [bytes(49 if 0 < x <= v else 48 for x in range(256)) for v in range(n + 1)]
    below = []
    for j in range(n):
        column = bytes(map(itemgetter(j), reversed(perms)))
        below.append([int(column.translate(table), 2) for table in at_most])
    return perms, classes, below
