"""Symmetric group plumbing: one-line permutations, cycle types, conjugacy classes."""

from __future__ import annotations

import itertools

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
    """All of S_n grouped by cycle type."""
    grouped: dict[Partition, list[Permutation]] = {}
    for w in symmetric_group(n):
        grouped.setdefault(cycle_type(w), []).append(w)
    return {rho: tuple(ws) for rho, ws in grouped.items()}
