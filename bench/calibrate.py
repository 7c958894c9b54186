"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by tens of percent,
over seconds and over minutes.  run.py times one slice of this kernel before
and after every child process and scales the child's wall and CPU time by
REFERENCE_S / (mean of the two slices): the result is the time the child would
have taken on a host that runs one slice in REFERENCE_S seconds.

The kernel is frozen and shares no code with the `immanants` package, so a
change to the package moves the scaled times and leaves the slices alone.  It
does the same kinds of work the package's hot paths do: a memoised recursion
over partitions keyed by tuples (like Kostka counting), and a walk over every
permutation of a small set, building a tuple and a cycle type for each (like
the n! loops).  Run it alone to see a host's slice times:

    python3 bench/calibrate.py
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import Counter

# About the median slice time on the host the benchmark was defined on (0.21 s
# wall over 369 slices; 2-core shared VM, CPython 3.11.7).  Only a unit: it
# scales every run alike.
REFERENCE_S = 0.2


def _strips(shape: tuple, size: int):
    """Every partition nu inside `shape` such that shape/nu is a horizontal strip of `size` boxes."""
    rows = len(shape)

    def go(i: int, left: int, prefix: tuple):
        if i == rows:
            if left == 0:
                yield prefix
            return
        low = shape[i + 1] if i + 1 < rows else 0
        for take in range(min(left, shape[i] - low) + 1):
            yield from go(i + 1, left - take, prefix + (shape[i] - take,))

    yield from go(0, size, ())


def _ssyt(shape: tuple, content: tuple, memo: dict) -> int:
    key = (shape, content)
    if key in memo:
        return memo[key]
    if not content:
        value = 1 if not any(shape) else 0
    else:
        value = sum(_ssyt(nu, content[:-1], memo) for nu in _strips(shape, content[-1]))
    memo[key] = value
    return value


def _cycle_walk(n: int) -> int:
    types: Counter = Counter()
    kept = []
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        lengths = []
        for start in range(n):
            if not seen[start]:
                length, j = 0, start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                lengths.append(length)
        key = tuple(sorted(lengths, reverse=True))
        types[key] += 1
        kept.append(perm)
    return len(types) + len(kept)


def kernel() -> int:
    """One slice of fixed work; returns a checksum so nothing is optimised away."""
    total = 0
    for content in ((3,) * 11, (2,) * 15 + (1,) * 3):
        total += _ssyt((8, 7, 6, 5, 4, 3), content, {})
    total += _cycle_walk(8)
    return total


def slice_times() -> tuple[float, float]:
    """(wall, CPU) seconds of one kernel slice."""
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0


if __name__ == "__main__":
    walls = [slice_times()[0] for _ in range(20)]
    print(f"slice wall s: median {statistics.median(walls):.4f} min {min(walls):.4f} max {max(walls):.4f}")
