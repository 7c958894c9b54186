"""Partitions, skew shapes, and exact tableau counting.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the partition of 0.  All counting here is exact integer
arithmetic: Kostka numbers, skew Kostka numbers and the columns of the
Kostka matrix count chains of horizontal strips (the Pieri rule, one
prefix-sharing walk for all three), and Littlewood-Richardson
coefficients count lattice fillings (one walk per skew shape, every content).
"""

from __future__ import annotations

import json
import math
from functools import cache
from operator import attrgetter
from typing import Iterable, Iterator

Partition = tuple[int, ...]


def _as_ints(values: Iterable) -> tuple[int, ...]:
    """The values as ints, refusing any value v with int(v) != v."""
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        bad = next(v for v, i in zip(values, ints) if i != v)
        raise ValueError(f"not an integer: {bad!r}")
    return ints


def _json_ints(values: list | tuple) -> tuple:
    """The values, refusing a non-list and any value that is not an int: a JSON float or
    bool would load rounded."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"not a list: {values!r}")
    values = tuple(values)
    if bad := [v for v in values if type(v) is not int]:
        raise ValueError(f"not an integer: {bad[0]!r}")
    return values


def _json_object(obj, *fields: str) -> dict:
    """The JSON object obj, refusing a value that is not an object or lacks one of `fields`."""
    if not isinstance(obj, dict):
        raise ValueError(f"not an object: {obj!r}")
    if missing := [field for field in fields if field not in obj]:
        raise ValueError(f"missing fields {missing}")
    return obj


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate a weakly decreasing sequence and strip trailing zeros."""
    p = _as_ints(parts)
    if list(p) != sorted(p, reverse=True):
        raise ValueError(f"not weakly decreasing: {list(p)}")
    if p and p[-1] <= 0:
        if p[-1] < 0:
            raise ValueError(f"negative part in {list(p)}")
        return p[: p.index(0)]  # the zeros are a suffix
    return p


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically decreasing (canonical order)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def contains(inner: Partition, outer: Partition) -> bool:
    """True iff inner_i <= outer_i for all i (missing parts read as 0)."""
    return all(
        x <= (outer[i] if i < len(outer) else 0) for i, x in enumerate(inner)
    )


def is_hook(p: Partition) -> bool:
    """Hook shapes: (), (a), or (a, 1, ..., 1)."""
    return not p or p[1:].count(1) == len(p) - 1


def hook_leg(p: Partition) -> int:
    """Number of boxes below the first row of a hook."""
    if not is_hook(p):
        raise ValueError(f"{list(p)} is not a hook")
    return max(len(p) - 1, 0)


def hook_partition(total: int, leg: int) -> Partition:
    """The hook of given size with `leg` boxes below the first row."""
    if total <= 0:
        if total == 0 and leg == 0:
            return ()
        raise ValueError("hook size must be positive")
    if not 0 <= leg <= total - 1:
        raise ValueError(f"leg {leg} out of range for size {total}")
    return (total - leg,) + (1,) * leg


def hooks_of(n: int) -> tuple[Partition, ...]:
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(hook_partition(n, k) for k in range(max(n, 1)))  # n = 0: the empty hook


class _Record:
    """A record whose fields are the names in its class's `__slots__`.

    Equality and repr follow a dataclass's: a record equals only records of
    its own class with equal fields, and reads `Name(field=value, ...)`.
    """

    __slots__ = ()
    __hash__ = None  # mutable; `_Frozen` hashes the fields

    def __init_subclass__(cls):
        names = cls.__slots__
        if not names:
            return
        get = attrgetter(*names)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        cls.__eq__ = __eq__
        # The fields as a tuple, even for a one-field record.
        cls._astuple = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._astuple(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    def __reduce__(self):
        # Copy and pickle through __init__: the default restores slots by setattr,
        # which a frozen record refuses.
        return self.__class__, self._astuple(self)


class _Frozen(_Record):
    """An immutable record, hashed as the tuple of its fields (as a frozen dataclass).

    The constructor takes the fields in `__slots__` order, by position or by
    name.  A subclass that validates its input keeps its own `__init__` and
    sets its fields with `object.__setattr__`.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The fields in slot order, or the TypeError naming the fields that are wrong."""
        names, head = self.__slots__, f"{self.__class__.__qualname__}()"
        if len(args) > len(names):
            raise TypeError(f"{head} takes the fields {names}, got {len(args)} positional values")
        if twice := [name for name in names[: len(args)] if name in kwargs]:
            raise TypeError(f"{head} got the fields {twice} both by position and by name")
        if unknown := sorted(kwargs.keys() - set(names)):
            raise TypeError(f"{head} has no fields {unknown}; its fields are {names}")
        if missing := [name for name in names[len(args):] if name not in kwargs]:
            raise TypeError(f"{head} is missing the fields {missing}")
        return args + tuple(kwargs[name] for name in names[len(args):])

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SkewShape(_Frozen):
    """A skew diagram outer/inner considered with a fixed number of rows.

    `rows` may exceed the number of nonempty rows; the extra rows are
    empty and matter for which symmetric group the shape's class
    functions live on.  `outer` and `inner` are partitions and `rows` an int.
    Construct through `skew_shape`, which validates containment and
    normalizes the parts.
    """

    __slots__ = ("outer", "inner", "rows")

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def length(self) -> int:
        """Largest row index (1-based) carrying a box; 0 for empty shapes."""
        mu, nu = self.padded()
        return max((i + 1 for i in range(self.rows) if mu[i] > nu[i]), default=0)

    def padded(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(outer, inner) padded with zeros to exactly `rows` entries."""
        mu = self.outer + (0,) * (self.rows - len(self.outer))
        nu = self.inner + (0,) * (self.rows - len(self.inner))
        return mu, nu

    def row_width(self, i: int) -> int:
        """Number of boxes in row i (1-based)."""
        mu, nu = self.padded()
        return mu[i - 1] - nu[i - 1]

    @property
    def has_empty_rows(self) -> bool:
        mu, nu = self.padded()
        return any(a == b for a, b in zip(mu, nu))

    @property
    def is_connected(self) -> bool:
        """No empty rows and consecutive rows overlap in some column."""
        if self.rows == 0 or self.has_empty_rows:
            return False
        mu, nu = self.padded()
        return all(mu[i + 1] > nu[i] for i in range(self.rows - 1))

    def to_json(self) -> dict:
        return {"outer": list(self.outer), "inner": list(self.inner), "rows": self.rows}

    @staticmethod
    def from_json(obj: dict) -> "SkewShape":
        if unknown := _json_object(obj, "outer").keys() - {"outer", "inner", "rows"}:
            raise ValueError(f"unknown fields {sorted(unknown, key=str)}")
        rows = obj.get("rows")
        rows = rows if rows is None else _json_ints((rows,))[0]
        return skew_shape(_json_ints(obj["outer"]), _json_ints(obj.get("inner", ())), rows)

    def __str__(self) -> str:
        outer = ",".join(map(str, self.outer)) or "-"
        inner = ",".join(map(str, self.inner)) or "-"
        return f"({outer})/({inner})|rows={self.rows}"


def skew_shape(outer: Iterable[int], inner: Iterable[int] = (), rows: int | None = None) -> SkewShape:
    """Build a validated skew shape; `rows` defaults to the last nonempty row."""
    mu = check_partition(outer)
    nu = check_partition(inner)
    if not contains(nu, mu):
        raise ValueError(f"inner {list(nu)} does not fit inside outer {list(mu)}")
    length = max(
        (i + 1 for i in range(len(mu)) if mu[i] > (nu[i] if i < len(nu) else 0)),
        default=0,
    )
    rows = length if rows is None else _as_ints((rows,))[0]
    if rows < length:
        raise ValueError(f"rows={rows} is less than the last nonempty row {length}")
    # Rows beyond `rows` are empty by the length check; drop them.  A prefix of
    # a partition is a partition, so the parts need no second check.
    return SkewShape(mu[:rows], nu[:rows], rows)


@cache
def _strips(outer: Partition, mu: tuple[int, ...], size: int) -> tuple[tuple[int, ...], ...]:
    """Every nu inside `outer` with nu/mu a horizontal strip of `size` boxes.

    `mu` and each nu are padded with zeros to len(outer) rows.  The strips
    depend only on (outer, mu, size), so each key's are enumerated once and
    every layer entry that meets the key again reads them from the cache.
    """
    rows = len(outer)
    # Row i may grow up to min(outer_i, mu_{i-1}); only rows with room
    # recurse, so the depth is at most the number of distinct parts.
    caps = [min(o, a) for o, a in zip(outer, outer[:1] + mu)]
    free = [i for i in range(rows) if mu[i] < caps[i]]
    room = [0] * (len(free) + 1)
    for j in range(len(free) - 1, -1, -1):
        room[j] = room[j + 1] + caps[free[j]] - mu[free[j]]
    if size > room[0]:
        return ()
    nu = list(mu)
    out: list[tuple[int, ...]] = []

    def grow(j: int, extra: int) -> None:
        # Spread `extra` more boxes over the free rows j, j+1, ...
        if j == len(free):
            out.append(tuple(nu))
            return
        i = free[j]
        for take in range(max(0, extra - room[j + 1]), min(extra, caps[i] - mu[i]) + 1):
            nu[i] = mu[i] + take
            grow(j + 1, extra - take)
        nu[i] = mu[i]

    grow(0, size)
    return tuple(out)


def _pieri_layers(
    outer: Partition, inner: Partition, contents: Iterable[Partition]
) -> Iterator[tuple[Partition, dict[tuple[int, ...], int]]]:
    """Each distinct content with its last Pieri layer, in sorted order of the contents.

    A layer maps shapes, padded with zeros to len(outer) rows, to the number
    of chains inner = mu_0 < mu_1 < ... < mu_k = mu inside `outer` in which
    mu_i/mu_{i-1} is a horizontal strip of content[i-1] boxes.  Each content
    starts from the layer of the longest prefix it shares with the one before,
    and each distinct prefix takes one strip step on its parent's layer.  The walk
    drops a layer once past it, so a consumer that keeps none holds one path.
    """
    path = [{inner + (0,) * (len(outer) - len(inner)): 1}]  # path[k]: after k parts
    before: Partition = ()
    for content in sorted(set(contents)):
        shared = 0
        while shared < min(len(before), len(content)) and before[shared] == content[shared]:
            shared += 1
        del path[shared + 1:]
        for size in content[shared:]:
            grown: dict[tuple[int, ...], int] = {}
            for mu, ways in path[-1].items():
                for nu in _strips(outer, mu, size):
                    grown[nu] = grown.get(nu, 0) + ways
            path.append(grown)
        yield content, path[-1]
        before = content


def _ssyt_count(outer: Partition, inner: Partition, content: Partition) -> int:
    """Count semistandard fillings of outer/inner with `content` copies of 1..m.

    The cells holding one letter form a horizontal strip (Pieri rule), so a
    filling is a chain inner = mu_0 < mu_1 < ... < mu_m = outer in which
    mu_k/mu_{k-1} is a horizontal strip of content[k-1] boxes: the count at
    `outer` in the content's last `_pieri_layers` layer.  `content` is
    assumed normalized (positive, weakly decreasing).
    """
    return next(_pieri_layers(outer, inner, (content,)))[1].get(outer, 0)


def _normalize_content(content: Iterable[int]) -> Partition | None:
    """Sorted positive entries, or None if any entry is negative."""
    c = sorted(_as_ints(content), reverse=True)
    if c and c[-1] < 0:
        return None
    return tuple(filter(None, c))


def kostka(theta: Iterable[int], content: Iterable[int]) -> int:
    """Number of SSYT of shape theta and content `content`.

    Total: returns 0 for negative entries or size mismatch.  Invariant
    under permuting the content and inserting zeros.
    """
    p = check_partition(theta)
    c = _normalize_content(content)
    if c is None or sum(c) != sum(p):
        return 0
    return _ssyt_count(p, (), c)


def kostka_hook(theta: Iterable[int], content: Iterable[int]) -> int:
    """Kostka number of a hook via the closed form binom(r-1, leg).

    r is the number of nonzero content entries.  Rejects non-hooks;
    agrees with `kostka` on its whole domain.
    """
    p = check_partition(theta)
    k = hook_leg(p)
    c = _normalize_content(content)
    if c is None or sum(c) != sum(p):
        return 0
    if sum(p) == 0:
        return 1
    return math.comb(len(c) - 1, k)


def skew_kostka(shape: SkewShape, content: Iterable[int]) -> int:
    """Number of SSYT of the given skew shape and content."""
    c = _normalize_content(content)
    if c is None or sum(c) != shape.size:
        return 0
    return _ssyt_count(shape.outer, shape.inner, c)


def _lr_row(theta: Partition, lam: Partition) -> dict[Partition, int]:
    """Every LR coefficient of theta/lam (lam inside theta), keyed by content, from one walk.

    Fills theta/lam in reverse reading order (rows top to bottom, right to left)
    with rows weakly and columns strictly increasing and a lattice reading word,
    so row r holds at most r; each filling counts under its content.
    """
    nu = lam + (0,) * (len(theta) - len(lam))
    cells = [(r, c) for r in range(len(theta)) for c in range(theta[r] - 1, nu[r] - 1, -1)]
    counts = [len(cells)] + [0] * len(theta)  # counts[v]: v's read so far; [0] bounds the 1's
    grid = [[0] * (theta[0] + 1) for _ in theta]  # 0 off the skew; stale cells refilled before read
    row: dict[Partition, int] = {}

    def fill(idx: int) -> None:
        if idx == len(cells):
            sigma = tuple(filter(None, counts[1:]))
            row[sigma] = row.get(sigma, 0) + 1
            return
        r, c = cells[idx]
        right = grid[r][c + 1] or r + 1
        above = grid[r - 1][c] if r else 0
        for v in range(above + 1, right + 1):
            if counts[v] < counts[v - 1]:  # the reading word stays a lattice word
                counts[v] += 1
                grid[r][c] = v
                fill(idx + 1)
                counts[v] -= 1

    fill(0)
    return row


def lr_coefficient(theta: Iterable[int], lam: Iterable[int], sigma: Iterable[int]) -> int:
    """Littlewood-Richardson coefficient: lattice fillings of theta/lam with content sigma."""
    t, l, s = check_partition(theta), check_partition(lam), check_partition(sigma)
    if not contains(l, t) or sum(l) + sum(s) != sum(t):
        return 0
    return _lr_row(t, l).get(s, 0)


@cache
def kostka_matrix(n: int) -> dict[Partition, dict[Partition, int]]:
    """K[theta][lam] for theta, lam partitions of n, in canonical order.

    Unitriangular: K[theta][lam] vanishes unless theta is at or before
    lam in the canonical (lex-decreasing) order, and K[theta][theta]=1.
    """
    parts = partitions_of(n)
    # Column lam is the Pieri layer reached from () by lam's parts; rows of
    # length n never bind, and each layer holds only partitions of n.
    unpad = {theta + (0,) * (n - len(theta)): theta for theta in parts}
    out = {theta: dict.fromkeys(parts, 0) for theta in parts}
    for lam, column in _pieri_layers((n,) * n, (), parts):
        for mu, count in column.items():
            out[unpad[mu]][lam] = count
    return out


@cache
def inverse_kostka_matrix(n: int) -> dict[Partition, dict[Partition, int]]:
    """Exact integer inverse of the Kostka matrix by back-substitution."""
    parts = partitions_of(n)
    km = [list(row.values()) for row in kostka_matrix(n).values()]  # in `parts` order
    inv = [[int(i == j) for j in range(len(parts))] for i in range(len(parts))]
    for j in range(len(parts)):
        for i in range(j - 1, -1, -1):
            row = km[i]
            inv[i][j] = -sum(row[t] * inv[t][j] for t in range(i + 1, j + 1) if row[t])
    return {p: dict(zip(parts, row)) for p, row in zip(parts, inv)}


def partition_key(p: Partition) -> str:
    """JSON key for a partition, e.g. \"[3,1,1]\"."""
    return "[" + ",".join(map(str, p)) + "]"


def partition_from_key(key: str) -> Partition:
    return check_partition(_json_ints(json.loads(key)))


def _by_partition(obj: dict) -> dict:
    """A JSON object's values keyed by `partition_from_key`, refusing two keys for one partition."""
    keys = {}
    for key in _json_object(obj):
        if (p := partition_from_key(key)) in keys:
            raise ValueError(f"keys {keys[p]!r} and {key!r} name one partition {list(p)}")
        keys[p] = key
    return {p: obj[key] for p, key in keys.items()}


def connected_skew_shapes(rows: int, size: int) -> Iterator[SkewShape]:
    """Connected skew shapes with exactly `rows` nonempty rows and `size` boxes.

    Shapes are produced in canonical position (last row starts in column 1),
    so each connected skew diagram appears exactly once.  They are valid by
    construction, so they are built without `skew_shape`'s checks; inner ends
    in the last row's 0, and its zeros are cut off as `skew_shape` would.
    """
    if rows == 0:
        if size == 0:
            yield SkewShape((), (), 0)
        return
    if size < rows:
        return

    def rec(i: int, mu_below: int, nu_below: int, budget: int,
            mu_acc: list[int], nu_acc: list[int]) -> Iterator[SkewShape]:
        # Rows are chosen bottom-up; i counts rows still to place.
        if i == 0:
            if budget == 0:
                nu = tuple(reversed(nu_acc))
                yield SkewShape(tuple(reversed(mu_acc)), nu[: nu.index(0)], rows)
            return
        lo_nu = nu_below
        hi_nu = mu_below - 1 if mu_below else 0  # overlap with the row below
        if i == rows:
            lo_nu = hi_nu = 0  # bottom row anchored at column 1
        for nu_i in range(lo_nu, hi_nu + 1):
            max_width = budget - (i - 1)  # rows above still need a box each
            for width in range(1, max_width + 1):
                mu_i = nu_i + width
                if mu_below and mu_i < mu_below:
                    continue
                mu_acc.append(mu_i)
                nu_acc.append(nu_i)
                yield from rec(i - 1, mu_i, nu_i, budget - width, mu_acc, nu_acc)
                mu_acc.pop()
                nu_acc.pop()

    yield from rec(rows, 0, 0, size, [], [])
