import json
import math
import random
import re
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import immanants.reductions as reductions
import immanants.symfunc as symfunc
import immanants.tableaux as tableaux
from immanants import (
    SkewShape,
    connected_skew_shapes,
    contains,
    hook_partition,
    hooks_of,
    immanant_character,
    immanant_character_from_components,
    immanant_characters,
    is_hook,
    kostka,
    kostka_hook,
    kostka_matrix,
    lr_coefficient,
    partitions_of,
    skew_kostka,
    skew_schur,
    skew_shape,
)
from immanants.symfunc import MAX_DEGREE
from immanants.tableaux import (
    _lr_row,
    _normalize_content,
    _pieri_layers,
    _ssyt_count,
    _strips,
    check_partition,
    inverse_kostka_matrix,
    partition_from_key,
)


# ---------------------------------------------------------------- oracles

def horizontal_strips(outer, size):
    """Sub-partitions lam with outer/lam a horizontal strip of `size` boxes."""
    out = []

    def rec(i, prefix, removed):
        if i == len(outer):
            if removed == size:
                out.append(check_partition(prefix))
            return
        lo = outer[i + 1] if i + 1 < len(outer) else 0
        hi = min(outer[i], prefix[-1] if prefix else outer[i])
        for v in range(lo, hi + 1):
            if removed + (outer[i] - v) <= size:
                rec(i + 1, prefix + [v], removed + (outer[i] - v))

    rec(0, [], 0)
    return out


def per_content_strip_chain(outer, inner, content):
    """The last Pieri layer of one content, stepped part by part from `inner`.

    No prefix is shared with any other content.  A layer maps shapes padded
    to len(outer) rows to the number of strip chains reaching them.
    """
    layer = {inner + (0,) * (len(outer) - len(inner)): 1}
    for size in content:
        grown = {}
        for mu, ways in layer.items():
            for nu in _strips(outer, mu, size):
                grown[nu] = grown.get(nu, 0) + ways
        layer = grown
    return layer


def ssyt_count_oracle(outer, inner, content):
    """Count SSYT as chains of horizontal strips; independent of the library."""

    @lru_cache(maxsize=None)
    def chains(shape, k):
        if k == 0:
            return 1 if shape == inner else 0
        total = 0
        for smaller in horizontal_strips(shape, content[k - 1]):
            if contains(inner, smaller):
                total += chains(smaller, k - 1)
        return total

    return chains(tuple(outer), len(content))


def ssyt_enumeration_oracle(outer, inner, content):
    """Count SSYT of outer/inner one filling at a time, independently of the kernel.

    Column-by-column backtracking: rows weakly increase, columns strictly
    increase, and letter v is used exactly content[v-1] times.  The content
    may hold zeros and be in any order.
    """
    size = sum(outer) - sum(inner)
    if sum(content) != size:
        return 0
    if size == 0:
        return 1
    m = len(content)
    ncols = outer[0]
    nu = tuple(inner) + (0,) * (len(outer) - len(inner))
    # Rows (0-based, half-open) of the cells in each column.
    spans = [
        (sum(1 for x in nu if x >= col), sum(1 for x in outer if x >= col))
        for col in range(1, ncols + 1)
    ]
    remaining = list(content)
    grid = [[0] * ncols for _ in range(len(outer))]

    def fill(ci, row):
        if ci == ncols:
            return 1
        top, bot = spans[ci]
        if row < top:
            row = top
        if row >= bot:
            return fill(ci + 1, spans[ci + 1][0] if ci + 1 < ncols else 0)
        above = grid[row - 1][ci] if row > top else 0
        left = grid[row][ci - 1] if ci > 0 and nu[row] < ci else 0
        lo = max(above + 1, left, 1)
        hi = m - (bot - 1 - row)  # cells below need strictly larger values
        total = 0
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[row][ci] = v
            total += fill(ci, row + 1)
            grid[row][ci] = 0
            remaining[v - 1] += 1
        return total

    return fill(0, spans[0][0])


def strips_by_definition(outer, mu, size):
    """Every nu with mu_i <= nu_i <= min(outer_i, mu_{i-1}) and |nu| - |mu| = size.

    One candidate per point of the box of allowed row lengths, filtered by size.
    """
    tops = [min(o, a) for o, a in zip(outer, (outer[0], *mu))]
    return [
        nu for nu in product(*(range(m, top + 1) for m, top in zip(mu, tops)))
        if sum(nu) - sum(mu) == size
    ]


def lr_by_content(theta, lam, sigma):
    """One LR coefficient by a search constrained to content sigma.

    Fills theta/lam in reverse reading order with at most sigma_v copies of
    v, keeping rows weakly increasing, columns strictly increasing and the
    reading word a lattice word.  Shares no code with the library's walks.
    """
    t, l, s = tuple(theta), tuple(lam), tuple(sigma)
    if not contains(l, t) or sum(l) + sum(s) != sum(t):
        return 0
    nu = l + (0,) * (len(t) - len(l))
    cells = [(r, c) for r in range(len(t)) for c in range(t[r] - 1, nu[r] - 1, -1)]
    m = len(s)
    remaining = list(s)
    counts = [0] * (m + 1)
    grid = [[0] * (t[0] if t else 0) for _ in range(len(t))]

    def fill(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = grid[r][c + 1] if c + 1 < t[r] else 0
        above = grid[r - 1][c] if r > 0 and nu[r - 1] <= c < t[r - 1] else 0
        total = 0
        for v in range(above + 1, m + 1):
            if remaining[v - 1] == 0 or (right and v > right):
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            remaining[v - 1] -= 1
            counts[v] += 1
            grid[r][c] = v
            total += fill(idx + 1)
            grid[r][c] = 0
            counts[v] -= 1
            remaining[v - 1] += 1
        return total

    return fill(0)


def entrywise_kostka_matrix(n):
    """K[theta][lam] with one Pieri chain count per entry, in canonical order."""
    parts = partitions_of(n)
    return {theta: {lam: kostka(theta, lam) for lam in parts} for theta in parts}


# ------------------------------------------------------------- partitions

def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, p in enumerate(expected):
        assert len(partitions_of(n)) == p


def test_partition_order_is_lex_decreasing():
    for n in range(8):
        parts = partitions_of(n)
        assert parts[0] == ((n,) if n else ())
        assert parts[-1] == (1,) * n
        assert all(a > b for a, b in zip(parts, parts[1:]))


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, -1))
    assert check_partition((3, 2, 0, 0)) == (3, 2)
    assert check_partition(()) == ()


def test_check_partition_refuses_non_integral_parts():
    with pytest.raises(ValueError, match=r"not an integer: 2\.5"):
        check_partition([2.5, 1])
    assert check_partition([2.0, 1, 0.0]) == (2, 1)


def check_partition_oracle(parts):
    """check_partition as a loop over adjacent pairs and a trailing-zero strip."""
    p = tuple(int(x) for x in parts)
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {list(p)}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {list(p)}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def normalize_content_oracle(content):
    """_normalize_content as a scan for negatives, then a filtered sort."""
    c = [int(x) for x in content]
    if any(x < 0 for x in c):
        return None
    return tuple(sorted((x for x in c if x > 0), reverse=True))


def outcome(fn, arg):
    try:
        return "value", fn(arg)
    except ValueError as exc:
        return type(exc), str(exc)


# Weakly decreasing runs with zeros and negatives mixed in, and arbitrary lists.
int_sequences = st.one_of(
    st.lists(st.integers(-3, 6), max_size=8),
    st.lists(st.integers(-2, 6), max_size=8).map(lambda xs: sorted(xs, reverse=True)),
    st.lists(st.integers(0, 6), max_size=8).map(lambda xs: sorted(xs, reverse=True)),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(int_sequences)
def test_check_partition_matches_its_loop_oracle(xs):
    assert outcome(check_partition, xs) == outcome(check_partition_oracle, xs)
    assert outcome(check_partition, iter(xs)) == outcome(check_partition_oracle, xs)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(int_sequences)
def test_normalize_content_matches_its_filter_oracle(xs):
    assert _normalize_content(xs) == normalize_content_oracle(xs)
    assert _normalize_content(iter(xs)) == normalize_content_oracle(xs)


def test_check_partition_and_normalize_content_reject_non_integers_alike():
    for bad in (["x"], [2, "1.5"]):
        assert outcome(check_partition, bad) == outcome(check_partition_oracle, bad)
        assert outcome(_normalize_content, bad) == outcome(normalize_content_oracle, bad)


def test_contains():
    assert contains((), (3, 1))
    assert contains((2, 1), (3, 1))
    assert not contains((2, 2), (3, 1))
    assert not contains((1, 1, 1), (2, 1))


def test_hooks():
    assert is_hook(()) and is_hook((4,)) and is_hook((3, 1, 1))
    assert not is_hook((3, 2))
    assert hook_partition(8, 2) == (6, 1, 1)
    assert hooks_of(3) == ((3,), (2, 1), (1, 1, 1)) and hooks_of(0) == ((),)
    for enumerate_of in (hooks_of, partitions_of):
        with pytest.raises(ValueError, match="n must be non-negative"):
            enumerate_of(-1)


def test_is_hook_agrees_with_the_loop_it_replaced():
    def loop(p):
        return all(x == 1 for x in p[1:])

    for length in range(5):
        for p in product(range(4), repeat=length):
            assert is_hook(p) == loop(p), p
            assert is_hook(list(p)) == loop(p), p


# ----------------------------------------------------------------- kostka

def test_kostka_golden_hook_example():
    assert kostka((6, 1, 1), (2, 2, 3, 1)) == 3


def test_kostka_refuses_non_integral_theta_and_content():
    with pytest.raises(ValueError, match=r"not an integer: 2\.7"):
        kostka((2.7, 1), (2, 1))
    with pytest.raises(ValueError, match=r"not an integer: 1\.5"):
        kostka((2,), (1.5, 1.5))
    assert kostka((2.0, 1), (1.0, 1, 1)) == 2


def test_kostka_single_row_is_one():
    for c in [(3,), (1, 1, 1), (2, 0, 1), (0, 3)]:
        assert kostka((3,), c) == 1


def test_kostka_standard_filling():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (1, 1, 1)) == ssyt_count_oracle((2, 1), (), (1, 1, 1))
    # 60 letters in 60 rows: the count must not recurse once per letter.
    assert kostka((1,) * 60, (1,) * 60) == 1
    # The Catalan number C_20, out of reach of one-tableau-at-a-time counting.
    assert kostka((20, 20), (1,) * 40) == math.comb(40, 20) // 21 == 6564120420


def test_kostka_total_on_bad_input():
    assert kostka((2, 1), (1, -1, 3)) == 0
    assert kostka((2, 1), (1, 1)) == 0
    assert kostka((), ()) == 1
    assert kostka((), (1,)) == 0


def test_kostka_invariance_under_reorder_and_zeros():
    rng = random.Random(7)
    for theta in partitions_of(6):
        base = (3, 2, 1)
        value = kostka(theta, base)
        for _ in range(5):
            shuffled = list(base) + [0, 0]
            rng.shuffle(shuffled)
            assert kostka(theta, shuffled) == value


def test_kostka_invariance_over_the_hook_suite_contents():
    """Every raw content of `suite_kostka`'s grid counts as its normalised content."""
    for raw in product(range(5), repeat=6):
        if (total := sum(raw)) > 9:
            continue
        c = _normalize_content(raw)
        for theta in partitions_of(total):
            assert kostka(theta, raw) == kostka(theta, c), (theta, raw)
        for theta in hooks_of(total):
            assert kostka_hook(theta, raw) == kostka_hook(theta, c), (theta, raw)


def test_kostka_matches_strip_oracle():
    for n in range(1, 7):
        for theta in partitions_of(n):
            for content in partitions_of(n):
                assert kostka(theta, content) == ssyt_count_oracle(theta, (), content)


def test_kostka_matrix_unitriangular():
    for n in range(1, 8):
        parts = partitions_of(n)
        km = kostka_matrix(n)
        for i, theta in enumerate(parts):
            assert km[theta][theta] == 1
            for j, lam in enumerate(parts):
                if i > j:
                    assert km[theta][lam] == 0


def test_kostka_matrix_matches_the_entrywise_oracle():
    for n in (*range(11), MAX_DEGREE):
        km, want = kostka_matrix(n), entrywise_kostka_matrix(n)
        assert km == want, n
        # Same canonical order of rows and of the entries in each row.
        assert [(theta, list(row)) for theta, row in km.items()] == [
            (theta, list(row)) for theta, row in want.items()], n


def count_strips_lookups(monkeypatch):
    """Route the kernel's `_strips` lookups through a counter; returns the counts."""
    counts = {"lookups": 0}

    def counted(*args):
        counts["lookups"] += 1
        return _strips(*args)

    monkeypatch.setattr(tableaux, "_strips", counted)
    return counts


def test_kostka_matrix_takes_one_strip_step_per_content_prefix(monkeypatch):
    # Each partition of m <= n is the prefix of some content of n, and one
    # step extends it: one lookup per shape in its parent prefix's layer.
    # Entrywise counting would take p(n)^2 chains instead.
    counts = count_strips_lookups(monkeypatch)
    total = 0
    try:
        for n in range(12):
            kostka_matrix.cache_clear()
            counts["lookups"] = 0
            kostka_matrix(n)
            assert counts["lookups"] == sum(
                len(per_content_strip_chain((n,) * n, (), prefix[:-1]))
                for m in range(1, n + 1) for prefix in partitions_of(m)), n
            total += counts["lookups"]
        assert total == 3987
    finally:
        # Drop the matrices built through the wrapper; later calls rebuild them.
        kostka_matrix.cache_clear()


def test_pieri_layers_step_each_distinct_prefix_once(monkeypatch):
    # Every outer with at most 4 rows and parts at most 4, every inner inside
    # it.  Each content set is unsorted, repeats a content and holds a proper
    # prefix of another (of a smaller size, or the empty content).
    counts = count_strips_lookups(monkeypatch)
    rng = random.Random(24)
    outers = [p for n in range(17) for p in partitions_of(n) if len(p) <= 4 and (not p or p[0] <= 4)]
    checked = 0
    for outer in outers:
        for m in range(sum(outer) + 1):
            for inner in partitions_of(m):
                if not contains(inner, outer):
                    continue
                fits = partitions_of(sum(outer) - m)
                picked = rng.sample(fits, min(6, len(fits)))
                contents = [*picked, picked[0], picked[-1][:-1]]
                rng.shuffle(contents)
                distinct = set(contents)
                prefixes = {c[:k] for c in distinct for k in range(1, len(c) + 1)}
                counts["lookups"] = 0
                walk = list(_pieri_layers(outer, inner, contents))
                assert counts["lookups"] == sum(
                    len(per_content_strip_chain(outer, inner, p[:-1])) for p in prefixes
                ), (outer, inner, contents)
                # Each distinct content once, in sorted order.
                assert [c for c, _ in walk] == sorted(distinct)
                got = dict(walk)
                for c in distinct:
                    assert got[c] == per_content_strip_chain(outer, inner, c), (outer, inner, c)
                checked += 1
    assert checked == 1764


def test_strips_match_the_definition_exhaustively():
    # Every outer with at most 4 rows and parts at most 4, every mu inside it
    # (padded to its rows), every size that fits.
    outers = [p for n in range(1, 17) for p in partitions_of(n) if len(p) <= 4 and p[0] <= 4]
    checked = 0
    for outer in outers:
        for mu in product(*(range(o + 1) for o in outer)):
            if list(mu) != sorted(mu, reverse=True):
                continue
            for size in range(sum(outer) - sum(mu) + 1):
                got = _strips(outer, mu, size)
                assert type(got) is tuple and all(type(nu) is tuple for nu in got)
                assert len(set(got)) == len(got), (outer, mu, size)
                assert set(got) == set(strips_by_definition(outer, mu, size)), (
                    outer, mu, size)
                checked += 1
    assert checked == 10197


def test_strips_are_enumerated_once_per_outer_mu_and_size():
    caches = (_strips, kostka_matrix)
    try:
        for cached in caches:
            cached.cache_clear()
        kostka_matrix(11)
        assert _strips.cache_info().misses == 227
        for cached in caches:
            cached.cache_clear()
        immanant_character((10, 8, 8), skew_shape((5,) * 6, (3, 1)))
        assert 0 < _strips.cache_info().misses <= 442
    finally:
        for cached in caches:
            cached.cache_clear()


def test_inverse_kostka_matrix():
    for n in (*range(1, 7), MAX_DEGREE):
        parts = partitions_of(n)
        km, inv = kostka_matrix(n), inverse_kostka_matrix(n)
        for a in parts:
            for b in parts:
                total = sum(km[a][t] * inv[t][b] for t in parts)
                assert total == (1 if a == b else 0)


def test_ssyt_count_matches_enumeration_exhaustively():
    # Every outer with at most 8 boxes, every inner inside it, every content
    # of the skew size, and every content one box smaller or larger, which
    # counts 0 with no size check in the kernel.
    checked = off_size = 0
    for n in range(9):
        for outer in partitions_of(n):
            for m in range(n + 1):
                for inner in partitions_of(m):
                    if not contains(inner, outer):
                        continue
                    for size in range(max(n - m - 1, 0), n - m + 2):
                        for content in partitions_of(size):
                            got = _ssyt_count(outer, inner, content)
                            assert got == ssyt_enumeration_oracle(outer, inner, content), (
                                outer, inner, content)
                            if size != n - m:
                                assert got == 0, (outer, inner, content)
                                off_size += 1
                            checked += 1
    assert (checked - off_size, off_size) == (4136, 8813)


SMALL_CONNECTED_SHAPES = [
    s for rows in range(1, 6) for size in range(rows, 11)
    for s in connected_skew_shapes(rows, size)
]


@st.composite
def shapes_with_contents(draw):
    """A connected skew shape, a content for it with zeros anywhere, and a reordering."""
    shape = draw(st.sampled_from(SMALL_CONNECTED_SHAPES))
    letters = draw(st.lists(st.integers(0, 7), min_size=shape.size, max_size=shape.size))
    content = [letters.count(v) for v in range(8)]
    return shape, content, draw(st.permutations(content))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(shapes_with_contents())
def test_skew_kostka_property_against_enumeration(case):
    shape, content, shuffled = case
    value = skew_kostka(shape, content)
    assert value == ssyt_enumeration_oracle(shape.outer, shape.inner, content)
    assert skew_kostka(shape, shuffled) == value


# ------------------------------------------------------------ hook kostka

def test_kostka_hook_golden():
    assert kostka_hook((6, 1, 1), (2, 2, 3, 1)) == 3
    assert kostka_hook((4,), (2, 1, 1)) == 1
    assert kostka_hook((2, 1, 1), (1, 1, 1, 1)) == 3


def test_kostka_hook_rejects_non_hooks():
    with pytest.raises(ValueError):
        kostka_hook((3, 2), (3, 2))


def test_kostka_hook_agrees_with_kostka():
    for total in range(0, 7):
        for theta in hooks_of(total):
            for content in product(range(4), repeat=4):
                if sum(content) == total:
                    assert kostka_hook(theta, content) == kostka(theta, content)


# ------------------------------------------------------- first-row lemma

def first_row_reduced(theta, content, c):
    """K((|a| - |bar|, bar), a) with a = min(content, c) entrywise and
    bar = theta[1:]; 0 when that first part would drop below theta_2."""
    bar = theta[1:]
    clipped = [min(x, c) for x in content]
    first = sum(clipped) - sum(bar)
    if first < (bar[0] if bar else 0):
        return 0
    return kostka((first, *bar), clipped)


def first_part_restored(content, c):
    """min(content, c) entrywise, sorted, with the boxes clipped off put back
    on its first part: the content `immanant_characters` reads."""
    clipped = sorted((min(x, c) for x in content), reverse=True)
    return [sum(content) - sum(clipped[1:]), *clipped[1:]]


def test_first_row_lemma_exhaustively():
    # K(theta, alpha) is K(theta - e_1, alpha - e_i) whenever alpha_i > theta_2,
    # so clipping the content at any c >= theta_2 only shortens row 1, and
    # putting the clipped boxes back on the first part lengthens it again.
    dropped = 0
    for total in range(13):
        matrix = kostka_matrix(total)
        for theta in partitions_of(total):
            least = theta[1] if len(theta) > 1 else 0
            for alpha in partitions_of(total):
                want = matrix[theta].get(alpha, 0)
                for c in range(least, max(least, alpha[0] if alpha else 0) + 1):
                    assert first_row_reduced(theta, alpha, c) == want, (theta, alpha, c)
                    assert kostka(theta, first_part_restored(alpha, c)) == want, (theta, alpha, c)
                    dropped += sum(min(x, c) for x in alpha) - sum(theta[1:]) < least
    assert dropped > 0  # the cases that count 0 are reached


@st.composite
def thetas_contents_and_clips(draw):
    """Two partitions of one size up to 20 and a clip c >= theta_2."""
    total = draw(st.integers(0, 20))
    theta, alpha = (draw(st.sampled_from(partitions_of(total))) for _ in range(2))
    least = theta[1] if len(theta) > 1 else 0
    return theta, draw(st.permutations(alpha)), draw(st.integers(least, least + 6))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(thetas_contents_and_clips())
def test_first_row_lemma_property(case):
    theta, content, c = case
    want = kostka(theta, content)
    assert first_row_reduced(theta, content, c) == want
    assert kostka(theta, first_part_restored(content, c)) == want


# ------------------------------------------------------------ skew kostka

def test_skew_kostka_empty_inner_is_kostka():
    for theta in partitions_of(5):
        for c in partitions_of(5):
            assert skew_kostka(skew_shape(theta), c) == kostka(theta, c)


def test_skew_kostka_golden():
    assert skew_kostka(skew_shape((2, 1), (1,)), (1, 1)) == 2
    assert skew_kostka(skew_shape((2, 2), (1,)), (2, 1)) == 1


def test_skew_kostka_matches_strip_oracle():
    shapes = [((3, 2), (1,)), ((3, 3, 1), (2, 1)), ((4, 2, 1), (2,)), ((2, 2, 2), (1, 1))]
    for outer, inner in shapes:
        size = sum(outer) - sum(inner)
        for content in partitions_of(size):
            got = skew_kostka(skew_shape(outer, inner), content)
            assert got == ssyt_count_oracle(outer, inner, content)


# ------------------------------------------------- Littlewood-Richardson

def test_lr_trivial_cases():
    for theta in partitions_of(5):
        assert lr_coefficient(theta, (), theta) == 1
        assert lr_coefficient(theta, theta, ()) == 1
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    assert lr_coefficient((2, 2), (2,), (1, 1)) == 0  # reading word leaves the lattice


def test_lr_zero_without_containment():
    assert lr_coefficient((2, 2), (3,), (1,)) == 0
    assert lr_coefficient((3, 1), (1,), (1,)) == 0  # size mismatch


def test_lr_pieri_rule():
    # s_lam * s_(k) expands with coefficient 1 over horizontal-strip extensions.
    for lam in partitions_of(3):
        for k in range(1, 4):
            for theta in partitions_of(3 + k):
                expected = 1 if lam in horizontal_strips(theta, k) and contains(lam, theta) else 0
                assert lr_coefficient(theta, lam, (k,)) == expected


def test_skew_kostka_lr_identity():
    # Skew counts expand over LR coefficients against straight counts.
    for n in range(2, 8):
        for theta in partitions_of(n):
            for m in range(0, n + 1):
                for lam in partitions_of(m):
                    if not contains(lam, theta):
                        continue
                    shape = skew_shape(theta, lam)
                    for c in partitions_of(n - m):
                        direct = skew_kostka(shape, c)
                        expanded = sum(
                            lr_coefficient(theta, lam, sigma) * kostka(sigma, c)
                            for sigma in partitions_of(n - m)
                        )
                        assert direct == expanded, (theta, lam, c)


def test_kostka_split_identity():
    # Splitting the content factors through all intermediate sub-shapes.
    rng = random.Random(11)
    for n in range(2, 8):
        for theta in partitions_of(n):
            for _ in range(3):
                k = rng.randint(1, 3)
                c = [rng.randint(0, 3) for _ in range(k + rng.randint(1, 3))]
                if sum(c) != n:
                    continue
                left, right = c[:k], c[k:]
                m = sum(left)
                total = sum(
                    kostka(lam, left) * skew_kostka(skew_shape(theta, lam), right)
                    for lam in partitions_of(m)
                    if contains(lam, theta)
                )
                assert total == kostka(theta, c), (theta, c, k)


def test_lr_positive_implies_containment():
    for theta in partitions_of(6):
        for m in range(7):
            for lam in partitions_of(m):
                for sigma in partitions_of(6 - m):
                    if lr_coefficient(theta, lam, sigma) > 0:
                        assert contains(lam, theta)


def test_lr_row_matches_the_content_search_exhaustively():
    # Every theta of size <= 10, every lam inside it and every sigma of the
    # difference: one walk per (theta, lam) gives each sigma's coefficient.
    checked = 0
    for n in range(11):
        for theta in partitions_of(n):
            for m in range(n + 1):
                for lam in partitions_of(m):
                    if not contains(lam, theta):
                        continue
                    row = _lr_row(theta, lam)
                    assert all(sum(sigma) == n - m and sigma == check_partition(sigma)
                               for sigma in row), (theta, lam)
                    assert all(c > 0 for c in row.values()), (theta, lam)
                    for sigma in partitions_of(n - m):
                        expected = lr_by_content(theta, lam, sigma)
                        assert row.get(sigma, 0) == expected, (theta, lam, sigma)
                        assert lr_coefficient(theta, lam, sigma) == expected, (theta, lam, sigma)
                        checked += 1
    assert checked == 20890


@st.composite
def skew_pairs(draw):
    """A partition theta of size up to 14 and a partition lam inside it."""
    theta = draw(st.sampled_from(partitions_of(draw(st.integers(0, 14)))))
    inside = [lam for m in range(sum(theta) + 1) for lam in partitions_of(m) if contains(lam, theta)]
    return theta, draw(st.sampled_from(inside))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(skew_pairs())
def test_lr_row_property_against_the_content_search(case):
    theta, lam = case
    row = _lr_row(theta, lam)
    for sigma in partitions_of(sum(theta) - sum(lam)):
        assert row.get(sigma, 0) == lr_by_content(theta, lam, sigma), (theta, lam, sigma)
    assert 0 not in row.values()


def count_lr_rows(monkeypatch, module):
    """Wrap `_lr_row` where `module` reads it; the list collects each call's arguments."""
    calls = []

    def counted(theta, lam):
        calls.append((theta, lam))
        return _lr_row(theta, lam)

    monkeypatch.setattr(module, "_lr_row", counted)
    return calls


def test_lr_coefficient_refuses_without_walking(monkeypatch):
    calls = count_lr_rows(monkeypatch, tableaux)
    assert lr_coefficient((2, 2), (3,), (1,)) == 0  # lam not inside theta
    assert lr_coefficient((3, 1), (1,), (1,)) == 0  # size mismatch
    assert calls == []
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert calls == [((3, 2, 1), (2, 1))]


def test_skew_schur_walks_once(monkeypatch):
    calls = count_lr_rows(monkeypatch, symfunc)
    shape = skew_shape((5, 4, 3, 2, 1), (3, 1))
    got = skew_schur(shape)
    assert calls == [(shape.outer, shape.inner)]
    for sigma in partitions_of(shape.size):
        assert got.coeffs.get(sigma, 0) == lr_by_content(shape.outer, shape.inner, sigma)


def test_component_product_walks_once_per_sigma_and_lam(monkeypatch):
    # (5,4,2,1)/(3,2): components (3,2)/(1) and (2,1) after re-basing.  The top
    # split has sigma = theta only, so one walk per lam |- 4 inside theta.
    shape = skew_shape((5, 4, 2, 1), (3, 2))
    calls = count_lr_rows(monkeypatch, reductions)
    direct = immanant_characters(shape)
    for theta in partitions_of(7):
        calls.clear()
        assert immanant_character_from_components(theta, shape) == direct[theta], theta
        assert calls == [(theta, lam) for lam in partitions_of(4) if contains(lam, theta)], theta


# ------------------------------------------------------------ skew shapes

def test_skew_shape_validation():
    with pytest.raises(ValueError):
        skew_shape((2, 1), (3,))
    with pytest.raises(ValueError):
        skew_shape((3, 2, 1), (), rows=2)
    s = skew_shape((3, 2, 2, 1, 1))
    assert s.rows == 5 and s.size == 9 and s.length == 5


def test_skew_shape_properties():
    s = skew_shape((5, 4, 2, 2, 1), (3, 2, 2))
    assert s.size == 7
    assert s.has_empty_rows  # third row
    assert not s.is_connected
    assert s.row_width(3) == 0 and s.row_width(1) == 2
    padded = skew_shape((2, 1), (), rows=4)
    assert padded.rows == 4 and padded.length == 2 and padded.has_empty_rows


def test_skew_shape_json_roundtrip():
    s = skew_shape((3, 3, 3, 1), (1, 1), rows=5)
    blob = json.dumps(s.to_json())
    assert SkewShape.from_json(json.loads(blob)) == s


@pytest.mark.parametrize("blob", [
    {"outer": [2.0, True], "rows": 2.0},
    {"outer": [2.0, 1]},
    {"outer": [2, 1], "inner": [True]},
    {"outer": [2, 1], "rows": 2.0},
    {"outer": [2, 1], "rows": False},
])
def test_skew_shape_from_json_refuses_float_and_bool_parts(blob):
    with pytest.raises(ValueError, match="not an integer"):
        SkewShape.from_json(blob)


@pytest.mark.parametrize("blob, value", [
    ({"outer": 5}, "5"),
    ({"outer": None}, "None"),
    ({"outer": "21"}, "'21'"),
    ({"outer": [2, 1], "inner": 1}, "1"),
])
def test_skew_shape_from_json_refuses_a_value_that_is_not_a_list(blob, value):
    with pytest.raises(ValueError, match=f"not a list: {value}"):
        SkewShape.from_json(blob)


def test_skew_shape_from_json_refuses_a_blob_that_is_not_an_object():
    with pytest.raises(ValueError, match=r"not an object: \[2, 1\]"):
        SkewShape.from_json([2, 1])


def test_partition_from_key_refuses_float_and_bool_parts():
    assert partition_from_key("[2,1,0]") == (2, 1)
    for key in ("[2.0,true]", "[2,1.0]", "[true]"):
        with pytest.raises(ValueError, match="not an integer"):
            partition_from_key(key)
    # Valid JSON that is not a list.
    for key, value in (("5", "5"), ("null", "None"), ('"21"', "'21'"), ('{"2": 1}', "{'2': 1}")):
        with pytest.raises(ValueError, match=f"not a list: {re.escape(value)}"):
            partition_from_key(key)


def test_skew_shape_refuses_a_non_integral_row_count():
    assert skew_shape((2, 1), (), 3.0).rows == 3
    with pytest.raises(ValueError, match="not an integer: 2.5"):
        skew_shape((2, 1), (), 2.5)
    with pytest.raises(ValueError, match="not an integer: 2.5"):
        SkewShape.from_json({"outer": [2, 1], "rows": 2.5})


def test_empty_shape():
    s = skew_shape((), (), 0)
    assert s.size == 0 and s.rows == 0 and s.length == 0
    s2 = skew_shape((2, 2), (2, 2))
    assert s2.rows == 0 and s2.outer == ()


# ------------------------------------------------- connected enumeration

def test_connected_shapes_small_counts():
    assert {(s.outer, s.inner) for s in connected_skew_shapes(2, 3)} == {
        ((2, 1), ()),
        ((2, 2), (1,)),
    }
    assert [s.outer for s in connected_skew_shapes(1, 4)] == [(4,)]


def test_connected_shapes_are_valid_and_unique():
    seen = set()
    for n in range(1, 5):
        for size in range(n, 8):
            for s in connected_skew_shapes(n, size):
                assert s.rows == n and s.size == size
                assert s.is_connected and not s.has_empty_rows
                mu, nu = s.padded()
                assert nu[-1] == 0  # canonical position
                key = (s.outer, s.inner, s.rows)
                assert key not in seen
                seen.add(key)
