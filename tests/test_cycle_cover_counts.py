"""The cycle-cover counts against a row-by-row walk, a subset DP and brute-force sums over S_n.

`immanant_characters` (and through it `immanant_character`),
`stanley_stembridge_character` and `immanant` all read `cycle_cover_counts`,
a sweep over columns that grows path fragments into cycles.
`cycle_cover_walk` counts the same table with one leaf per admissible
permutation, `subset_dp_counts` with a dynamic program over vertex sets
that reaches 12-14 rows where the walk cannot; the other oracles
enumerate `symmetric_group`.
"""

import importlib
import math
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immanants import (
    ClassFunction,
    NotHessenbergError,
    connected_skew_shapes,
    content_vector,
    cycle_type,
    hess_prime,
    hessenberg,
    hessenberg_from_skew,
    hooks_of,
    immanant,
    immanant_character,
    immanant_characters,
    jt_matrix,
    kostka,
    partitions_of,
    skew_shape,
    stanley_stembridge_character,
    sym_func,
    symmetric_group,
    zee,
)
from immanants.jacobitrudi import _multiset, cycle_cover_counts

CONNECTED = [
    shape
    for n in range(1, 6)
    for size in range(n, 9)
    for shape in connected_skew_shapes(n, size)
]
PADDED = [skew_shape(s.outer, s.inner, s.rows + 1) for s in CONNECTED]
# The disconnected and empty-row goldens of verify.suite_reductions.
DISCONNECTED = [
    skew_shape((5, 4, 2, 2, 1), (3, 2, 2)),
    skew_shape((5, 4, 2, 1), (3, 2)),
    skew_shape((5, 4, 3, 2), (3, 3, 1)),
    skew_shape((3, 2, 1), (2,)),
    skew_shape((3, 2, 1), (1, 1)),
    skew_shape((4, 2, 2), (2, 1)),
    skew_shape((4, 4, 2), (3, 2)),
    skew_shape((3, 2, 1, 1), (1, 1)),
    skew_shape((3, 3, 2, 1), (2, 2)),
]
FAMILIES = {"connected": CONNECTED, "padded": PADDED, "disconnected": DISCONNECTED}


def cycle_cover_walk(sub):
    """N[rho][alpha] by a walk that places one column per row of the square
    grid `sub` and prunes any branch that hits a negative subscript."""
    n = len(sub)
    counts = {}
    used = [False] * n
    choice = [0] * n
    picked = [0] * n

    def place(i):
        if i == n:
            alpha = tuple(sorted((x for x in picked if x > 0), reverse=True))
            by_alpha = counts.setdefault(cycle_type(tuple(choice)), {})
            by_alpha[alpha] = by_alpha.get(alpha, 0) + 1
            return
        row = sub[i]
        for j in range(n):
            if not used[j] and row[j] >= 0:
                used[j] = True
                choice[i] = j + 1
                picked[i] = row[j]
                place(i + 1)
                used[j] = False

    place(0)
    return counts


def clipped(sub):
    """The grid clipped at 1, the one hook thetas are counted on."""
    return [[min(x, 1) for x in row] for row in sub]


def subset_dp_counts(sub):
    """N[rho][alpha] by a dynamic program over vertex sets of the square grid `sub`.

    Partial covers (vertex sets covered by disjoint cycles) wait in layers
    by their least uncovered vertex m, and grow by the cycle through m: a
    path into m over larger uncovered vertices, grown backwards from m and
    merged into its next layer once an edge from m closes it.  Codes as in
    `cycle_cover_counts`: digit k - 1 counts cycles of length k, digit
    n - 1 + x subscripts x.
    """
    n = len(sub)
    width = n.bit_length()
    into = [
        [(r, 1 << r, x and 1 << width * (n - 1 + x)) for r, x in enumerate(column) if x >= 0]
        for column in zip(*sub)
    ]
    layers = [{} for _ in range(n + 1)]
    layers[0][0] = {0: 1}
    for m in range(n):
        paths = {(used | 1 << m, m): terms for used, terms in layers[m].items()}
        cycle = 1
        while paths:
            longer = {}
            for (used, u), terms in paths.items():
                for r, bit, e in into[u]:
                    if r == m:
                        e += cycle
                        bucket, key = layers[(~used & (used + 1)).bit_length() - 1], used
                    elif used & bit:
                        continue
                    else:
                        bucket, key = longer, (used | bit, r)
                    target = bucket.setdefault(key, {})
                    for code, count in terms.items():
                        target[code + e] = target.get(code + e, 0) + count
            paths = longer
            cycle <<= width
    counts = {}
    low = (1 << width * n) - 1
    for code, count in layers[n].get((1 << n) - 1, {}).items():
        alpha = _multiset(code >> width * n, width)
        counts.setdefault(_multiset(code & low, width), {})[alpha] = count
    return counts


def oracle_immanant_character(shape):
    """Every theta's class-by-class sum of Kostka numbers over S_n.

    A content with a negative entry (a zero matrix entry) weighs 0; the
    others are grouped up to order, under which Kostka numbers are invariant.
    """
    n = shape.rows
    contents = Counter()
    for w in symmetric_group(n):
        content = content_vector(shape, w)
        if min(content, default=0) >= 0:
            contents[cycle_type(w), tuple(sorted(content))] += 1
    out = {}
    for theta in partitions_of(shape.size):
        k = {c: kostka(theta, c) for _, c in contents}
        by_class = dict.fromkeys(partitions_of(n), 0)
        for (rho, content), count in contents.items():
            by_class[rho] += count * k[content]
        out[theta] = ClassFunction(n, {rho: zee(rho) * v for rho, v in by_class.items()})
    return out


def leibniz_immanant(chi, shape):
    """Sum of chi(w) * product of the matrix entries along w, over all of S_n."""
    n = shape.rows
    sub = jt_matrix(shape).sub
    coeffs = Counter()
    for w in symmetric_group(n):
        entries = [sub[i][w[i] - 1] for i in range(n)]
        if all(e >= 0 for e in entries):
            coeffs[tuple(sorted((e for e in entries if e > 0), reverse=True))] += chi.values[
                cycle_type(w)
            ]
    return sym_func("h", shape.size, coeffs)


@pytest.mark.parametrize("family", ["connected", "padded", "disconnected"])
def test_immanant_character_matches_class_sums(family):
    for shape in FAMILIES[family]:
        for theta, want in oracle_immanant_character(shape).items():
            assert immanant_character(theta, shape) == want, (shape, theta)


@pytest.mark.parametrize("family", ["connected", "padded", "disconnected"])
def test_immanant_characters_match_class_sums(family):
    for shape in FAMILIES[family]:
        got = immanant_characters(shape)
        assert list(got) == list(partitions_of(shape.size)), shape
        assert got == oracle_immanant_character(shape), shape


@pytest.mark.parametrize("family", ["connected", "padded", "disconnected"])
def test_cycle_cover_counts_match_the_walk(family):
    for shape in FAMILIES[family]:
        sub = jt_matrix(shape).sub
        assert cycle_cover_counts(sub) == cycle_cover_walk(sub), shape
        assert cycle_cover_counts(clipped(sub)) == cycle_cover_walk(clipped(sub)), shape
    assert cycle_cover_counts(()) == cycle_cover_walk(()) == {(): {(): 1}}


@st.composite
def square_grids(draw):
    n = draw(st.integers(0, 7))
    entry = st.sampled_from((-1, 0, 1, 2, 3))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=600, derandomize=True, deadline=None)
@given(square_grids())
def test_cycle_cover_counts_match_the_walk_on_any_support(sub):
    # Not only Hessenberg supports: stanley_stembridge_character's 0/-1
    # grids and clipped grids reach the kernel too.
    assert cycle_cover_counts(sub) == cycle_cover_walk(sub)


@pytest.mark.parametrize(
    "sub",
    [
        clipped(jt_matrix(skew_shape((12,) * 12)).sub),
        clipped(jt_matrix(skew_shape((3,) * 14, (1,))).sub),
        jt_matrix(skew_shape((4,) * 10)).sub,
    ],
    ids=["clipped 12^12", "clipped 3^14/1", "raw 4^10"],
)
def test_cycle_cover_counts_match_the_subset_dp(sub):
    # 10-14 rows, beyond the walk.
    assert cycle_cover_counts(sub) == subset_dp_counts(sub)


@st.composite
def hessenberg_grids(draw):
    """A random Hessenberg support in Jacobi-Trudi orientation (row i, column j
    present when i <= h(j)) with random subscripts 0-3 on it."""
    n = draw(st.integers(8, 9))
    h = sorted(draw(st.lists(st.integers(1, n), min_size=n, max_size=n)))
    h = [max(v, j) for j, v in enumerate(h, start=1)]
    entry = st.integers(0, 3)
    return [[draw(entry) if i <= v else -1 for v in h] for i in range(1, n + 1)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(hessenberg_grids())
def test_cycle_cover_counts_match_the_subset_dp_on_hessenberg_supports(sub):
    assert cycle_cover_counts(sub) == subset_dp_counts(sub)


def test_immanant_characters_of_zero_box_shapes():
    # theta = () is a hook, but C(l - 1, 0) is undefined at l = 0.
    two = {(): {(2,): 0, (1, 1): 2}}
    three = {(): {(3,): 0, (2, 1): 0, (1, 1, 1): 6}}
    for shape, want in ((skew_shape((1,), (1,), 2), two), (skew_shape((), (), 3), three)):
        for thetas in (None, [()]):
            got = immanant_characters(shape, thetas)
            assert {t: g.values for t, g in got.items()} == want, shape


def test_immanant_characters_agree_with_one_theta_at_a_time():
    for shape in CONNECTED + DISCONNECTED:
        every = immanant_characters(shape)
        for theta, gamma in every.items():
            assert immanant_character(theta, shape) == gamma, (shape, theta)
        hooks = hooks_of(shape.size)
        assert immanant_characters(shape, hooks) == {t: every[t] for t in hooks}, shape
        # Thetas are validated and normalized like immanant_character's.
        top = (shape.size,)
        assert immanant_characters(shape, [[shape.size, 0]]) == {top: every[top]}, shape
    assert immanant_characters(skew_shape((2, 1)), []) == {}


def test_immanant_characters_reject_a_theta_of_the_wrong_size(monkeypatch):
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    message = "theta has size 9 but the shape has 8 boxes"
    with pytest.raises(ValueError, match=message):
        immanant_character((9,), shape)

    def walk(sub):
        raise AssertionError("walked before every theta was checked")

    # The package exports the function under its module's name, so fetch the module.
    module = importlib.import_module("immanants.immanant_characters")
    monkeypatch.setattr(module, "cycle_cover_counts", walk)
    with pytest.raises(ValueError, match=message):
        immanant_characters(shape, [(8,), (6, 1, 1), (9,)])
    with pytest.raises(ValueError, match="not weakly decreasing"):
        immanant_characters(shape, [(8,), (1, 7)])


def test_immanant_matches_leibniz_sum():
    rng = random.Random(20230411)
    for shape in [skew_shape((), (), 0)] + CONNECTED + PADDED + DISCONNECTED:
        n = shape.rows
        chi = ClassFunction(n, {rho: rng.randint(-5, 5) for rho in partitions_of(n)})
        assert immanant(chi, shape).coeffs == leibniz_immanant(chi, shape).coeffs, shape


def test_cycle_cover_counts_partition_the_admissible_permutations():
    sub = jt_matrix(skew_shape((3, 3, 3, 1), (1, 1))).sub
    counts = cycle_cover_counts(sub)
    admissible = [
        w for w in symmetric_group(4) if all(sub[i][w[i] - 1] >= 0 for i in range(4))
    ]
    assert sum(c for by_alpha in counts.values() for c in by_alpha.values()) == len(admissible)
    assert all(sum(alpha) == 8 for by_alpha in counts.values() for alpha in by_alpha)
    assert cycle_cover_counts(()) == {(): {(): 1}}


def test_stanley_stembridge_matches_admissible_counts():
    for n in range(0, 6):
        for values in product(range(1, n + 1), repeat=n):
            try:
                h = hessenberg(values)
            except NotHessenbergError:
                continue
            by_class = Counter(cycle_type(w) for w in symmetric_group(n) if h.admits(w))
            want = {rho: zee(rho) * by_class[rho] for rho in partitions_of(n)}
            assert stanley_stembridge_character(h).values == want, values


def test_stanley_stembridge_of_the_staircase_at_12_rows():
    # Under h = (2, 3, ..., 12, 12) the admissible permutations are one cycle
    # i -> i + 1 -> ... -> j -> i per block of a composition of 12, so the
    # class rho holds l(rho)! / prod m_i(rho)! of them.  No walk reaches 12 rows.
    h = hessenberg(tuple(range(2, 13)) + (12,))
    for rho, value in stanley_stembridge_character(h).values.items():
        orderings = math.factorial(len(rho))
        for part in set(rho):
            orderings //= math.factorial(rho.count(part))
        assert value == zee(rho) * orderings, rho


def test_stanley_stembridge_of_the_full_pattern_at_15_rows():
    # h = (15, ..., 15) admits every permutation, so each class reads
    # zee(rho) * |class| = 15!.  Neither oracle reaches 15 rows.
    values = stanley_stembridge_character(hessenberg((15,) * 15)).values
    assert len(values) == 176
    assert set(values.values()) == {math.factorial(15)}


def test_hessenberg_patterns_match_the_subscript_grid():
    for shape in CONNECTED + PADDED + DISCONNECTED:
        sub = jt_matrix(shape).sub
        for least, pattern in ((0, hessenberg_from_skew), (1, hess_prime)):
            want = [sum(1 for row in sub if row[j] >= least) for j in range(shape.rows)]
            if any(v < j for j, v in enumerate(want, start=1)):
                with pytest.raises(NotHessenbergError):
                    pattern(shape)
            else:
                assert list(pattern(shape).values) == want, (shape, least)
