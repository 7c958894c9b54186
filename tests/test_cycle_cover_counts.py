"""The cycle-cover counts against a row-by-row walk, a subset DP and brute-force sums over S_n.

`immanant_characters` (and through it `immanant_character`),
`stanley_stembridge_character` and `immanant` all read `cycle_cover_counts`,
a sweep over columns that grows path fragments into cycles.
`cycle_cover_walk` counts the same table with one leaf per admissible
permutation, `subset_dp_counts` with a dynamic program over vertex sets
that reaches 12-14 rows where the walk cannot; the other oracles
enumerate `symmetric_group`.  `raw_grid_immanant_characters` and
`per_alpha_immanant_characters` are the immanant characters before the clip
and before the one Pieri walk over every content, and `jt_clip_oracle` is
`_clip` read off the validated `jt_matrix` rather than the beta-numbers.
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
from immanants.immanant_characters import _clip, _grid_characters, _up_to_half_turn
from immanants.jacobitrudi import _multiset, cycle_cover_counts
from immanants.tableaux import _ssyt_count

CONNECTED = [
    shape
    for n in range(1, 6)
    for size in range(n, 9)
    for shape in connected_skew_shapes(n, size)
]
PADDED = [skew_shape(s.outer, s.inner, s.rows + 1) for s in CONNECTED]
CONNECTED_9 = [
    shape
    for n in range(1, 6)
    for size in range(n, 10)
    for shape in connected_skew_shapes(n, size)
]
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


def clipped(sub, c):
    """The grid clipped at c, negative subscripts kept as they are."""
    return [[min(x, c) for x in row] for row in sub]


def jt_clip_oracle(shape, c):
    """`_clip` by way of the shape's `JTMatrix`: its subscripts, -1 below 0, capped at c."""
    return tuple(tuple([-1 if x < 0 else x if x < c else c for x in row]) for row in jt_matrix(shape).sub)


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


def raw_grid_immanant_characters(shape, thetas=None):
    """zee(rho) * sum of N[rho][alpha] * K(theta, alpha) over the raw grid's contents.

    The per-content kernel that `immanant_characters` ran before it
    clipped the grid at theta_2: every alpha is a partition of the size.
    """
    counts = cycle_cover_counts(jt_matrix(shape).sub)
    out = {}
    for theta in partitions_of(shape.size) if thetas is None else thetas:
        values = {}
        for rho in partitions_of(shape.rows):
            by_alpha = counts.get(rho, {}).items()
            values[rho] = zee(rho) * sum(n * kostka(theta, alpha) for alpha, n in by_alpha)
        out[theta] = ClassFunction(shape.rows, values)
    return out


def per_alpha_immanant_characters(shape, thetas=None):
    """zee(rho) * sum of N[rho][alpha] * K(theta, alpha), one `_ssyt_count` walk per (theta, alpha).

    The read-out that `immanant_characters` made before one Pieri walk served
    every alpha: the same grid, clipped at the largest theta_2 asked for, with
    the boxes clipped off each alpha back on its first part.
    """
    thetas = partitions_of(shape.size) if thetas is None else thetas
    c = max((theta[1] for theta in thetas if len(theta) > 1), default=0)
    counts = cycle_cover_counts(_clip(shape, c))
    n = shape.size
    classes = []
    for rho in partitions_of(shape.rows):
        whole = [((n - sum(a[1:]), *a[1:]) if n else a, m) for a, m in counts.get(rho, {}).items()]
        classes.append((rho, zee(rho), whole))
    out = {}
    for theta in thetas:
        values = {r: z * sum(m * _ssyt_count(theta, (), a) for a, m in ms) for r, z, ms in classes}
        out[theta] = ClassFunction(shape.rows, values)
    return out


def by_theta2(thetas):
    """The thetas grouped by theta_2, so each group clips at its own theta_2."""
    groups = {}
    for theta in thetas:
        groups.setdefault(theta[1:2], []).append(theta)
    return groups.values()


@pytest.fixture(scope="module")
def raw_grid_gammas():
    return {shape: raw_grid_immanant_characters(shape) for shape in CONNECTED_9}


def test_clipped_kernel_matches_the_raw_grid(raw_grid_gammas):
    # All thetas at once clip at the largest theta_2, each group at its own.
    for shape, want in raw_grid_gammas.items():
        assert immanant_characters(shape) == want, shape
        for group in by_theta2(want):
            assert immanant_characters(shape, group) == {t: want[t] for t in group}, shape


def test_a_clip_one_below_theta2_fails(monkeypatch, raw_grid_gammas):
    module = importlib.import_module("immanants.immanant_characters")
    real_clip = module._clip
    monkeypatch.setattr(module, "_clip", lambda shape, c: real_clip(shape, c - 1))
    broken = [shape for shape, want in raw_grid_gammas.items() if immanant_characters(shape) != want]
    assert (len(broken), len(raw_grid_gammas)) == (446, 811)
    # Clipped at its own theta_2 - 1, some group of every shape goes wrong.
    for shape, want in raw_grid_gammas.items():
        assert any(
            immanant_characters(shape, group) != {t: want[t] for t in group}
            for group in by_theta2(want)
        ), shape


@st.composite
def seven_row_shapes_and_thetas(draw):
    """A skew shape with 7 rows (some maybe empty) and up to 3 thetas of its size."""
    outer = sorted(draw(st.lists(st.integers(0, 4), min_size=7, max_size=7)), reverse=True)
    inner = []
    for part in outer:
        inner.append(draw(st.integers(0, min([part] + inner[-1:]))))
    shape = skew_shape(outer, inner, 7)
    thetas = draw(st.lists(st.sampled_from(partitions_of(shape.size)), min_size=1, max_size=3))
    return shape, list(dict.fromkeys(thetas))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seven_row_shapes_and_thetas())
def test_clipped_kernel_matches_the_raw_grid_at_7_rows(case):
    shape, thetas = case
    want = raw_grid_immanant_characters(shape, thetas)
    assert immanant_characters(shape, thetas) == want
    for group in by_theta2(thetas):
        assert immanant_characters(shape, group) == {t: want[t] for t in group}


def assert_one_walk_matches_the_per_alpha_read_out(shape, thetas):
    """All thetas at once, and each theta_2 group on its own clip, against the oracle."""
    want = per_alpha_immanant_characters(shape, thetas)
    assert immanant_characters(shape, thetas) == want, shape
    for group in by_theta2(thetas):
        assert immanant_characters(shape, group) == {t: want[t] for t in group}, (shape, group)


def test_one_pieri_walk_matches_the_per_alpha_read_out():
    for shape in CONNECTED_9:
        assert_one_walk_matches_the_per_alpha_read_out(shape, partitions_of(shape.size))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seven_row_shapes_and_thetas())
def test_one_pieri_walk_matches_the_per_alpha_read_out_at_7_rows(case):
    assert_one_walk_matches_the_per_alpha_read_out(*case)


def test_an_outer_one_box_short_in_row_2_fails(monkeypatch):
    module = importlib.import_module("immanants.immanant_characters")
    real_walk = module._pieri_layers

    def short(outer, inner, contents):
        if len(outer) > 1 and outer[1]:
            outer = (outer[0], outer[1] - 1, *outer[2:])
        return real_walk(outer, inner, contents)

    monkeypatch.setattr(module, "_pieri_layers", short)
    shapes = groups = 0
    for shape in CONNECTED_9:
        want = per_alpha_immanant_characters(shape)
        # All thetas at once lose those whose theta_2 is outer's row 2, each
        # theta_2 > 0 group all of its thetas: a shape or group fails iff one is non-zero.
        top = max((t[1] for t in want if 1 < len(t) <= shape.rows), default=None)
        lost = any(any(want[t].values.values()) for t in want if t[1:2] == (top,))
        assert (immanant_characters(shape) != want) == lost, shape
        shapes += lost
        for group in by_theta2(want):
            if group[0][1:2] > (0,):
                lost = any(any(want[t].values.values()) for t in group)
                assert (immanant_characters(shape, group) != {t: want[t] for t in group}) == lost
                groups += lost
    assert (shapes, groups) == (722, 2895)


@pytest.mark.parametrize("family", ["connected", "padded", "disconnected"])
def test_cycle_cover_counts_match_the_walk(family):
    for shape in FAMILIES[family]:
        sub = jt_matrix(shape).sub
        assert cycle_cover_counts(sub) == cycle_cover_walk(sub), shape
        assert cycle_cover_counts(clipped(sub, 1)) == cycle_cover_walk(clipped(sub, 1)), shape
    assert cycle_cover_counts(()) == cycle_cover_walk(()) == {(): {(): 1}}


@pytest.mark.parametrize("c", range(4))
def test_clip_counts_as_the_grid_clipped_at_c(c):
    # `_clip` also sends every negative subscript to -1, which only
    # merges names of fragment starts, and lets shapes share a grid.
    grids = set()
    for shape in CONNECTED_9:
        sub = jt_matrix(shape).sub
        grid = _clip(shape, c)
        assert cycle_cover_counts(grid) == cycle_cover_counts(clipped(sub, c)), shape
        grids.add(grid)
    if c == 1:
        assert len(grids) == 37


@pytest.mark.parametrize("family", ["connected", "padded"])
def test_clip_reads_the_jacobi_trudi_subscripts(family):
    shapes = {"connected": CONNECTED_9, "padded": PADDED + [skew_shape((), (), 3), skew_shape((2, 2), (), 5)]}
    for shape in shapes[family]:
        for c in {0, 1, 2, shape.size // 2, shape.size}:
            assert _clip(shape, c) == jt_clip_oracle(shape, c), (shape, c)


@st.composite
def square_grids(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    entry = st.sampled_from((-1, 0, 1, 2, 3))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=600, derandomize=True, deadline=None)
@given(square_grids())
def test_cycle_cover_counts_match_the_walk_on_any_support(sub):
    # Not only Hessenberg supports: stanley_stembridge_character's 0/-1
    # grids and clipped grids reach the kernel too.
    assert cycle_cover_counts(sub) == cycle_cover_walk(sub)


def antitranspose(sub):
    """sub'[i][j] = sub[n-1-j][n-1-i]: the grid of the shape turned 180 degrees."""
    n = len(sub)
    return tuple(tuple(sub[n - 1 - j][n - 1 - i] for j in range(n)) for i in range(n))


def half_turn(shape):
    """The skew diagram turned 180 degrees inside its first row's width."""
    mu, nu = shape.padded()
    width = mu[0]
    return skew_shape([width - x for x in reversed(nu)], [width - x for x in reversed(mu)], shape.rows)


def test_a_half_turn_antitransposes_the_grid_and_keeps_the_counts():
    # w -> r w^-1 r (r the reversal) maps the cycle covers of a grid onto those
    # of its anti-transpose with the same cycle type and subscripts.
    grids = symmetric = 0
    for shape in CONNECTED_9:
        sub, turned = jt_matrix(shape).sub, jt_matrix(half_turn(shape)).sub
        assert turned == antitranspose(sub), shape
        for c in range(shape.size // 2 + 1):
            grid = _clip(shape, c)
            assert _clip(half_turn(shape), c) == antitranspose(grid)
            assert cycle_cover_counts(grid) == cycle_cover_counts(antitranspose(grid)), (shape, c)
            grids += 1
            symmetric += grid == antitranspose(grid)
    assert 0 < symmetric < grids  # both kinds of grid occur


@settings(max_examples=300, derandomize=True, deadline=None)
@given(square_grids(max_n=6))
def test_cycle_cover_counts_are_invariant_under_antitransposition(sub):
    assert cycle_cover_counts(sub) == cycle_cover_counts(antitranspose(sub))


def test_a_half_turn_keeps_the_immanant_characters():
    turned = 0
    for shape in CONNECTED_9:
        other = half_turn(shape)
        assert immanant_characters(shape) == immanant_characters(other), shape
        turned += jt_matrix(other).sub != jt_matrix(shape).sub
    assert turned == 740  # the other 71 of the 811 shapes are their own half turn


def test_the_grid_kernel_needs_no_shape():
    # The anti-transpose stands for a grid that this shape never builds: the
    # kernel gets only the clipped grid and the size.  Clipped at size // 2,
    # a grid serves every theta; clipped at 1, every hook.
    for shape in CONNECTED_9:
        want = immanant_characters(shape)
        grid = _clip(shape, shape.size // 2)
        assert _up_to_half_turn(grid) == min(grid, antitranspose(grid))
        for turned in (grid, antitranspose(grid)):
            assert _grid_characters(turned, shape.size, list(want)) == want, shape
        hooks = hooks_of(shape.size)
        got = _grid_characters(_clip(shape, 1), shape.size, hooks)
        assert got == {theta: want[theta] for theta in hooks}, shape


def test_hook_gammas_read_only_the_grid_clipped_at_1_and_the_leg():
    # The clip lemma at c = 1: gamma at the hook (N - k, 1^k) of a shape with N >= rows
    # boxes depends on its grid clipped at 1 and on k, not on N, so the hook suite makes
    # one kernel call per grid for every size that shares it.
    legs, sizes = {}, {}
    for shape in CONNECTED_9:
        grid = _clip(shape, 1)
        gammas = list(_grid_characters(grid, shape.size, hooks_of(shape.size)[: shape.rows]).values())
        assert legs.setdefault(grid, gammas) == gammas, shape
        sizes.setdefault(grid, set()).add(shape.size)
    assert len(legs) == 37 and sum(len(s) > 1 for s in sizes.values()) == 26


@pytest.mark.parametrize(
    "sub",
    [
        clipped(jt_matrix(skew_shape((12,) * 12)).sub, 1),
        clipped(jt_matrix(skew_shape((3,) * 14, (1,))).sub, 1),
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
