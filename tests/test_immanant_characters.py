import importlib
import math
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immanants import (
    character_table,
    collected_coefficient,
    connected_skew_shapes,
    content_vector,
    convert,
    h_positive_decomposition,
    hess_prime,
    hessenberg,
    hessenberg_from_skew,
    hook_decomposition,
    hook_partition,
    hooks_of,
    immanant,
    immanant_character,
    immanant_character_from_components,
    immanant_characters,
    inner_product,
    is_abelian,
    is_dahlberg_small,
    is_preabelian,
    jt_matrix,
    kostka,
    partitions_of,
    skew_shape,
    stanley_stembridge_character,
)
import immanants.jacobitrudi
from immanants.characters import zee
from immanants.immanant_characters import hook_decompositions
from immanants.permutations import symmetric_group

S4_CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def brute_cycle_type(w):
    seen, lengths = set(), []
    for start in range(len(w)):
        if start in seen:
            continue
        j, size = start, 0
        while j not in seen:
            seen.add(j)
            j = w[j] - 1
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def brute_stanley_stembridge(values):
    """Count admissible permutations class by class, independently."""
    n = len(values)
    counts = {}
    for w in permutations(range(1, n + 1)):
        if all(w[i] <= values[i] for i in range(n)):
            rho = brute_cycle_type(w)
            counts[rho] = counts.get(rho, 0) + 1
    return {rho: zee(rho) * counts.get(rho, 0) for rho in partitions_of(n)}


# ----------------------------------------------------------- content vector

def test_content_vector_identity_is_row_widths():
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    assert content_vector(shape, (1, 2, 3, 4)) == (2, 2, 3, 1)


def test_content_vector_golden_for_admitted_permutation():
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    vec = content_vector(shape, (3, 1, 4, 2))
    assert all(x >= 0 for x in vec)
    assert sum(vec) == shape.size


def test_content_vector_sums_to_size():
    rng = random.Random(31)
    shapes = [
        skew_shape((3, 2, 1)),
        skew_shape((4, 4, 2), (2, 1)),
        skew_shape((2, 2, 2, 2), (1, 1)),
        skew_shape((3, 1), (), 4),
    ]
    for shape in shapes:
        perms = symmetric_group(shape.rows)
        for _ in range(25):
            w = perms[rng.randrange(len(perms))]
            assert sum(content_vector(shape, w)) == shape.size


# ----------------------------------------------- Stanley-Stembridge values

def test_stanley_stembridge_against_brute_force():
    for values in [(3, 3, 4, 4), (2, 3, 4, 4), (2, 3, 3, 4), (3, 3, 3, 4), (1, 2, 3, 4)]:
        got = stanley_stembridge_character(hessenberg(values))
        assert got.values == brute_stanley_stembridge(values)


def test_stanley_stembridge_corrected_golden_table():
    # Classified by cycle type, the twelve admissible permutations of
    # h=(3,3,4,4) split 1/4/1/4/2, giving these values (the permutation
    # 3241 is a 3-cycle).
    g = stanley_stembridge_character(hessenberg((3, 3, 4, 4)))
    assert [g.values[r] for r in S4_CLASSES] == [24, 16, 8, 12, 8]
    assert g.values[brute_cycle_type((4, 2, 3, 1))] == 16  # the 4231 anchor
    assert inner_product(g, character_table(4)[(4,)]) == 12


def test_stanley_stembridge_full_function_is_regular_like():
    for n in range(1, 5):
        full = stanley_stembridge_character(hessenberg((n,) * n))
        assert all(v == math.factorial(n) for v in full.values.values())
        ident = stanley_stembridge_character(hessenberg(tuple(range(1, n + 1))))
        assert ident.values[(1,) * n] == math.factorial(n)
        assert all(v == 0 for r, v in ident.values.items() if r != (1,) * n)


def test_top_immanant_character_reduces_to_hessenberg_data():
    shapes = [
        skew_shape((3, 3, 3, 1), (1, 1)),
        skew_shape((3, 2, 1)),
        skew_shape((2, 2), (1,)),
        skew_shape((2,), (), 3),  # padded: empty rows allowed here
        skew_shape((4, 2, 2), (1, 1)),
    ]
    for shape in shapes:
        lhs = immanant_character((shape.size,), shape)
        rhs = stanley_stembridge_character(hessenberg_from_skew(shape))
        assert lhs == rhs, shape


# ---------------------------------------------------- immanant characters

def test_immanant_character_identity_value():
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    gamma = immanant_character((6, 1, 1), shape)
    assert gamma.values[(1, 1, 1, 1)] == math.factorial(4) * kostka((6, 1, 1), (2, 2, 3, 1))


def test_immanant_character_size_mismatch():
    with pytest.raises(ValueError):
        immanant_character((3,), skew_shape((3, 3), (1,)))


def test_immanant_character_is_a_character():
    table = character_table(4)
    for shape in [skew_shape((3, 3, 3, 1), (1, 1)), skew_shape((4, 3, 2, 1))]:
        for theta in partitions_of(shape.size):
            gamma = immanant_character(theta, shape)
            for lam, chi in table.items():
                mult = inner_product(gamma, chi)
                assert mult.denominator == 1 and mult >= 0, (theta, lam)


def test_immanant_character_reconstructs_from_immanant_coefficients():
    # Independent route: Schur coefficients of the irreducible immanants
    # are the multiplicities of the immanant character.
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    table = character_table(4)
    expansions = {
        lam: convert(immanant(chi, shape), "s") for lam, chi in table.items()
    }
    for theta in partitions_of(8):
        gamma = immanant_character(theta, shape)
        rebuilt = None
        for lam, chi in table.items():
            term = expansions[lam].coefficient(theta) * chi
            rebuilt = term if rebuilt is None else rebuilt + term
        assert rebuilt == gamma, theta


# -------------------------------------------------------- hook decomposition

def test_hook_decomposition_golden_example():
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    dec = hook_decomposition((6, 1, 1), shape)
    assert dec.base.values == (3, 3, 4, 4) and dec.leg == 2
    assert [(h.values, m) for h, m in dec.summands] == [
        ((2, 3, 4, 4), 1),
        ((2, 3, 3, 4), 1),
        ((3, 3, 3, 4), 1),
    ]
    assert dec.character() == immanant_character((6, 1, 1), shape)
    for h, _ in dec.summands:
        assert collected_coefficient(dec, h) == 1


def test_collected_coefficient_computes_h_prime_once_per_decomposition(monkeypatch):
    module = importlib.import_module("immanants.immanant_characters")
    shape = skew_shape((4, 4, 3, 3, 2, 1), (2, 1))
    calls = 0

    def counted(s):
        nonlocal calls
        calls += 1
        return hess_prime(s)

    monkeypatch.setattr(module, "hess_prime", counted)
    dec = hook_decomposition((12, 1, 1), shape)
    assert len(dec.summands) > 1
    for _ in range(2):
        for h, mult in dec.summands:
            assert collected_coefficient(dec, h) == mult
    assert calls == 1
    assert dec.prime == hess_prime(shape) and dec == hook_decomposition((12, 1, 1), shape)


def test_hook_decomposition_leg_zero():
    shape = skew_shape((3, 2, 1))
    dec = hook_decomposition((6,), shape)
    assert dec.summands == ((hessenberg_from_skew(shape), 1),)
    assert collected_coefficient(dec, dec.summands[0][0]) == 1


def test_hook_decomposition_without_constant_entries():
    # Every bottom entry has positive subscript, so nothing lowers and the
    # whole binomial lands on one summand.
    shape = skew_shape((4, 4, 4, 4))
    for k in range(0, 4):
        dec = hook_decomposition(hook_partition(16, k), shape)
        assert len(dec.summands) == 1
        h, mult = dec.summands[0]
        assert h == dec.base and mult == math.comb(3, k)
        assert collected_coefficient(dec, h) == math.comb(3, k)


def test_hook_decomposition_rejects_empty_rows():
    with pytest.raises(ValueError):
        hook_decomposition((2,), skew_shape((2,), (), 2))


def test_hook_decomposition_oversized_leg_is_empty_and_zero():
    shape = skew_shape((3, 1))
    dec = hook_decomposition((1, 1, 1, 1), shape)
    assert dec.summands == ()
    assert (dec.theta, dec.leg, dec.base) == ((1, 1, 1, 1), 3, hessenberg_from_skew(shape))
    zero = immanant_character((1, 1, 1, 1), shape)
    assert all(v == 0 for v in zero.values.values())


def test_hook_decomposition_work_follows_the_summands_not_the_leg_sized_subsets():
    # (30^30) has no lowerable column, so leg 14 has one summand: h, with multiplicity
    # binom(29, 14).  A filter over the leg-sized subsets of the first 29 columns would
    # walk all 77,558,760 of them.
    start = time.perf_counter()
    dec = hook_decompositions(skew_shape((30,) * 30), [hook_partition(900, 14)])
    elapsed = time.perf_counter() - start
    (only,) = dec.values()
    assert [m for _, m in only.summands] == [math.comb(29, 14)] == [77_558_760]
    assert elapsed < 1, elapsed


@pytest.mark.parametrize(
    "entry", [
        lambda theta, shape: immanant_characters(shape, [theta]),
        hook_decomposition,
        immanant_character_from_components,
    ],
    ids=["immanant_characters", "hook_decomposition", "immanant_character_from_components"],
)
def test_every_entry_point_refuses_a_theta_of_the_wrong_size(entry):
    shape = skew_shape((3, 1), (1,))  # two components, 3 boxes
    with pytest.raises(ValueError, match="theta has size 4 but the shape has 3 boxes"):
        entry((2, 1, 1), shape)


def test_hook_decomposition_refuses_the_empty_shape():
    with pytest.raises(ValueError, match="at least one row"):
        hook_decomposition((), skew_shape(()))


def test_hook_decomposition_requires_hook():
    with pytest.raises(ValueError):
        hook_decomposition((2, 2), skew_shape((3, 1)))


def test_collected_coefficient_rejects_non_summand():
    dec = hook_decomposition((6, 1, 1), skew_shape((3, 3, 3, 1), (1, 1)))
    with pytest.raises(KeyError):
        collected_coefficient(dec, hessenberg((1, 2, 3, 4)))


def test_summands_sandwich_between_h_and_h_minus_one():
    for shape in [skew_shape((3, 3, 3, 1), (1, 1)), skew_shape((4, 3, 2, 1)), skew_shape((2, 2, 2))]:
        size, n = shape.size, shape.rows
        for k in range(0, n):
            dec = hook_decomposition(hook_partition(size, k), shape)
            base = dec.base.values
            assert dec.total_multiplicity == math.comb(n - 1, k)
            for h, _ in dec.summands:
                assert all(b - 1 <= v <= b for v, b in zip(h.values, base))


def test_pointwise_kostka_identity_small():
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    for k in range(0, 4):
        theta = hook_partition(8, k)
        dec = hook_decomposition(theta, shape)
        for w in symmetric_group(4):
            lhs = kostka(theta, content_vector(shape, w))
            rhs = sum(m for h, m in dec.summands if h.admits(w))
            assert lhs == rhs, (theta, w)


def corner_lowered_summands(shape, leg):
    """Oracle: one summand per leg-sized subset of the first n-1 columns, collected.

    Lowers h(j) on each chosen column j whose bottom nonzero entry is 1,
    reading the subscript grid directly: that entry sits in row h(j), and it
    is the constant 1 when its subscript is 0.  Summands come in first-seen
    order, so this also fixes the order `hook_decompositions` gives them.
    """
    sub = jt_matrix(shape).sub
    base = hessenberg_from_skew(shape).values
    collected = {}  # first-seen order
    for subset in combinations(range(shape.rows - 1), leg):
        values = list(base)
        for j in subset:
            if sub[base[j] - 1][j] == 0:
                values[j] -= 1
        collected[tuple(values)] = collected.get(tuple(values), 0) + 1
    return [(values, m) for values, m in collected.items()]


def assert_matches_corner_lowering(shape):
    """Every hook of the shape's size, legs past n - 1 included, against the oracle."""
    hooks = hooks_of(shape.size)
    for theta, dec in hook_decompositions(shape, hooks).items():
        got = [(h.values, m) for h, m in dec.summands]
        assert got == corner_lowered_summands(shape, dec.leg), (shape, theta)
    return len(hooks)


def test_hook_decomposition_matches_corner_lowering_oracle():
    pairs = 0
    for n in range(1, 7):
        for size in range(n, 11):
            for shape in connected_skew_shapes(n, size):
                base = hessenberg_from_skew(shape).values
                prime = hess_prime(shape).values
                assert all(b - p in (0, 1) for b, p in zip(base, prime)), shape
                pairs += assert_matches_corner_lowering(shape)
    assert pairs == 18665


@st.composite
def tall_connected_shapes(draw):
    """A connected skew shape with 7 to 9 rows, each 1 to 4 boxes wide."""
    rows = draw(st.integers(7, 9))
    outer, inner = [draw(st.integers(1, 4))], [0]  # bottom row first, anchored at column 1
    for _ in range(rows - 1):
        nu = draw(st.integers(inner[-1], outer[-1] - 1))  # overlaps the row below
        outer.append(draw(st.integers(max(outer[-1], nu + 1), nu + 4)))
        inner.append(nu)
    return skew_shape(outer[::-1], inner[::-1])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(tall_connected_shapes())
def test_hook_decomposition_matches_corner_lowering_oracle_at_7_to_9_rows(shape):
    assert shape.is_connected and 7 <= shape.rows <= 9
    assert_matches_corner_lowering(shape)


def test_hook_decompositions_match_one_theta_at_a_time():
    pairs = 0
    for n in range(1, 5):
        for size in range(n, 9):
            for shape in connected_skew_shapes(n, size):
                hooks = hooks_of(size)  # legs past n - 1 included: their expansion is empty
                decomps = hook_decompositions(shape, hooks)
                assert list(decomps) == list(hooks)
                for theta in hooks:
                    assert decomps[theta] == hook_decomposition(theta, shape), (shape, theta)
                    pairs += 1
    assert pairs == 2141


@pytest.mark.parametrize(
    "bad, message",
    [((2, 2, 1), "is not a hook"), ((5, 1, 1), "theta has size 7"), ((2, 4), "not weakly decreasing")],
)
def test_hook_decompositions_check_every_theta_before_any_work(monkeypatch, bad, message):
    def no_work(shape, least):
        raise AssertionError("h or h' computed before every theta was checked")

    monkeypatch.setattr(immanants.jacobitrudi, "_leading_run", no_work)
    shape = skew_shape((3, 3, 1), (1, 1))  # 5 boxes
    with pytest.raises(ValueError, match=message):
        hook_decompositions(shape, [(5,), (4, 1), bad])


# ---------------------------------------------------------------- predicates

def test_is_abelian_goldens():
    assert is_abelian(hessenberg((4, 4, 4, 4)))
    assert is_abelian(hessenberg((3, 3, 4, 4)))
    assert not is_abelian(hessenberg((2, 3, 3, 4)))
    assert not is_abelian(hessenberg((1, 2, 3, 4)))
    assert is_abelian(hessenberg((1,)))


def test_is_preabelian_goldens():
    assert is_preabelian(skew_shape((4, 4, 4, 4), (1,)))
    assert is_preabelian(skew_shape((6, 5, 4, 4), (2, 1)))
    assert is_preabelian(skew_shape((2, 2, 2, 2)))
    assert not is_preabelian(skew_shape((3, 3, 3, 1), (1, 1)))
    assert not is_preabelian(skew_shape((4, 3, 2, 1)))
    assert not is_preabelian(skew_shape((2, 2, 1, 1), (1, 1)))


def test_is_dahlberg_small_goldens():
    assert is_dahlberg_small(hessenberg(tuple(range(1, 6))))
    assert is_dahlberg_small(hessenberg((3, 3, 4, 5, 5)))
    assert not is_dahlberg_small(hessenberg((4, 4, 4, 4)))


# ------------------------------------------------------------- positivity

def test_golden_hook_character_is_h_positive():
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    dec = h_positive_decomposition(immanant_character((6, 1, 1), shape))
    assert dec.is_integral and dec.is_nonnegative


def test_two_row_abelian_character_is_h_positive():
    g = stanley_stembridge_character(hessenberg((2, 2)))
    dec = h_positive_decomposition(g)
    assert dec.is_integral and dec.is_nonnegative
    assert dec.coefficient((2,)) == 2 and dec.coefficient((1, 1)) == 0


# ------------------------------------------- the main theorem beyond brute force

def test_hook_theorem_beyond_brute_force():
    # 11-18 rows, where no sum over S_n reaches.  The immanant character runs
    # the cover count on the Jacobi-Trudi grid clipped at 1; the summands run
    # it on their 0/-1 grids, so the two sides are different computations.
    for shape in (skew_shape((2,) * 12, (1,)), skew_shape((3,) * 11, (1,))):
        theta = hook_partition(shape.size, 2)
        decomp = hook_decomposition(theta, shape)
        assert decomp.total_multiplicity == math.comb(shape.rows - 1, 2)
        assert decomp.character() == immanant_character(theta, shape), shape
    # 18 rows at leg 1: 17 subsets collected into 16 summands.
    shape = skew_shape((3,) * 18, (1,))
    theta = hook_partition(shape.size, 1)
    decomp = hook_decomposition(theta, shape)
    assert (len(decomp.summands), decomp.total_multiplicity) == (16, 17)
    assert decomp.character() == immanant_character(theta, shape)
    # On the full 12 x 12 shape every subscript is positive, so every one
    # of the 12! permutations has l(alpha) = 12 and K = C(11, k).
    full = skew_shape((12,) * 12)
    legs = (0, 1, 2, 11)
    gammas = immanant_characters(full, [hook_partition(144, k) for k in legs])
    for k, gamma in zip(legs, gammas.values()):
        assert set(gamma.values.values()) == {math.comb(11, k) * math.factorial(12)}, k


# ---------------------------------------------------- degenerate conventions

def test_empty_shape_character_conventions():
    empty = skew_shape((), (), 0)
    gamma = immanant_character((), empty)
    assert gamma.n == 0 and gamma.values == {(): 1}
    assert kostka((), ()) == 1
    assert content_vector(empty, ()) == ()


def test_single_box_everything():
    shape = skew_shape((1,))
    assert hessenberg_from_skew(shape).values == (1,)
    gamma = immanant_character((1,), shape)
    assert gamma.values == {(1,): 1}
    dec = hook_decomposition((1,), shape)
    assert dec.summands == ((hessenberg((1,)), 1),)
    assert is_abelian(hessenberg((1,)))
