import importlib
import math
import random
from itertools import permutations

import pytest

from immanants import (
    ClassFunction,
    components,
    content_vector,
    convert,
    frobenius,
    homogeneous,
    immanant_character,
    immanant_character_from_components,
    induce_to,
    induce_up,
    induced_trivial_character,
    induction_product,
    multiply,
    partitions_of,
    remove_empty_rows,
    skew_shape,
    stanley_stembridge_character,
    trivial_character,
    hessenberg_from_skew,
    immanant_characters,
)
from immanants.permutations import cycle_type, symmetric_group
from immanants.verify import _assemble_disconnected


# ---------------------------------------------------------------- oracles

def compose(a, b):
    """(a after b) in one-line notation."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def invert(w):
    out = [0] * len(w)
    for i, t in enumerate(w):
        out[t - 1] = i + 1
    return tuple(out)


def young_induced_value_oracle(phi, psi, w):
    """Character induced from phi x psi on S_k x S_r, by averaging over S_{k+r}."""
    k, n = phi.n, len(w)
    total = 0
    for x in permutations(range(1, n + 1)):
        v = compose(compose(x, w), invert(x))
        if all(t <= k for t in v[:k]):  # lands in the Young subgroup S_k x S_r
            top = cycle_type(v[:k])
            bottom = cycle_type(tuple(t - k for t in v[k:]))
            total += phi.values[top] * psi.values[bottom]
    return total // (math.factorial(k) * math.factorial(n - k))


def induced_value_oracle(chi, w):
    """Induced character from the subgroup fixing the last letter."""
    return young_induced_value_oracle(chi, trivial_character(1), w)


def class_representative(rho):
    """A permutation in one-line notation whose cycles have lengths rho."""
    w, start = [], 1
    for part in rho:
        w.extend(range(start + 1, start + part))
        w.append(start)
        start += part
    return tuple(w)


def random_class_function(rng, n):
    return ClassFunction(n, {rho: rng.randint(-5, 5) for rho in partitions_of(n)})


# ------------------------------------------------------------- empty rows

def test_remove_empty_rows_golden():
    shape = skew_shape((5, 4, 2, 2, 1), (3, 2, 2))
    reduced = remove_empty_rows(shape)
    assert (reduced.outer, reduced.inner, reduced.rows) == ((5, 4, 2, 1), (3, 2), 4)


def test_remove_empty_rows_noop_and_degenerate():
    shape = skew_shape((3, 2), (1,))
    assert remove_empty_rows(shape) == shape
    empty = remove_empty_rows(skew_shape((2, 2), (2, 2)))
    assert empty.rows == 0 and empty.size == 0


def test_empty_row_removal_preserves_characters():
    shape = skew_shape((5, 4, 2, 2, 1), (3, 2, 2))
    reduced = remove_empty_rows(shape)
    padded = skew_shape(reduced.outer, reduced.inner, shape.rows)
    for theta in partitions_of(7):
        assert immanant_character(theta, shape) == immanant_character(theta, padded)


# ------------------------------------------------------------- components

def test_components_golden():
    comps = components(skew_shape((5, 4, 2, 1), (3, 2)))
    assert [(c.outer, c.inner) for c in comps] == [((3, 2), (1,)), ((2, 1), ())]


def test_components_single_boxes():
    comps = components(skew_shape((2, 1), (1,)))
    assert [(c.outer, c.inner) for c in comps] == [((1,), ()), ((1,), ())]


def test_components_connected_is_singleton():
    shape = skew_shape((3, 2, 1))
    assert components(shape) == [shape]


def test_components_requires_no_empty_rows():
    with pytest.raises(ValueError):
        components(skew_shape((5, 4, 2, 2, 1), (3, 2, 2)))


def test_component_reorder_golden():
    a = skew_shape((5, 4, 2, 1), (3, 2))
    b = skew_shape((5, 4, 3, 2), (3, 3, 1))
    assert {(c.outer, c.inner) for c in components(a)} == {
        (c.outer, c.inner) for c in components(b)
    }
    for theta in partitions_of(7):
        assert immanant_character(theta, a) == immanant_character(theta, b)


# ---------------------------------------------------------------- induction

def test_induce_up_of_trivial():
    for n in range(2, 6):
        got = induce_up(trivial_character(n - 1))
        assert got == induced_trivial_character((n - 1, 1))


def test_induce_up_matches_averaging_oracle():
    chi = immanant_character((2, 1), skew_shape((2, 1)))
    lifted = induce_up(chi)
    assert lifted.n == 3
    for w in symmetric_group(3):
        rho = cycle_type(w)
        assert lifted.values[rho] == induced_value_oracle(chi, w)


def test_induce_up_frobenius_consistency():
    chi = induced_trivial_character((2, 1))
    lhs = frobenius(induce_up(chi))
    rhs = multiply(frobenius(chi), homogeneous((1,)))
    assert convert(lhs, "h").coeffs == convert(rhs, "h").coeffs


def test_induction_product_matches_young_subgroup_oracle():
    rng = random.Random(20231018)
    for n in range(2, 7):
        for k in range(1, n):
            phi, psi = random_class_function(rng, k), random_class_function(rng, n - k)
            got = induction_product(phi, psi)
            assert got.n == n
            for rho in partitions_of(n):
                w = class_representative(rho)
                assert cycle_type(w) == rho
                assert got.values[rho] == young_induced_value_oracle(phi, psi, w), (k, rho)


def test_induce_up_matches_averaging_oracle_through_s6():
    rng = random.Random(1859)
    for n in range(0, 6):
        chi = random_class_function(rng, n)
        lifted = induce_up(chi)
        assert lifted.n == n + 1
        for rho in partitions_of(n + 1):
            assert lifted.values[rho] == induced_value_oracle(chi, class_representative(rho))


def test_induce_to_runs_multiple_steps():
    chi = trivial_character(1)
    assert induce_to(chi, 3).values[(1, 1, 1)] == 6
    with pytest.raises(ValueError):
        induce_to(trivial_character(3), 2)


def test_induce_to_is_repeated_induce_up():
    # One induction product with the regular character of S_(n-m) is n - m
    # one-letter inductions.
    rng = random.Random(1732)
    for m in range(6):
        chi = random_class_function(rng, m)
        up = chi
        for n in range(m, m + 5):
            assert induce_to(chi, n) == up, (m, n)
            up = induce_up(up)


def test_minimal_row_characters_induce_to_padded_ones():
    shapes = [
        skew_shape((3, 2), (1,)),
        skew_shape((2, 1)),
        skew_shape((2, 2, 1)),
        skew_shape((4, 2), (2,)),
        skew_shape((3, 3), (1, 1)),
        skew_shape((2, 2), (1,)),
        skew_shape((3, 1)),
        skew_shape((1, 1)),
        skew_shape((4, 1), (1,)),
        skew_shape((3, 2, 1), (1,)),
    ]
    for shape in shapes:
        for theta in partitions_of(shape.size):
            direct = immanant_character(theta, skew_shape(shape.outer, shape.inner, shape.rows + 1))
            assert direct == induce_up(immanant_character(theta, shape)), (shape, theta)


def test_induction_stability_iterates():
    shape = skew_shape((2, 1))
    for theta in partitions_of(3):
        at2 = immanant_character(theta, shape)
        at4 = immanant_character(theta, skew_shape((2, 1), (), 4))
        assert at4 == induce_to(at2, 4)


# ------------------------------------------------------- disconnected shapes

def test_disconnected_product_golden_shape():
    shape = skew_shape((5, 4, 2, 1), (3, 2))
    for theta in partitions_of(7):
        assert immanant_character(theta, shape) == immanant_character_from_components(
            theta, shape
        )


def test_disconnected_product_rejects_connected():
    with pytest.raises(ValueError):
        immanant_character_from_components((3,), skew_shape((2, 1)))


def test_top_character_factors_over_components():
    shape = skew_shape((5, 4, 2, 1), (3, 2))
    c0, c1 = components(shape)
    prod = induction_product(
        stanley_stembridge_character(hessenberg_from_skew(c0)),
        stanley_stembridge_character(hessenberg_from_skew(c1)),
    )
    assert prod == immanant_character((7,), shape)


def test_three_component_shape_factors():
    # (3,2,1)/(2,1): three single boxes, pairwise disconnected.
    shape = skew_shape((3, 2, 1), (2, 1))
    assert len(components(shape)) == 3
    for theta in partitions_of(3):
        assert immanant_character(theta, shape) == immanant_character_from_components(
            theta, shape
        )


def test_three_multi_box_components_factor_at_every_theta():
    # Components (2,2), (2,1) and (2), bare and padded with one empty row.
    top = _assemble_disconnected(skew_shape((2, 2)), skew_shape((2, 1)))
    shape = _assemble_disconnected(top, skew_shape((2,)))
    assert [(c.outer, c.inner) for c in components(shape)] == [
        ((2, 2), ()), ((2, 1), ()), ((2,), ())
    ]
    for s in (shape, skew_shape(shape.outer, shape.inner, shape.rows + 1)):
        direct = immanant_characters(s)
        for theta in partitions_of(9):
            assert immanant_character_from_components(theta, s) == direct[theta], (s, theta)


def test_component_product_counts_each_component_once(monkeypatch):
    # (7,5,3,1)/(5,3,1): four one-row components of 2, 2, 2 and 1 boxes.
    shape = skew_shape((7, 5, 3, 1), (5, 3, 1))
    theta = (4, 2, 1)
    assert len(components(shape)) == 4
    module = importlib.import_module("immanants.immanant_characters")
    real, calls = module.cycle_cover_counts, []

    def counted(sub):
        calls.append(len(sub))
        return real(sub)

    monkeypatch.setattr(module, "cycle_cover_counts", counted)
    product = immanant_character_from_components(theta, shape)
    assert calls == [1, 1, 1, 1]
    monkeypatch.undo()
    assert product == immanant_characters(shape)[theta]


def test_admissible_permutations_stay_in_young_subgroup():
    # Non-negative contents force block-diagonal permutations at every split.
    shape = skew_shape((5, 4, 2, 1), (3, 2))
    mu, nu = shape.padded()
    splits = [i for i in range(1, shape.rows) if mu[i] <= nu[i - 1]]
    assert splits == [2]
    for w in symmetric_group(4):
        if all(x >= 0 for x in content_vector(shape, w)):
            assert set(w[:2]) == {1, 2}, w
