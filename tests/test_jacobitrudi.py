import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immanants import (
    HessenbergFunction,
    NotHessenbergError,
    connected_skew_shapes,
    content_vector,
    convert,
    hess_indicator,
    hess_prime,
    hessenberg,
    hessenberg_from_skew,
    immanant,
    immanant_character,
    inner_product,
    irreducible_character,
    jt_matrix,
    monomial_character,
    partitions_of,
    sign_character,
    skew_schur,
    skew_shape,
)
from immanants.characters import ClassFunction
from immanants.permutations import inverse, symmetric_group


def test_jt_matrix_staircase_example():
    m = jt_matrix(skew_shape((3, 2, 2, 1, 1)))
    assert m.cell_label(1, 1) == "h_3"
    assert m.cell_label(3, 1) == "1"
    assert m.cell_label(4, 1) == "0"
    assert m.cell_label(2, 3) == "h_3"
    assert m.cell_label(5, 4) == "1"


def test_jt_matrix_single_row():
    m = jt_matrix(skew_shape((4,)))
    assert m.n == 1 and m.cell_label(1, 1) == "h_4"


def test_jt_matrix_render_golden():
    m = jt_matrix(skew_shape((2, 2, 2), (1,)))
    assert m.render() == "h_1 h_3 h_4\n  1 h_2 h_3\n  0 h_1 h_2"
    assert [row[0] for row in m.to_json()["cells"]] == ["h_1", "1", "0"]


def test_hessenberg_function_validation():
    with pytest.raises(NotHessenbergError):
        hessenberg((0, 2))
    with pytest.raises(NotHessenbergError):
        hessenberg((3, 2, 3))
    with pytest.raises(NotHessenbergError):
        hessenberg((2, 2, 4))
    h = hessenberg((3, 3, 4, 4))
    assert h.n == 4 and h(2) == 3 and h.max_excess == 2


def loop_hessenberg_check(values):
    """The loop `HessenbergFunction.__post_init__` ran before it became one `map(le, ...)` pass."""
    n = len(values)
    for i, v in enumerate(values, start=1):
        if not i <= v <= n:
            raise NotHessenbergError(
                f"h({i}) = {v} violates {i} <= h({i}) <= {n} in {list(values)}"
            )
    if any(a > b for a, b in zip(values, values[1:])):
        raise NotHessenbergError(f"{list(values)} is not weakly increasing")


@st.composite
def near_hessenberg_vectors(draw):
    """A Hessenberg function with up to two entries moved, some out of range or out of order."""
    n = draw(st.integers(0, 7))
    drawn = draw(st.lists(st.integers(1, max(n, 1)), min_size=n, max_size=n))
    values = [max(v, i) for i, v in enumerate(sorted(drawn), start=1)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        values[draw(st.integers(0, n - 1))] += draw(st.integers(-2, 2))
    return tuple(values)


def refusal(check, values):
    try:
        check(values)
    except NotHessenbergError as exc:
        return str(exc)
    return None


@settings(max_examples=400, derandomize=True, deadline=None)
@given(near_hessenberg_vectors())
def test_hessenberg_check_accepts_and_words_errors_as_the_loop(values):
    assert refusal(HessenbergFunction, values) == refusal(loop_hessenberg_check, values)


def test_hessenberg_check_agrees_with_the_loop_exhaustively():
    accepted = 0
    for n in range(5):
        for values in product(range(-1, n + 2), repeat=n):
            want = refusal(loop_hessenberg_check, values)
            assert refusal(HessenbergFunction, values) == want, values
            accepted += want is None
    assert accepted == 1 + 1 + 2 + 5 + 14  # Catalan numbers: Hessenberg functions on [n]


def test_hessenberg_refuses_non_integral_values():
    with pytest.raises(ValueError, match=r"not an integer: 1\.9"):
        hessenberg([1.9, 2])
    assert hessenberg([2.0, 2]).values == (2, 2)


def test_hessenberg_extraction_goldens():
    assert hessenberg_from_skew(skew_shape((3, 2, 2, 1, 1))).values == (3, 3, 4, 5, 5)
    assert hessenberg_from_skew(skew_shape((3, 3, 3, 1), (1, 1))).values == (3, 3, 4, 4)


def test_hessenberg_of_single_column():
    # One column: every subdiagonal entry is the constant 1, so each h(j)
    # reaches one row past the diagonal.
    for n in range(1, 6):
        h = hessenberg_from_skew(skew_shape((1,) * n))
        assert h.values == tuple(min(j + 1, n) for j in range(1, n + 1))


def test_hessenberg_of_disconnected_staircase_is_identity():
    # Single boxes in distinct columns: every column ends on the diagonal.
    for n in range(2, 6):
        outer = tuple(range(n, 0, -1))
        inner = tuple(range(n - 1, 0, -1))
        h = hessenberg_from_skew(skew_shape(outer, inner))
        assert h.values == tuple(range(1, n + 1))


def test_indicator_goldens():
    h = hessenberg((3, 3, 4, 4))
    assert hess_indicator(h, (1, 2, 3, 4)) == 1
    assert hess_indicator(h, (3, 1, 4, 2)) == 1
    assert hess_indicator(h, (3, 4, 1, 2)) == 0


def test_indicator_matches_content_vector_positivity():
    # The indicator agrees with non-negativity of the shuffled contents.
    shapes = [
        skew_shape((3, 3, 3, 1), (1, 1)),
        skew_shape((3, 2, 1)),
        skew_shape((4, 3, 3), (2,)),
        skew_shape((2, 2, 2, 1, 1), (1,)),
        skew_shape((4, 4, 3, 2, 1, 1), (2, 1, 1)),
    ]
    for shape in shapes:
        h = hessenberg_from_skew(shape)
        for w in symmetric_group(shape.rows):
            nonneg = all(x >= 0 for x in content_vector(shape, w))
            assert nonneg == bool(hess_indicator(h, w)), (shape, w)


def test_content_positivity_is_class_closed():
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    for w in symmetric_group(4):
        direct = all(x >= 0 for x in content_vector(shape, w))
        inverted = all(x >= 0 for x in content_vector(shape, inverse(w)))
        h = hessenberg_from_skew(shape)
        assert direct == bool(hess_indicator(h, w))
        assert inverted == bool(hess_indicator(h, inverse(w)))


def test_hess_prime_goldens():
    assert hess_prime(skew_shape((3, 3, 3, 1), (1, 1))).values == (2, 3, 3, 4)
    assert hess_prime(skew_shape((2, 2, 1, 1), (1, 1))).values == (1, 2, 3, 4)
    assert hess_prime(skew_shape((4, 3, 2, 1))).values == (2, 3, 3, 4)
    # No constant entries at all: the two patterns coincide.
    s = skew_shape((4, 4, 4), (1,))
    assert hess_prime(s) == hessenberg_from_skew(s)


def test_hess_prime_invalid_on_empty_rows():
    with pytest.raises(NotHessenbergError):
        hess_prime(skew_shape((2, 2), (2,)))


def test_immanant_goldens_example_shape():
    shape = skew_shape((2, 2, 2), (1,))
    sgn = immanant(sign_character(3), shape)
    assert convert(sgn, "s").coeffs == {(2, 2, 1): 1}

    chi = immanant(irreducible_character((2, 1)), shape)
    assert chi.coeffs == {(2, 2, 1): 2, (4, 1): -1}
    assert convert(chi, "s").coeffs == {
        (2, 2, 1): 2,
        (3, 1, 1): 2,
        (3, 2): 4,
        (4, 1): 3,
        (5,): 1,
    }

    phi = immanant(monomial_character((2, 1)), shape)
    assert phi.coeffs == {(3, 2): 2, (3, 1, 1): 2, (4, 1): -3}
    assert convert(phi, "s").coeffs == {(3, 1, 1): 2, (3, 2): 4, (4, 1): 3, (5,): 1}


def test_immanant_requires_matching_sizes():
    with pytest.raises(ValueError):
        immanant(sign_character(3), skew_shape((2, 2)))


def test_sign_immanant_is_skew_schur():
    for n in range(1, 5):
        for size in range(n, 7):
            for shape in connected_skew_shapes(n, size):
                det = convert(immanant(sign_character(n), shape), "s")
                assert det.coeffs == skew_schur(shape).coeffs, shape


def test_ordinary_immanants_schur_positive():
    for n in range(1, 5):
        for size in range(n, 6):
            for shape in connected_skew_shapes(n, size):
                for lam in partitions_of(n):
                    f = convert(immanant(irreducible_character(lam), shape), "s")
                    assert all(c >= 0 for c in f.coeffs.values()), (shape, lam)


def test_ordinary_immanants_schur_positive_five_rows():
    for shape in [skew_shape((2, 2, 1, 1, 1), (1,)), skew_shape((3, 2, 2, 1, 1), (1, 1))]:
        for lam in partitions_of(5):
            f = convert(immanant(irreducible_character(lam), shape), "s")
            assert all(c >= 0 for c in f.coeffs.values()), (shape, lam)


def test_immanant_coefficients_match_character_inner_products():
    rng = random.Random(23)
    shapes = [
        skew_shape((2, 2, 2), (1,)),
        skew_shape((3, 2, 1)),
        skew_shape((2, 2), (1,)),
        skew_shape((2, 2, 1, 1, 1), (1,)),  # five rows
    ]
    for shape in shapes:
        n, size = shape.rows, shape.size
        gammas = {t: immanant_character(t, shape) for t in partitions_of(size)}
        for _ in range(5):
            phi = ClassFunction(n, {r: rng.randint(-4, 4) for r in partitions_of(n)})
            expansion = convert(immanant(phi, shape), "s")
            for theta, gamma in gammas.items():
                assert inner_product(gamma, phi) == expansion.coefficient(theta)
