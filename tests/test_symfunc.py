import random
from fractions import Fraction

import pytest

from immanants import (
    convert,
    frobenius,
    frobenius_inverse,
    homogeneous,
    irreducible_character,
    lr_coefficient,
    multiply,
    partitions_of,
    schur,
    skew_schur,
    skew_shape,
    sym_func,
    sym_inner_product,
)
from immanants.characters import ClassFunction, inner_product
from immanants.symfunc import MAX_DEGREE, SymFunc


def test_sym_func_normalization():
    f = sym_func("s", 3, {(2, 1): Fraction(2, 1), (3,): 0})
    assert f.coeffs == {(2, 1): 2}
    assert isinstance(f.coeffs[(2, 1)], int)
    with pytest.raises(ValueError):
        sym_func("s", 3, {(2, 2): 1})
    with pytest.raises(ValueError):
        sym_func("q", 3, {(3,): 1})


def test_h_to_schur_golden():
    f = convert(homogeneous((2, 2, 1)), "s")
    assert f.coefficient((2, 2, 1)) == 1
    assert f.coefficient((5,)) == 1
    assert f.coefficient((4, 1)) == 2
    assert f.coefficient((3, 2)) == 2
    assert f.coefficient((3, 1, 1)) == 1


def test_example_h_combination_to_schur():
    f = (
        2 * homogeneous((3, 2))
        + 2 * homogeneous((3, 1, 1))
        - 3 * homogeneous((4, 1))
    )
    s = convert(f, "s")
    assert s.coeffs == {(3, 1, 1): 2, (3, 2): 4, (4, 1): 3, (5,): 1}


def test_round_trips_are_identity():
    for n in range(0, 7):
        for lam in partitions_of(n):
            f = schur(lam)
            for basis in ("m", "h", "p"):
                assert convert(convert(f, basis), "s").coeffs == f.coeffs


def test_monomial_h_duality():
    for n in range(1, 6):
        for lam in partitions_of(n):
            m = sym_func("m", n, {lam: 1})
            for mu in partitions_of(n):
                want = 1 if lam == mu else 0
                assert sym_inner_product(m, homogeneous(mu)) == want


def test_multiply_by_one():
    one = sym_func("s", 0, {(): 1})
    f = schur((2, 1))
    assert multiply(f, one).coeffs == f.coeffs


def test_multiply_pieri_square():
    prod = multiply(schur((1,)), schur((1,)))
    assert prod.coeffs == {(2,): 1, (1, 1): 1}


def test_multiply_matches_lr_coefficients():
    for total in range(2, 7):
        for m in range(1, total):
            for lam in partitions_of(m):
                for sigma in partitions_of(total - m):
                    prod = multiply(schur(lam), schur(sigma))
                    for theta in partitions_of(total):
                        assert prod.coefficient(theta) == lr_coefficient(theta, lam, sigma)


def test_skew_schur_golden():
    assert skew_schur(skew_shape((2, 2, 2), (1,))).coeffs == {(2, 2, 1): 1}
    for mu in partitions_of(5):
        assert skew_schur(skew_shape(mu)).coeffs == {mu: 1}
    assert skew_schur(skew_shape((2, 1), (1,))).coeffs == {(2,): 1, (1, 1): 1}


def test_frobenius_golden():
    from immanants import sign_character, trivial_character

    f = frobenius(sign_character(2))
    assert f.coeffs == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}
    g = frobenius(trivial_character(3))
    assert convert(g, "h").coeffs == {(3,): 1}


def test_frobenius_sends_irreducibles_to_schur():
    for n in range(1, 7):
        for lam in partitions_of(n):
            chi = irreducible_character(lam)
            assert convert(frobenius(chi), "s").coeffs == {lam: 1}
            assert frobenius_inverse(frobenius(chi)) == chi


def test_frobenius_is_isometry():
    rng = random.Random(17)
    for n in range(1, 6):
        for _ in range(4):
            a = ClassFunction(n, {r: rng.randint(-4, 4) for r in partitions_of(n)})
            b = ClassFunction(n, {r: rng.randint(-4, 4) for r in partitions_of(n)})
            assert inner_product(a, b) == sym_inner_product(frobenius(a), frobenius(b))


def test_conversion_chains_stay_integral():
    for n in range(1, 6):
        for lam in partitions_of(n):
            f = convert(convert(homogeneous(lam), "m"), "h")
            assert all(isinstance(c, int) for c in f.coeffs.values())
            assert f.coeffs == {lam: 1}


def test_degree_cap():
    f = sym_func("h", MAX_DEGREE + 1, {(MAX_DEGREE + 1,): 1})
    with pytest.raises(ValueError):
        convert(f, "s")


def test_json_roundtrip_with_rational_coeffs():
    f = frobenius(irreducible_character((2, 1)))
    assert SymFunc.from_json(f.to_json()).coeffs == f.coeffs


def test_symfunc_from_json_refuses_a_non_integral_degree():
    blob = {"basis": "p", "degree": 2, "coeffs": {"[2]": "1/2", "[1,1]": "1/2"}}
    assert SymFunc.from_json(blob).coeffs == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    with pytest.raises(ValueError, match="not an integer: 2.5"):
        SymFunc.from_json({**blob, "degree": 2.5})


@pytest.mark.parametrize("coeff", [0.1, 2.0, True])
def test_symfunc_from_json_refuses_float_and_bool_coefficients(coeff):
    blob = {"basis": "h", "degree": 1, "coeffs": {"[1]": 3}}
    assert SymFunc.from_json(blob).coeffs == {(1,): 3}
    assert SymFunc.from_json({**blob, "coeffs": {"[1]": "1/3"}}).coeffs == {(1,): Fraction(1, 3)}
    with pytest.raises(ValueError, match=f"not an int or an exact string: {coeff!r}"):
        SymFunc.from_json({**blob, "coeffs": {"[1]": coeff}})
