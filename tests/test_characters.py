import json
import math
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immanants import (
    ClassFunction,
    character_table,
    class_size,
    h_positive_decomposition,
    induced_trivial_character,
    induction_product,
    inner_product,
    irreducible_character,
    monomial_character,
    partitions_of,
    sign_character,
    trivial_character,
    zee,
    zero_character,
)
from immanants.characters import HPositiveDecomposition, _weighted_monomial_rows
from immanants.symfunc import convert, frobenius, frobenius_inverse, multiply, sym_func

S3_CLASSES = [(1, 1, 1), (2, 1), (3,)]
S4_CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


# ---------------------------------------------------------------- oracles

def syt_count(lam):
    """Standard tableaux via the hook length formula."""
    n = sum(lam)
    if n == 0:
        return 1
    conj = [sum(1 for x in lam if x > j) for j in range(lam[0])]
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= (row - j) + (conj[j] - i) - 1
    return math.factorial(n) // prod


def eta_oracle(lam, rho):
    """Distribute the labelled cycles of type rho over rows with sums lam."""

    def rec(i, remaining):
        if i == len(rho):
            return 1 if all(r == 0 for r in remaining) else 0
        total = 0
        for j in range(len(remaining)):
            if remaining[j] >= rho[i]:
                nxt = list(remaining)
                nxt[j] -= rho[i]
                total += rec(i + 1, nxt)
        return total

    return rec(0, list(lam))


# ------------------------------------------------------------ class sizes

def test_class_sizes_golden():
    assert class_size((1, 1, 1, 1)) == 1
    assert class_size((2, 1, 1)) == 6
    assert class_size((3, 1)) == 8
    assert class_size((2, 2)) == 3
    assert class_size((4,)) == 6


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(class_size(rho) for rho in partitions_of(n)) == math.factorial(n)


def test_zee_times_class_size():
    for n in range(1, 8):
        for rho in partitions_of(n):
            assert zee(rho) * class_size(rho) == math.factorial(n)


# --------------------------------------------------------- class functions

def test_class_function_requires_all_cycle_types():
    with pytest.raises(ValueError):
        ClassFunction(3, {(3,): 1})


def test_class_function_names_unexpected_and_missing_cycle_types():
    with pytest.raises(ValueError) as info:
        ClassFunction(2, {(2,): 1, (1, 1): 1, (3,): 5})
    assert str(info.value) == "unexpected cycle types [(3,)] for S_2"
    with pytest.raises(ValueError) as info:
        ClassFunction(2, {(1, 1): 1, (3,): 5, (2, 1): 0})
    assert str(info.value) == (
        "unexpected cycle types [(2, 1), (3,)] for S_2; missing values for cycle types [(2,)]"
    )


def test_class_function_arithmetic_and_json():
    a = trivial_character(3)
    b = sign_character(3)
    s = a + 2 * b
    assert s.values[(1, 1, 1)] == 3 and s.values[(2, 1)] == -1
    assert ClassFunction.from_json(s.to_json()) == s


@pytest.mark.parametrize("blob", [
    {"n": 1, "values": {"[1]": 1.5}},
    {"n": 2.7, "values": {"[2]": 1, "[1,1]": 1}},
    {"n": 1, "values": {"[1]": "7"}},
])
def test_class_function_from_json_refuses_non_integers(blob):
    with pytest.raises(ValueError, match="not an integer"):
        ClassFunction.from_json(blob)


# ----------------------------------------------------------- irreducibles

def test_s3_character_table_golden():
    chi = irreducible_character((2, 1))
    assert [chi.values[r] for r in S3_CLASSES] == [2, 0, -1]
    assert irreducible_character((3,)) == trivial_character(3)
    assert irreducible_character((1, 1, 1)) == sign_character(3)


def test_sign_and_trivial_for_all_n():
    for n in range(1, 7):
        assert irreducible_character((n,)) == trivial_character(n)
        assert irreducible_character((1,) * n) == sign_character(n)


def test_dimension_is_standard_tableau_count():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert irreducible_character(lam).values[(1,) * n] == syt_count(lam)


def test_orthonormality():
    for n in range(1, 6):
        table = character_table(n)
        for a in partitions_of(n):
            for b in partitions_of(n):
                assert inner_product(table[a], table[b]) == (1 if a == b else 0)


# -------------------------------------------------------- eta and phi bases

def test_induced_trivial_golden():
    eta = induced_trivial_character((2, 1))
    assert [eta.values[r] for r in S3_CLASSES] == [3, 1, 0]
    for n in range(1, 6):
        assert induced_trivial_character((n,)) == trivial_character(n)
        reg = induced_trivial_character((1,) * n)
        assert reg.values[(1,) * n] == math.factorial(n)
        assert all(v == 0 for r, v in reg.values.items() if r != (1,) * n)


def test_induced_trivial_against_distribution_oracle():
    for n in range(1, 6):
        for lam in partitions_of(n):
            eta = induced_trivial_character(lam)
            for rho in partitions_of(n):
                assert eta.values[rho] == eta_oracle(lam, rho), (lam, rho)


def test_monomial_golden():
    phi = monomial_character((2, 1))
    assert [phi.values[r] for r in S3_CLASSES] == [0, 2, -3]
    assert monomial_character((1,)) == trivial_character(1)


def test_phi_eta_duality():
    for n in range(1, 6):
        for a in partitions_of(n):
            phi = monomial_character(a)
            for b in partitions_of(n):
                want = 1 if a == b else 0
                assert inner_product(phi, induced_trivial_character(b)) == want


def test_sum_of_monomial_characters_matches_symfunc():
    # The sum of all phi's is the inverse image of the sum of all m's.
    for n in range(1, 6):
        total = monomial_character(partitions_of(n)[0])
        for lam in partitions_of(n)[1:]:
            total = total + monomial_character(lam)
        f = sym_func("m", n, {lam: 1 for lam in partitions_of(n)})
        assert frobenius_inverse(f) == total


# ------------------------------------------------------------ inner product

def test_inner_product_requires_same_n():
    with pytest.raises(ValueError):
        inner_product(trivial_character(3), trivial_character(4))


def test_inner_product_exact_rational():
    one_transposition = ClassFunction(2, {(1, 1): 0, (2,): 1})
    assert inner_product(one_transposition, trivial_character(2)) == Fraction(1, 2)


# -------------------------------------------------------- induction product

def test_induction_of_trivials_is_young_character():
    for k, r in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)]:
        prod = induction_product(trivial_character(k), trivial_character(r))
        lam = tuple(sorted((k, r), reverse=True))
        assert prod == induced_trivial_character(lam)


def test_induction_product_commutes_and_associates():
    rng = random.Random(3)

    def random_cf(n):
        return ClassFunction(n, {rho: rng.randint(-3, 3) for rho in partitions_of(n)})

    for _ in range(5):
        a, b, c = random_cf(2), random_cf(2), random_cf(1)
        assert induction_product(a, b) == induction_product(b, a)
        left = induction_product(induction_product(a, b), c)
        right = induction_product(a, induction_product(b, c))
        assert left == right


def test_frobenius_multiplicativity():
    rng = random.Random(5)
    for k, r in [(1, 2), (2, 2), (3, 2), (2, 4), (3, 3)]:
        a = ClassFunction(k, {rho: rng.randint(-4, 4) for rho in partitions_of(k)})
        b = ClassFunction(r, {rho: rng.randint(-4, 4) for rho in partitions_of(r)})
        lhs = frobenius(induction_product(a, b))
        rhs = multiply(frobenius(a), frobenius(b))
        assert convert(lhs, "p").coeffs == convert(rhs, "p").coeffs


# --------------------------------------------------- h-positive expansions

def test_h_positive_of_eta_is_delta():
    dec = h_positive_decomposition(induced_trivial_character((2, 1)))
    assert dec.is_integral and dec.is_nonnegative
    assert dec.coefficient((2, 1)) == 1
    assert all(c == 0 for lam, c in dec.coefficients.items() if lam != (2, 1))


def test_h_positive_recovers_random_eta_combinations():
    rng = random.Random(9)
    for n in range(2, 6):
        coeffs = {lam: rng.randint(0, 3) for lam in partitions_of(n)}
        chi = None
        for lam, c in coeffs.items():
            term = c * induced_trivial_character(lam)
            chi = term if chi is None else chi + term
        dec = h_positive_decomposition(chi)
        assert dec.is_integral and dec.is_nonnegative
        assert {l: int(c) for l, c in dec.coefficients.items()} == coeffs


def test_h_positive_reports_non_virtual_input():
    one_transposition = ClassFunction(2, {(1, 1): 0, (2,): 1})
    dec = h_positive_decomposition(one_transposition)
    assert not dec.is_integral  # reported, not raised


@st.composite
def integer_class_functions(draw):
    """Random integer values (mostly not virtual characters), or an integer
    combination of induced trivial characters (always integral)."""
    n = draw(st.integers(0, 6))
    classes = partitions_of(n)
    if draw(st.booleans()):
        chi = zero_character(n)
        for lam in classes:
            chi = chi + draw(st.integers(-3, 3)) * induced_trivial_character(lam)
        return chi
    return ClassFunction(n, {rho: draw(st.integers(-60, 60)) for rho in classes})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(integer_class_functions())
def test_h_positive_matches_inner_products_with_monomials(chi):
    dec = h_positive_decomposition(chi)
    want = {lam: inner_product(chi, monomial_character(lam)) for lam in partitions_of(chi.n)}
    assert dec.coefficients == want
    assert list(dec.coefficients) == list(partitions_of(chi.n))
    assert dec.is_integral == all(c.denominator == 1 for c in want.values())
    assert dec.is_nonnegative == all(c >= 0 for c in want.values())


def fraction_h_positive_decomposition(chi):
    """The Fraction body `h_positive_decomposition` had before it computed in integers."""
    n = chi.n
    classes = partitions_of(n)
    values = [chi.values[rho] for rho in classes]
    order = math.factorial(n)
    coeffs = {
        lam: Fraction(sum(map(mul, row, values)), order)
        for lam, row in _weighted_monomial_rows(n).items()
    }
    integral = all(c.denominator == 1 for c in coeffs.values())
    nonneg = all(c >= 0 for c in coeffs.values())
    if integral:
        recon = [0] * len(classes)
        for lam, c in coeffs.items():
            if c:
                eta = induced_trivial_character(lam).values
                recon = [r + int(c) * eta[rho] for r, rho in zip(recon, classes)]
        if recon != values:
            raise AssertionError("induced-trivial expansion failed to reconstruct input")
    return HPositiveDecomposition(n, coeffs, integral, nonneg)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(integer_class_functions())
def test_h_positive_in_integers_matches_the_fraction_body(chi):
    dec, want = h_positive_decomposition(chi), fraction_h_positive_decomposition(chi)
    assert dec.coefficients == want.coefficients
    assert list(dec.coefficients) == list(want.coefficients)
    assert (dec.is_integral, dec.is_nonnegative) == (want.is_integral, want.is_nonnegative)
    assert json.dumps(dec.to_json()) == json.dumps(want.to_json())
    # Integral expansions hold ints, the others Fractions.
    kind = int if dec.is_integral else Fraction
    assert all(type(c) is kind for c in dec.coefficients.values())


def test_h_positive_reconstruction_check_raises(monkeypatch):
    chi = induced_trivial_character((2, 1))
    monkeypatch.setattr(
        "immanants.characters.induced_trivial_character", lambda lam: trivial_character(sum(lam))
    )
    with pytest.raises(AssertionError, match="failed to reconstruct"):
        h_positive_decomposition(chi)
