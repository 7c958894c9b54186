import copy
import json
import math
import random
import sys
from fractions import Fraction
from functools import cache
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immanants import (
    ClassFunction,
    character_table,
    class_size,
    h_positive_decomposition,
    immanant_character,
    induced_trivial_character,
    induction_product,
    inner_product,
    irreducible_character,
    kostka_matrix,
    monomial_character,
    partitions_of,
    sign_character,
    skew_shape,
    trivial_character,
    zee,
    zero_character,
)
from immanants import tableaux
from immanants.characters import HPositiveDecomposition, _induced_trivial_character
from immanants.immanant_characters import immanant_characters
from immanants.symfunc import convert, frobenius, frobenius_inverse, homogeneous, multiply, sym_func
from immanants.verify import (
    _bounded_connected_shapes,
    scan_records,
    suite_characters,
    suite_positivity,
)

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


def kostka_eta_oracle(lam):
    """Sum over theta of K[theta][lam] times the irreducible character at theta."""
    n = sum(lam)
    km = kostka_matrix(n)
    out = zero_character(n)
    for theta in partitions_of(n):
        out = out + km[theta][lam] * irreducible_character(theta)
    return out


@cache
def _weighted_monomial_rows(n):
    """Per lam, class_size(rho) * phi_lam(rho) over partitions_of(n): the
    n!-scaled inner product with phi_lam is one dot product with this row."""
    classes = partitions_of(n)
    return {
        lam: [class_size(rho) * monomial_character(lam).values[rho] for rho in classes]
        for lam in classes
    }


def dual_basis_h_positive_decomposition(chi):
    """The expansion over the induced trivial basis through the dual basis: the
    coefficient at lam is the inner product with the monomial character phi_lam,
    n!-scaled in integers, and an integral expansion is re-summed against chi."""
    n = chi.n
    classes = partitions_of(n)
    values = [chi.values[rho] for rho in classes]
    order = math.factorial(n)
    scaled = {
        lam: sum(map(mul, row, values)) for lam, row in _weighted_monomial_rows(n).items()
    }
    integral = all(s % order == 0 for s in scaled.values())
    nonneg = all(s >= 0 for s in scaled.values())
    if not integral:
        coeffs = {lam: Fraction(s, order) for lam, s in scaled.items()}
        return HPositiveDecomposition(n, coeffs, integral, nonneg)
    coeffs = {lam: s // order for lam, s in scaled.items()}
    recon = [0] * len(classes)
    for lam, c in coeffs.items():
        if c:
            eta = induced_trivial_character(lam).values
            recon = [r + c * eta[rho] for r, rho in zip(recon, classes)]
    if recon != values:
        raise AssertionError("induced-trivial expansion failed to reconstruct input")
    return HPositiveDecomposition(n, coeffs, integral, nonneg)


def assert_same_expansion(dec, want):
    """Coefficients, key order, coefficient types, flags and JSON bytes all agree."""
    assert dec.coefficients == want.coefficients
    assert list(dec.coefficients) == list(want.coefficients)
    assert [type(c) for c in dec.coefficients.values()] == [
        type(c) for c in want.coefficients.values()
    ]
    assert (dec.is_integral, dec.is_nonnegative) == (want.is_integral, want.is_nonnegative)
    assert json.dumps(dec.to_json()) == json.dumps(want.to_json())


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
    {"n": 1, "values": {"[1]": 1.0}},
    {"n": 1, "values": {"[1]": 1e23}},
    {"n": 1, "values": {"[1]": True}},
    {"n": 1.0, "values": {"[1]": 1}},
    {"n": True, "values": {"[1]": 1}},
])
def test_class_function_from_json_refuses_non_integers(blob):
    with pytest.raises(ValueError, match="not an integer"):
        ClassFunction.from_json(blob)


@pytest.mark.parametrize("key, value", [("5", "5"), ("null", "None"), ('"1"', "'1'")])
def test_class_function_from_json_refuses_a_key_that_is_not_a_list(key, value):
    with pytest.raises(ValueError, match=f"not a list: {value}"):
        ClassFunction.from_json({"n": 1, "values": {key: 1}})


def test_class_function_from_json_refuses_values_that_are_not_an_object():
    with pytest.raises(ValueError, match=r"not an object: \[1\]"):
        ClassFunction.from_json({"n": 1, "values": [1]})


def test_class_function_from_json_refuses_two_keys_for_one_cycle_type():
    values = {"[2,1]": 5, "[2,1,0]": 7, "[3]": 1, "[1,1,1]": 1}
    with pytest.raises(ValueError, match=r"keys '\[2,1\]' and '\[2,1,0\]' name one partition"):
        ClassFunction.from_json({"n": 3, "values": values})
    with pytest.raises(ValueError, match="not an integer: 1.0"):
        ClassFunction.from_json({"n": 1, "values": {"[1.0]": 1}})


def test_class_function_refuses_a_cycle_type_of_another_size():
    chi = trivial_character(2)
    assert chi((1, 1)) == 1
    with pytest.raises(ValueError, match=r"\[3\] is not a cycle type of S_2"):
        chi((3,))


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
    for n in range(1, 8):
        for lam in partitions_of(n):
            eta = induced_trivial_character(lam)
            for rho in partitions_of(n):
                assert eta.values[rho] == eta_oracle(lam, rho), (lam, rho)


def test_induced_trivial_against_the_kostka_oracle():
    for n in range(8):
        for lam in partitions_of(n):
            assert induced_trivial_character(lam) == kostka_eta_oracle(lam), lam


def test_frobenius_of_induced_trivial_is_complete_homogeneous():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert convert(frobenius(induced_trivial_character(lam)), "h") == homogeneous(lam)


def test_monomial_golden():
    phi = monomial_character((2, 1))
    assert [phi.values[r] for r in S3_CLASSES] == [0, 2, -3]
    assert monomial_character((1,)) == trivial_character(1)


@pytest.mark.parametrize(
    "build, body",
    [(induced_trivial_character, _induced_trivial_character), (monomial_character, None)],
    ids=["eta", "phi"],
)
def test_characters_take_any_spelling_of_a_partition_once(build, body):
    # A list or trailing zeros is the same partition; eta's cache holds it as one entry,
    # one object.  phi is not cached: no workload asks for one twice.
    want = build((3, 2, 1))
    assert build([3, 2, 1]) == want == build((3, 2, 1, 0))
    if body is not None:
        misses = body.cache_info().misses
        assert build([3, 2, 1]) is want and build((3, 2, 1, 0)) is want
        assert body.cache_info().misses == misses
    assert irreducible_character([3, 2, 1]) == irreducible_character((3, 2, 1, 0))
    with pytest.raises(ValueError, match="not weakly decreasing"):
        build([1, 2])


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
    """`dual_basis_h_positive_decomposition` with every coefficient a Fraction."""
    dec = dual_basis_h_positive_decomposition(chi)
    coeffs = {lam: Fraction(c) for lam, c in dec.coefficients.items()}
    return HPositiveDecomposition(dec.n, coeffs, dec.is_integral, dec.is_nonnegative)


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


def test_h_positive_matches_the_dual_basis_oracle_on_every_small_gamma():
    # Every distinct gamma_theta of the connected shapes with <= 5 rows and <= 9 boxes.
    gammas = {}
    for shape in _bounded_connected_shapes(5, 9):
        for gamma in immanant_characters(shape).values():
            gammas.setdefault(tuple(gamma.values.items()), gamma)
    assert len(gammas) == 760
    for gamma in gammas.values():
        want = dual_basis_h_positive_decomposition(gamma)
        assert_same_expansion(h_positive_decomposition(gamma), want)


def test_induced_trivial_characters_are_triangular_in_partition_order():
    # The lemma the triangular solve rests on: eta_lam(rho) = 0 when lam comes
    # after rho in partitions_of order, and eta_rho(rho) = prod of m_i(rho)!.
    for n in range(11):
        classes = partitions_of(n)
        for i, rho in enumerate(classes):
            assert all(induced_trivial_character(lam).values[rho] == 0 for lam in classes[i + 1:])
            pivot = math.prod(math.factorial(rho.count(part)) for part in set(rho))
            assert induced_trivial_character(rho).values[rho] == pivot, rho


def test_scan_and_positivity_build_no_monomial_character(monkeypatch):
    calls = []

    def counted(lam):
        calls.append(lam)
        return monomial_character(lam)

    for name, module in list(sys.modules.items()):
        bound = vars(module).get("monomial_character")
        if name.startswith("immanants") and bound is monomial_character:
            monkeypatch.setattr(module, "monomial_character", counted)
    tableaux.inverse_kostka_matrix.cache_clear()
    for _ in scan_records(4, 7):
        pass
    assert suite_positivity(4, 7).instances
    assert calls == []
    assert tableaux.inverse_kostka_matrix.cache_info().misses == 0
    # The counter sees the calls that the characters suite does make.
    assert suite_characters(3).instances and calls


# ------------------------------------------------------------ planted fault

KOSTKA_CACHES = (
    tableaux.inverse_kostka_matrix,
    _induced_trivial_character,
    _weighted_monomial_rows,
)


@pytest.fixture
def kostka_fault(monkeypatch):
    """Plant K[(4)][(2,2)] = 2 in the Kostka kernel, under every name a module
    of the package binds it to.  The matrix stays integer and unitriangular,
    so only a check that does not read it can catch the fault."""
    real = tableaux.kostka_matrix

    def faulty(n):
        km = real(n)
        if n == 4:
            km = copy.deepcopy(km)
            km[(4,)][(2, 2)] = 2
        return km

    for name, module in list(sys.modules.items()):
        if name.startswith("immanants.") and vars(module).get("kostka_matrix") is real:
            monkeypatch.setattr(module, "kostka_matrix", faulty)
    for cached in KOSTKA_CACHES:
        cached.cache_clear()
    yield
    for cached in KOSTKA_CACHES:
        cached.cache_clear()


def test_a_planted_kostka_fault_breaks_the_phi_eta_duality(kostka_fault, monkeypatch):
    report = suite_characters(5)
    assert report.failures == [{"n": 4, "pair": [[4], [2, 2]], "basis": "phi-eta"}]
    # The triangular solve reads no Kostka number: its expansion is the one
    # found once the plant is gone.
    shape = skew_shape((2, 2, 2, 1), (1,))
    planted = h_positive_decomposition(immanant_character((4, 2), shape))
    monkeypatch.undo()
    for cached in KOSTKA_CACHES:
        cached.cache_clear()
    assert_same_expansion(planted, h_positive_decomposition(immanant_character((4, 2), shape)))
