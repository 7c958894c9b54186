"""Integer class functions on symmetric groups and their standard bases.

A virtual character is represented by its values on cycle types.  Three
bases of the space of virtual characters are provided: the irreducible
characters (computed by the Murnaghan-Nakayama recursion), the induced
trivial characters (Kostka-positive sums of irreducibles), and the
monomial virtual characters (obtained by inverting the unitriangular
Kostka matrix, so everything stays in exact integer arithmetic).
"""

from __future__ import annotations

import math
from functools import cache
from operator import mul
from typing import TYPE_CHECKING

from .tableaux import (
    Partition,
    _as_ints,
    _Frozen,
    check_partition,
    inverse_kostka_matrix,
    kostka_matrix,
    partition_from_key,
    partition_key,
    partitions_of,
)

if TYPE_CHECKING:
    from fractions import Fraction  # imported where one is built: `gamma` never needs it


@cache
def _class_set(n: int) -> frozenset[Partition]:
    """The cycle types of S_n, as the key set every class function on S_n has."""
    return frozenset(partitions_of(n))


@cache
def zee(rho: Partition) -> int:
    """Centralizer order: product of i^m_i * m_i! over part multiplicities."""
    out = 1
    mult: dict[int, int] = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        out *= part**m * math.factorial(m)
    return out


def class_size(rho: Partition) -> int:
    """Number of permutations with cycle type rho."""
    return math.factorial(sum(rho)) // zee(rho)


class ClassFunction(_Frozen):
    """An integer-valued function on the cycle types of S_n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict[Partition, int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)
        if values.keys() != _class_set(n):
            self._refuse()

    def _refuse(self):
        """Raise the ValueError naming the keys that are not cycle types of S_n, then
        the cycle types that have no value."""
        classes, keys = _class_set(self.n), self.values.keys()
        unexpected, missing = keys - classes, classes - keys
        problems = []
        if unexpected:
            problems.append(f"unexpected cycle types {sorted(unexpected, key=repr)} for S_{self.n}")
        if missing:
            problems.append(f"missing values for cycle types {sorted(missing)}")
        raise ValueError("; ".join(problems))

    def __call__(self, rho) -> int:
        return self.values[check_partition(rho)]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValueError(f"cannot add class functions on S_{self.n} and S_{other.n}")
        return ClassFunction(self.n, {r: v + other.values[r] for r, v in self.values.items()})

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self + (-1) * other

    def __rmul__(self, c: int) -> "ClassFunction":
        return ClassFunction(self.n, {r: c * v for r, v in self.values.items()})

    def to_json(self) -> dict:
        order = reversed(partitions_of(self.n))  # identity class first
        return {
            "n": self.n,
            "values": {partition_key(r): self.values[r] for r in order},
        }

    @staticmethod
    def from_json(obj: dict) -> "ClassFunction":
        keys = map(partition_from_key, obj["values"])
        values = dict(zip(keys, _as_ints(obj["values"].values())))
        return ClassFunction(_as_ints((obj["n"],))[0], values)


def zero_character(n: int) -> ClassFunction:
    return ClassFunction(n, {rho: 0 for rho in partitions_of(n)})


def trivial_character(n: int) -> ClassFunction:
    return ClassFunction(n, {rho: 1 for rho in partitions_of(n)})


def sign_character(n: int) -> ClassFunction:
    return ClassFunction(n, {rho: (-1) ** (n - len(rho)) for rho in partitions_of(n)})


def _beta_numbers(shape: Partition) -> tuple[int, ...]:
    ell = len(shape)
    return tuple(shape[i] + ell - 1 - i for i in range(ell))


def _shape_from_betas(betas: list[int]) -> Partition:
    betas = sorted(betas, reverse=True)
    ell = len(betas)
    parts = tuple(b - (ell - 1 - i) for i, b in enumerate(betas))
    return check_partition(parts)


@cache
def _mn_value(shape: Partition, rho: Partition) -> int:
    """Murnaghan-Nakayama: alternating sum over border-strip removals."""
    if not rho:
        return 1 if not shape else 0
    strip, rest = rho[0], rho[1:]
    betas = _beta_numbers(shape)
    beta_set = set(betas)
    total = 0
    for b in betas:
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new_shape = _shape_from_betas([nb if c == b else c for c in betas])
        term = _mn_value(new_shape, rest)
        total += -term if height % 2 else term
    return total


def irreducible_character(lam) -> ClassFunction:
    lam = check_partition(lam)
    n = sum(lam)
    return ClassFunction(n, {rho: _mn_value(lam, rho) for rho in partitions_of(n)})


def character_table(n: int) -> dict[Partition, ClassFunction]:
    return {lam: irreducible_character(lam) for lam in partitions_of(n)}


def _irreducible_sum(n: int, coeffs: dict[Partition, int]) -> ClassFunction:
    """Sum over theta of coeffs[theta] times the irreducible character at theta."""
    out = zero_character(n)
    for theta in partitions_of(n):
        if coeffs[theta]:
            out = out + coeffs[theta] * irreducible_character(theta)
    return out


@cache
def induced_trivial_character(lam) -> ClassFunction:
    """Permutation character on cosets of the Young subgroup of shape lam."""
    lam = check_partition(lam)
    n = sum(lam)
    km = kostka_matrix(n)
    return _irreducible_sum(n, {theta: km[theta][lam] for theta in partitions_of(n)})


@cache
def monomial_character(lam) -> ClassFunction:
    """The virtual character dual to the induced trivial basis."""
    lam = check_partition(lam)
    n = sum(lam)
    return _irreducible_sum(n, inverse_kostka_matrix(n)[lam])


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Fraction:
    """(1/n!) sum over S_n of chi*psi, evaluated class by class."""
    if chi.n != psi.n:
        raise ValueError(f"mismatched group sizes {chi.n} and {psi.n}")
    from fractions import Fraction

    total = sum(class_size(rho) * chi.values[rho] * psi.values[rho] for rho in chi.values)
    return Fraction(total, math.factorial(chi.n))


def induction_product(phi: ClassFunction, psi: ClassFunction) -> ClassFunction:
    """Character induced from the outer product on S_k x S_r inside S_{k+r}.

    Under the Frobenius map this is the product of power sums: the pair of
    cycle types (a, b) lands on rho = a + b, weighted by
    zee(rho) / (zee(a) * zee(b)), the number of ways to share the labelled
    cycles of rho between a and b.
    """
    n = phi.n + psi.n
    values = dict.fromkeys(partitions_of(n), 0)
    for a, x in phi.values.items():
        if not x:
            continue
        for b, y in psi.values.items():
            if y:
                rho = tuple(sorted(a + b, reverse=True))
                values[rho] += zee(rho) // (zee(a) * zee(b)) * x * y
    return ClassFunction(n, values)


class HPositiveDecomposition(_Frozen):
    """Expansion of a class function over the induced trivial basis.

    Coefficients are ints when the expansion is integral, and Fractions
    otherwise (an int equals the Fraction of the same value).
    """

    __slots__ = ("n", "coefficients", "is_integral", "is_nonnegative")

    def __init__(
        self,
        n: int,
        coefficients: dict[Partition, int | Fraction],
        is_integral: bool,
        is_nonnegative: bool,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "is_integral", is_integral)
        object.__setattr__(self, "is_nonnegative", is_nonnegative)

    def coefficient(self, lam) -> int | Fraction:
        return self.coefficients[check_partition(lam)]

    def to_json(self) -> dict:
        coeffs = {}
        for lam, key in _partition_keys(self.n):
            c = self.coefficients[lam]
            coeffs[key] = int(c) if c.denominator == 1 else str(c)
        return {
            "n": self.n,
            "coefficients": coeffs,
            "integral": self.is_integral,
            "nonnegative": self.is_nonnegative,
        }


@cache
def _partition_keys(n: int) -> list[tuple[Partition, str]]:
    """(lam, partition_key(lam)) over partitions_of(n), in that order."""
    return [(lam, partition_key(lam)) for lam in partitions_of(n)]


@cache
def _weighted_monomial_rows(n: int) -> dict[Partition, list[int]]:
    """Per lam, class_size(rho) * phi_lam(rho) over partitions_of(n): the
    n!-scaled inner product with phi_lam is one dot product with this row."""
    classes = partitions_of(n)
    return {
        lam: [class_size(rho) * monomial_character(lam).values[rho] for rho in classes]
        for lam in classes
    }


def h_positive_decomposition(chi: ClassFunction) -> HPositiveDecomposition:
    """Coefficients of chi over the induced trivial characters.

    The coefficient at lam is the inner product with the dual monomial
    virtual character, computed n!-scaled in integers.  Non-integral
    coefficients mean chi is not a virtual character; they are reported as
    Fractions, not raised.  Integral results are ints, and the expansion is
    re-summed and checked against chi exactly.
    """
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
        from fractions import Fraction

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
