"""Integer class functions on symmetric groups and their standard bases.

A virtual character is represented by its values on cycle types.  Three
bases of the space of virtual characters are provided: the irreducible
characters (Murnaghan-Nakayama on beta-sets), the induced trivial
characters (induction products of trivial characters), and the monomial
virtual characters (the exact inverse Kostka matrix times the
irreducibles); the last two are built apart, so their duality checks K^-1.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from typing import TYPE_CHECKING

from .tableaux import (
    Partition,
    _by_partition,
    _Frozen,
    _json_ints,
    _json_object,
    check_partition,
    inverse_kostka_matrix,
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
        rho = check_partition(rho)
        if sum(rho) != self.n:
            raise ValueError(f"{list(rho)} is not a cycle type of S_{self.n}")
        return self.values[rho]

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
        _json_object(obj, "n", "values")
        n, values = obj["n"], _by_partition(obj["values"])
        _json_ints((n, *values.values()))
        return ClassFunction(n, values)


def zero_character(n: int) -> ClassFunction:
    return ClassFunction(n, {rho: 0 for rho in partitions_of(n)})


def trivial_character(n: int) -> ClassFunction:
    return ClassFunction(n, {rho: 1 for rho in partitions_of(n)})


def sign_character(n: int) -> ClassFunction:
    return ClassFunction(n, {rho: (-1) ** (n - len(rho)) for rho in partitions_of(n)})


@cache
def _mn_value(beads: frozenset[int], rho: Partition) -> int:
    """Murnaghan-Nakayama on the beta-set of a shape, its beads lam_i + l - i (none at 0):
    removing a border strip of length r moves a bead b to a free position b - r, with
    sign (-1) to the number of beads strictly between.  A bead at 0 is an empty last
    row; each is dropped and the others shifted down, so each shape has one beta-set."""
    if not rho:
        return int(not beads)
    total = 0
    for b in beads:
        c = b - rho[0]
        if c < 0 or c in beads:
            continue
        moved = beads - {b} | {c}
        while 0 in moved:
            moved = frozenset(x - 1 for x in moved if x)
        term = _mn_value(moved, rho[1:])
        total += -term if sum(c < x < b for x in beads) % 2 else term
    return total


def irreducible_character(lam) -> ClassFunction:
    lam = check_partition(lam)
    n, beads = sum(lam), frozenset(part + len(lam) - i for i, part in enumerate(lam, 1))
    return ClassFunction(n, {rho: _mn_value(beads, rho) for rho in partitions_of(n)})


def character_table(n: int) -> dict[Partition, ClassFunction]:
    return {lam: irreducible_character(lam) for lam in partitions_of(n)}


def induced_trivial_character(lam) -> ClassFunction:
    """Permutation character on cosets of the Young subgroup of shape lam: the
    induction product of the trivial characters of its parts (no Kostka number)."""
    return _induced_trivial_character(check_partition(lam))


@cache
def _induced_trivial_character(lam: Partition) -> ClassFunction:
    return reduce(induction_product, map(trivial_character, lam), trivial_character(0))


def monomial_character(lam) -> ClassFunction:
    """The dual of the induced trivial basis: row lam of K^-1 times the irreducibles."""
    lam = check_partition(lam)
    out = zero_character(sum(lam))
    for theta, c in inverse_kostka_matrix(sum(lam))[lam].items():
        if c:
            out = out + c * irreducible_character(theta)
    return out


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
    """Expansion of a class function over the induced trivial basis, keyed in
    `partitions_of` order (see `h_positive_decomposition`).

    Coefficients are ints when the expansion is integral, and Fractions
    otherwise (an int equals the Fraction of the same value).  `is_integral`
    and `is_nonnegative` are bools.
    """

    __slots__ = ("n", "coefficients", "is_integral", "is_nonnegative")

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


def h_positive_decomposition(chi: ClassFunction) -> HPositiveDecomposition:
    """Coefficients of chi over the induced trivial characters.

    One triangular solve of chi = sum of c_lam * eta_lam: eta_lam(rho) is 0
    unless the cycles of rho merge into the blocks of lam, so unless lam comes
    at or before rho in `partitions_of` order, and eta_rho(rho) = prod m_i(rho)!.
    Walking rho in that order, c_rho is what the earlier terms leave of chi(rho),
    divided by eta_rho(rho).  Non-integral coefficients mean chi is not a
    virtual character; they are reported as Fractions, not raised.
    """
    n = chi.n
    coeffs: dict[Partition, int | Fraction] = {}
    integral = True
    for rho in partitions_of(n):
        rest = chi.values[rho] - sum(
            c * _induced_trivial_character(lam).values[rho] for lam, c in coeffs.items() if c
        )
        pivot = _induced_trivial_character(rho).values[rho]
        if rest % pivot:
            from fractions import Fraction

            coeffs[rho], integral = Fraction(rest, pivot), False
        else:
            coeffs[rho] = rest // pivot
    if not integral:
        coeffs = {lam: Fraction(c) for lam, c in coeffs.items()}
    nonneg = all(c >= 0 for c in coeffs.values())
    return HPositiveDecomposition(n, coeffs, integral, nonneg)
