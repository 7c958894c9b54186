"""Exact expansions of homogeneous symmetric functions in the m/h/s/p bases.

Conversions route through the Schur basis, with one transition matrix
per basis and direction: the Kostka matrix and its inverse for m and h,
and the irreducible character table for the power-sum basis.
Products are taken in the power-sum basis, where multiplication is
concatenation of indices.  Coefficients are exact: integers in the m, h
and s bases, rationals in the p basis.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import ClassFunction, character_table, zee
from .tableaux import (
    Partition,
    SkewShape,
    _by_partition,
    _Frozen,
    _json_ints,
    _json_object,
    _lr_row,
    check_partition,
    inverse_kostka_matrix,
    kostka_matrix,
    partition_key,
    partitions_of,
)

BASES = ("m", "h", "s", "p")

#: The largest degree in use: the `wide` benchmark converts a degree-11
#: immanant to the s basis and the CLI pins degree-12 output.  The change
#: of basis is cheap there (the degree-12 Kostka and character tables take
#: milliseconds); `immanant` checks the bound before its Jacobi-Trudi walk,
#: whose cost grows far faster with the degree.
MAX_DEGREE = 12


def _check_degree(n: int) -> None:
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the supported bound {MAX_DEGREE}")


class SymFunc(_Frozen):
    """A homogeneous symmetric function in one declared basis; `coeffs` maps partitions
    of `degree` to ints or Fractions."""

    __slots__ = ("basis", "degree", "coeffs")

    def coefficient(self, lam) -> "int | Fraction":
        return self.coeffs.get(check_partition(lam), 0)

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if (self.basis, self.degree) != (other.basis, other.degree):
            raise ValueError("can only add same-basis, same-degree expansions")
        merged = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            merged[lam] = merged.get(lam, 0) + c
        return sym_func(self.basis, self.degree, merged)

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-1) * other

    def __rmul__(self, c) -> "SymFunc":
        return sym_func(self.basis, self.degree, {l: c * v for l, v in self.coeffs.items()})

    def to_json(self) -> dict:
        coeffs = {}
        for lam in partitions_of(self.degree):
            if lam in self.coeffs:
                c = self.coeffs[lam]
                coeffs[partition_key(lam)] = c if isinstance(c, int) else str(c)
        return {"basis": self.basis, "degree": self.degree, "coeffs": coeffs}

    @staticmethod
    def from_json(obj: dict) -> "SymFunc":
        _json_object(obj, "basis", "degree", "coeffs")
        coeffs = _by_partition(obj["coeffs"])
        for lam, val in coeffs.items():
            # A float (or bool) would enter exact arithmetic as whatever it rounded to.
            if isinstance(val, bool) or not isinstance(val, (int, str)):
                raise ValueError(f"coefficient is not an int or an exact string: {val!r}")
            try:
                coeffs[lam] = val if isinstance(val, int) else Fraction(val)
            except ZeroDivisionError:
                raise ValueError(f"coefficient has a zero denominator: {val!r}") from None
        return sym_func(obj["basis"], _json_ints((obj["degree"],))[0], coeffs)

    def __str__(self) -> str:
        terms = []
        for lam in partitions_of(self.degree):
            if lam in self.coeffs:
                c = self.coeffs[lam]
                terms.append(f"{c}*{self.basis}{list(lam)}")
        return " + ".join(terms) if terms else "0"


def sym_func(basis: str, degree: int, coeffs: dict) -> SymFunc:
    """Normalize an expansion: validate indices, drop zeros, demote 1-denominators."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    clean: dict[Partition, "int | Fraction"] = {}
    for lam, c in coeffs.items():
        lam = check_partition(lam)
        if sum(lam) != degree:
            raise ValueError(f"index {list(lam)} has size {sum(lam)}, expected {degree}")
        if isinstance(c, Fraction) and c.denominator == 1:
            c = int(c)
        if c != 0:
            clean[lam] = c
    return SymFunc(basis, degree, clean)


def _require_integral(f: SymFunc) -> SymFunc:
    bad = {l: c for l, c in f.coeffs.items() if not isinstance(c, int)}
    if bad:
        raise ArithmeticError(f"non-integral coefficients in {f.basis} basis: {bad}")
    return f


def _transpose(matrix: dict) -> dict:
    """Transpose a square matrix whose rows and columns share one index set."""
    return {col: {row: matrix[row][col] for row in matrix} for col in matrix}


def _transition(basis: str, n: int, to_schur: bool) -> dict:
    """Change of basis between `basis` and the Schur basis in degree n.

    Row lam holds the expansion of the lam-th function of the source basis
    in the target basis: h_lam = sum K[theta][lam] s_theta,
    m_lam = sum Kinv[lam][theta] s_theta, p_rho = sum chi^lam(rho) s_lam,
    and s_lam = sum chi^lam(rho) / zee(rho) p_rho.
    """
    if basis == "h":
        return _transpose(kostka_matrix(n) if to_schur else inverse_kostka_matrix(n))
    if basis == "m":
        return inverse_kostka_matrix(n) if to_schur else kostka_matrix(n)
    table = character_table(n)
    if to_schur:
        return _transpose({lam: chi.values for lam, chi in table.items()})
    return {
        lam: {rho: Fraction(v, zee(rho)) for rho, v in chi.values.items()}
        for lam, chi in table.items()
    }


def _apply(matrix: dict, coeffs: dict) -> dict:
    out: dict[Partition, "int | Fraction"] = {}
    for lam, c in coeffs.items():
        for theta, k in matrix[lam].items():
            if k:
                out[theta] = out.get(theta, 0) + c * k
    return out


def convert(f: SymFunc, basis: str) -> SymFunc:
    """Exact change of basis; any direction, composed through the Schur basis."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
    _check_degree(f.degree)
    if basis == f.basis:
        return f
    coeffs = f.coeffs
    if f.basis != "s":
        coeffs = _apply(_transition(f.basis, f.degree, to_schur=True), coeffs)
    if basis != "s":
        coeffs = _apply(_transition(basis, f.degree, to_schur=False), coeffs)
    out = sym_func(basis, f.degree, coeffs)
    if basis in ("m", "h", "s") and f.basis in ("m", "h", "s"):
        _require_integral(out)
    return out


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product computed in the power-sum basis, returned in f's basis."""
    _check_degree(f.degree + g.degree)
    fp, gp = convert(f, "p"), convert(g, "p")
    out: dict[Partition, "int | Fraction"] = {}
    for a, ca in fp.coeffs.items():
        for b, cb in gp.coeffs.items():
            key = tuple(sorted(a + b, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return convert(sym_func("p", f.degree + g.degree, out), f.basis)


def sym_inner_product(f: SymFunc, g: SymFunc):
    """The inner product making the Schur basis orthonormal."""
    if f.degree != g.degree:
        return 0
    fs, gs = convert(f, "s"), convert(g, "s")
    total = 0
    for lam, c in fs.coeffs.items():
        d = gs.coeffs.get(lam)
        if d:
            total += c * d
    return total


def schur(lam) -> SymFunc:
    lam = check_partition(lam)
    return sym_func("s", sum(lam), {lam: 1})


def homogeneous(lam) -> SymFunc:
    lam = check_partition(lam)
    return sym_func("h", sum(lam), {lam: 1})


def skew_schur(shape: SkewShape) -> SymFunc:
    """Schur expansion of the skew Schur function: every LR coefficient from one walk."""
    return sym_func("s", shape.size, _lr_row(shape.outer, shape.inner))


def frobenius(chi: ClassFunction) -> SymFunc:
    """Frobenius characteristic: sum of chi(rho)/zee(rho) * p_rho."""
    coeffs = {rho: Fraction(v, zee(rho)) for rho, v in chi.values.items() if v}
    return sym_func("p", chi.n, coeffs)


def frobenius_inverse(f: SymFunc) -> ClassFunction:
    """Recover the class function whose characteristic is f (must be integral)."""
    fp = convert(f, "p")
    values = {}
    for rho in partitions_of(f.degree):
        c = zee(rho) * fp.coeffs.get(rho, 0)
        if c != int(c):
            raise ArithmeticError(f"not a virtual character: value at {rho} is {c}")
        values[rho] = int(c)
    return ClassFunction(f.degree, values)
