"""Reductions that shrink immanant-character computations.

Empty rows can be deleted, connected components can be reordered or
split off, and a character computed on the minimal number of rows
induces up to any larger symmetric group.  Disconnected shapes factor
through induction products of their components weighted by
Littlewood-Richardson coefficients.
"""

from __future__ import annotations

from .characters import (
    ClassFunction,
    induced_trivial_character,
    induction_product,
    trivial_character,
    zero_character,
)
from .immanant_characters import check_theta_size, immanant_characters
from .tableaux import (
    SkewShape,
    _lr_row,
    check_partition,
    contains,
    partitions_of,
    skew_shape,
)


def remove_empty_rows(shape: SkewShape) -> SkewShape:
    """Drop every row with no boxes (including padding rows)."""
    mu, nu = shape.padded()
    keep = [(m, v) for m, v in zip(mu, nu) if m > v]
    return skew_shape(
        tuple(m for m, _ in keep), tuple(v for _, v in keep), len(keep)
    )


def components(shape: SkewShape) -> list[SkewShape]:
    """Maximal blocks of consecutive overlapping rows, re-based to column 1.

    Requires a shape with no empty rows.  Two consecutive rows belong to
    the same component when the lower row reaches the upper row's first
    column.  Each block is shifted left so it becomes a skew shape in its
    own right.
    """
    if shape.rows == 0:
        return []
    if shape.has_empty_rows:
        raise ValueError("components are defined for shapes with no empty rows")
    mu, nu = shape.padded()
    n = shape.rows
    blocks = []
    start = 0
    for i in range(n - 1):
        if mu[i + 1] <= nu[i]:
            blocks.append((start, i + 1))
            start = i + 1
    blocks.append((start, n))
    out = []
    for lo, hi in blocks:
        offset = nu[hi - 1]
        out.append(
            skew_shape(
                tuple(mu[i] - offset for i in range(lo, hi)),
                tuple(nu[i] - offset for i in range(lo, hi)),
                hi - lo,
            )
        )
    return out


def induce_up(chi: ClassFunction) -> ClassFunction:
    """Induce from S_n to S_{n+1}: the induction product with the trivial character of S_1.

    The value at a cycle type is the number of fixed points times the
    value at the type with one fixed point removed; classes without
    fixed points meet the smaller group in nothing and get 0.
    """
    return induction_product(chi, trivial_character(1))


def induce_to(chi: ClassFunction, n: int) -> ClassFunction:
    """Induce from S_m to S_n: the induction product with the regular character
    of S_(n-m), which is the induced trivial character at (1^(n-m))."""
    if n < chi.n:
        raise ValueError(f"cannot induce from S_{chi.n} down to S_{n}")
    return induction_product(chi, induced_trivial_character((1,) * (n - chi.n)))


def immanant_character_from_components(theta, shape: SkewShape) -> ClassFunction:
    """Immanant character of a disconnected shape from its components.

    Splits off the top component and recurses: the character is the
    LR-weighted sum of induction products over the ways of sharing theta
    between the split.  Rejects connected input; padding rows are handled
    by inducing the minimal-row answer up to the requested row count.
    """
    theta = check_partition(theta)
    check_theta_size(theta, shape)
    reduced = remove_empty_rows(shape)
    comps = components(reduced)
    if len(comps) < 2:
        raise ValueError("shape is connected; compute the immanant character directly")
    return induce_to(_product_over_components(theta, comps), shape.rows)


def _product_over_components(theta, comps: list[SkewShape]) -> ClassFunction:
    """The induction-product expansion over comps, one character count per component.

    Bottom up, fold each component's characters (lam) into the products of
    the components after it (tau): the product at sigma sums, over lam
    inside sigma and every tau in the LR row of sigma/lam (one walk),
    c^sigma_{lam tau} times the induction product of the two.  Inner splits
    fill every sigma of their size; the top split only theta.
    """
    products = immanant_characters(comps[-1])
    size, n = comps[-1].size, comps[-1].rows
    for i in range(len(comps) - 2, -1, -1):
        lefts = immanant_characters(comps[i])
        size += comps[i].size
        n += comps[i].rows
        rights, products = products, {}
        for sigma in partitions_of(size) if i else [theta]:
            out = zero_character(n)
            for lam, left in lefts.items():
                if contains(lam, sigma):
                    for tau, c in _lr_row(sigma, lam).items():
                        out = out + c * induction_product(left, rights[tau])
            products[sigma] = out
    return products[theta]
