"""Machine verification sweeps for the identities behind the library.

Each check runs a family of instances and returns a report with the
instance count and explicit witnesses for any failures.  A failure here
would falsify the implementation, not the theorems being exercised.
"""

from __future__ import annotations

import math
import random
from itertools import compress, count, product
from operator import getitem, sub

from .characters import (
    ClassFunction,
    character_table,
    h_positive_decomposition,
    induced_trivial_character,
    induction_product,
    inner_product,
    monomial_character,
    sign_character,
    zee,
)
from .immanant_characters import (
    collected_coefficient,
    hook_decompositions,
    immanant_character,
    immanant_characters,
    is_dahlberg_small,
    stanley_stembridge_character,
)
from .jacobitrudi import hessenberg_from_skew, immanant, jt_matrix
from .permutations import sn_layout
from .reductions import (
    components,
    immanant_character_from_components,
    induce_up,
    remove_empty_rows,
)
from .symfunc import convert, skew_schur
from .tableaux import (
    SkewShape,
    _Record,
    _ssyt_count,
    check_partition,
    connected_skew_shapes,
    hook_partition,
    hooks_of,
    is_hook,
    kostka,
    kostka_hook,
    partitions_of,
    skew_shape,
)


class CheckReport(_Record):
    """Outcome of one named verification check; mutable, so not hashable."""

    __slots__ = ("name", "instances", "failures")

    def __init__(self, name: str, instances: int = 0, failures: list[dict] | None = None):
        self.name = name
        self.instances = instances
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "CheckReport") -> None:
        self.instances += other.instances
        self.failures.extend(other.failures)

    def to_json(self) -> dict:
        return {
            "proposition": self.name,
            "instances": self.instances,
            "failures": self.failures,
        }


#: Byte translation of a bin() digit string into 0/1 flags for `compress`.
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def verify_hook_decompositions(shape: SkewShape, thetas) -> CheckReport:
    """Check the hook expansion of one shape at each hook theta.

    Verifies, for every permutation, that the Kostka number of the
    shuffled content equals the number of lowered Hessenberg functions
    admitting the permutation; verifies the class-function equality that
    follows; and checks the closed-form collected multiplicities against
    the enumerated ones.  One pass over S_n sorts every permutation's
    content once for all thetas, and each distinct content's Kostka number
    is counted once per theta.  Each summand's admitted permutations are
    one bitmask (see `permutations.sn_layout`); permutations are walked one
    by one only to report witnesses, which come in theta order.
    """
    thetas = [check_partition(theta) for theta in thetas]
    report = CheckReport("hook-expansion")
    if not thetas:
        return report
    decomps = hook_decompositions(shape, thetas)
    n = shape.rows
    perms, classes, below = sn_layout(n)
    # content_vector(shape, w) holds the subscript at row w(i), column i; with
    # column i of the grid behind a placeholder, that is columns[i][w(i)].
    columns = [(None, *col) for col in zip(*jt_matrix(shape).sub)]
    ids: dict[tuple, int] = {}
    content_id = [
        ids.setdefault(tuple(sorted(map(getitem, columns, w))), len(ids)) for w in perms
    ]
    # Sorted keys with no negative entry are distinct partitions once zeros go;
    # a negative subscript is a zero matrix entry on the diagonal of w.
    contents = [None if key[0] < 0 else tuple(filter(None, reversed(key))) for key in ids]
    everyone = (1 << len(perms)) - 1
    for theta in thetas:
        decomp = decomps[theta]
        where = {"shape": shape.to_json(), "theta": list(theta)}
        k = decomp.leg
        base = decomp.base.values
        # Sandwich invariant: every summand sits between h-1 and h pointwise.
        for h, _ in decomp.summands:
            if not all(b - 1 <= v <= b for v, b in zip(h.values, base)):
                report.failures.append({**where, "bad_summand": list(h.values)})
        total = decomp.total_multiplicity
        if total != math.comb(n - 1, k):
            report.failures.append(
                {**where, "error": f"expected binom({n - 1},{k}) summands, got {total}"}
            )
        for h, _ in decomp.summands:
            try:
                collected_coefficient(decomp, h)
            except AssertionError as exc:
                report.failures.append({**where, "error": str(exc)})

        by_content = [0 if c is None else _ssyt_count(theta, (), c) for c in contents]
        kval = list(map(by_content.__getitem__, content_id))
        sval = [0] * len(perms)
        for h, mult in decomp.summands:
            admitted = everyone
            for masks, v in zip(below, h.values):
                admitted &= masks[v]
            for p in compress(count(), bin(admitted)[:1:-1].encode().translate(_BIT_FLAGS)):
                sval[p] += mult
        if kval != sval:
            for w, kv, sv in zip(perms, kval, sval):
                if kv != sv:
                    report.failures.append(
                        {**where, "w": list(w), "kostka": kv, "indicator_sum": sv}
                    )
        lhs = {rho: zee(rho) * sum(kval[start:stop]) for rho, start, stop in classes}
        rhs = {rho: zee(rho) * sum(sval[start:stop]) for rho, start, stop in classes}
        if lhs != rhs:
            report.failures.append(
                {
                    **where,
                    "error": "class functions differ",
                    "lhs": {str(list(r)): v for r, v in lhs.items()},
                    "rhs": {str(list(r)): v for r, v in rhs.items()},
                }
            )
        report.instances += 1
    return report


def verify_hook_decomposition(theta, shape: SkewShape) -> CheckReport:
    """Check the hook expansion at one theta; the one-theta case of `verify_hook_decompositions`."""
    return verify_hook_decompositions(shape, (theta,))


def _bounded_connected_shapes(max_n: int, max_size: int):
    """Connected shapes with 1 to max_n rows and at most max_size boxes."""
    for n in range(1, max_n + 1):
        for size in range(n, max_size + 1):
            yield from connected_skew_shapes(n, size)


def _shape_hooks(shape: SkewShape) -> list:
    """Hooks of the shape's size with leg at most rows - 1, leg 0 first."""
    return [hook_partition(shape.size, k) for k in range(min(shape.rows, shape.size))]


def suite_hook(max_n: int = 5, max_size: int = 9) -> CheckReport:
    """Hook expansion over every connected shape and hook within bounds."""
    report = CheckReport("hook-expansion")
    for shape in _bounded_connected_shapes(max_n, max_size):
        report.merge(verify_hook_decompositions(shape, _shape_hooks(shape)))
    return report


def verify_character_equality(
    name: str, lhs: ClassFunction, rhs: ClassFunction, context: dict
) -> CheckReport:
    report = CheckReport(name, instances=1)
    if lhs != rhs:
        diffs = {
            str(list(rho)): [lhs.values[rho], rhs.values[rho]]
            for rho in lhs.values
            if lhs.values[rho] != rhs.values.get(rho)
        }
        report.failures.append({**context, "differs_at": diffs})
    return report


def _agree(name: str, context: dict, gammas: dict, other) -> CheckReport:
    """Check that each theta's character in gammas equals other(theta)."""
    report = CheckReport(name)
    for theta, gamma in gammas.items():
        where = {**context, "theta": list(theta)}
        report.merge(verify_character_equality(name, gamma, other(theta), where))
    return report


def verify_empty_row_removal(shape: SkewShape) -> CheckReport:
    """Dropping empty rows leaves the immanant character unchanged."""
    reduced = remove_empty_rows(shape)
    padded = skew_shape(reduced.outer, reduced.inner, shape.rows)
    by_padded = immanant_characters(padded)
    gammas = immanant_characters(shape)
    return _agree("empty-row-removal", {"shape": shape.to_json()}, gammas, by_padded.__getitem__)


def verify_component_reorder(a: SkewShape, b: SkewShape) -> CheckReport:
    """Shapes with identical components have identical immanant characters."""
    if a.rows != b.rows or a.size != b.size:
        raise ValueError("shapes must share the same row count and size")
    by_b = immanant_characters(b)
    gammas = immanant_characters(a)
    return _agree(
        "component-reorder", {"shapes": [a.to_json(), b.to_json()]}, gammas, by_b.__getitem__
    )


def verify_disconnected_product(shape: SkewShape) -> CheckReport:
    """The component product formula agrees with the direct computation."""
    return _agree(
        "disconnected-product",
        {"shape": shape.to_json()},
        immanant_characters(shape),
        lambda theta: immanant_character_from_components(theta, shape),
    )


def verify_stanley_stembridge_product(shape: SkewShape) -> CheckReport:
    """On disconnected shapes the top character factors as one induction product."""
    report = CheckReport("stanley-stembridge-product", instances=1)
    comps = components(remove_empty_rows(shape))
    if len(comps) < 2:
        raise ValueError("need a disconnected shape")
    prod = stanley_stembridge_character(hessenberg_from_skew(comps[0]))
    for comp in comps[1:]:
        prod = induction_product(prod, stanley_stembridge_character(hessenberg_from_skew(comp)))
    direct = immanant_character((shape.size,), shape)
    if direct != prod:
        report.failures.append({"shape": shape.to_json()})
    return report


def verify_induction_stability(shape: SkewShape) -> CheckReport:
    """Adding one empty row means inducing up one letter."""
    bigger = skew_shape(shape.outer, shape.inner, shape.rows + 1)
    by_shape = immanant_characters(shape)
    return _agree(
        "induction-stability",
        {"shape": shape.to_json()},
        immanant_characters(bigger),
        lambda theta: induce_up(by_shape[theta]),
    )


def suite_kostka(max_n: int = 5, max_size: int = 8) -> CheckReport:
    """Closed hook formula vs direct counting over bounded contents."""
    report = CheckReport("hook-kostka")
    by_total: dict[int, list[tuple[int, ...]]] = {}
    for content in product(range(5), repeat=6):
        by_total.setdefault(sum(content), []).append(content)
    for total in range(0, max_size + 1):
        for theta in hooks_of(total):
            for content in by_total.get(total, ()):
                report.instances += 1
                if kostka(theta, content) != kostka_hook(theta, content):
                    report.failures.append(
                        {"theta": list(theta), "content": list(content)}
                    )
    return report


def suite_characters(max_n: int = 7, max_size: int = 0) -> CheckReport:
    """Orthonormality of irreducibles and duality of the eta/phi bases."""
    report = CheckReport("character-duality")
    for n in range(0, max_n + 1):
        parts = partitions_of(n)
        irr = character_table(n)
        eta = {lam: induced_trivial_character(lam) for lam in parts}
        phi = {lam: monomial_character(lam) for lam in parts}
        for a in parts:
            for b in parts:
                report.instances += 2
                want = 1 if a == b else 0
                if inner_product(irr[a], irr[b]) != want:
                    report.failures.append({"n": n, "pair": [list(a), list(b)], "basis": "irr"})
                if inner_product(phi[a], eta[b]) != want:
                    report.failures.append({"n": n, "pair": [list(a), list(b)], "basis": "phi-eta"})
    return report


#: Seed of the random class functions drawn by `suite_immanant`.
IMMANANT_SEED = 24061859


def _immanant_test_shapes() -> list[SkewShape]:
    return [
        skew_shape((2, 2, 2), (1,)),
        skew_shape((3, 2, 1)),
        skew_shape((3, 3, 1), (1,)),
        skew_shape((2, 2, 1, 1), (1, 1)),
        skew_shape((4, 2, 1), (2,)),
        skew_shape((3, 3, 3, 1), (1, 1)),
        skew_shape((2, 1), (), 3),
        skew_shape((3, 1), (1,), 4),
        skew_shape((2, 2), ()),
        skew_shape((5, 4, 2, 1), (3, 2)),
    ]


def suite_immanant(max_n: int = 4, max_size: int = 8) -> CheckReport:
    """Sign immanants against skew Schur functions, and the inner-product law.

    The second half draws random integer class functions and checks that
    every Schur coefficient of their immanant equals the inner product
    with the matching immanant character.
    """
    report = CheckReport("immanant-inner-product")
    rng = random.Random(IMMANANT_SEED)
    for shape in _immanant_test_shapes():
        if shape.rows > max_n or shape.size > max_size:
            continue
        n = shape.rows
        report.instances += 1
        det = convert(immanant(sign_character(n), shape), "s")
        if det.coeffs != skew_schur(shape).coeffs:
            report.failures.append({"shape": shape.to_json(), "check": "determinant"})
        gammas = immanant_characters(shape)
        for _ in range(5):
            phi = ClassFunction(
                n, {rho: rng.randint(-5, 5) for rho in partitions_of(n)}
            )
            report.instances += 1
            expansion = convert(immanant(phi, shape), "s")
            for theta, gamma in gammas.items():
                if inner_product(gamma, phi) != expansion.coeffs.get(theta, 0):
                    report.failures.append(
                        {
                            "shape": shape.to_json(),
                            "theta": list(theta),
                            "phi": phi.to_json(),
                        }
                    )
    return report


def _assemble_disconnected(top: SkewShape, bottom: SkewShape) -> SkewShape:
    """Stack two shapes into one skew shape with exactly their components."""
    shift = bottom.outer[0] if bottom.outer else 0
    outer = tuple(x + shift for x in top.padded()[0]) + bottom.padded()[0]
    inner = tuple(x + shift for x in top.padded()[1]) + bottom.padded()[1]
    return skew_shape(outer, inner, top.rows + bottom.rows)


def suite_reductions(max_n: int = 5, max_size: int = 8) -> CheckReport:
    """Golden reduction pairs plus bounded product and induction sweeps."""
    report = CheckReport("reductions")
    report.merge(verify_empty_row_removal(skew_shape((5, 4, 2, 2, 1), (3, 2, 2))))
    report.merge(
        verify_component_reorder(
            skew_shape((5, 4, 2, 1), (3, 2)), skew_shape((5, 4, 3, 2), (3, 3, 1))
        )
    )
    report.merge(verify_disconnected_product(skew_shape((5, 4, 2, 1), (3, 2))))
    report.merge(verify_stanley_stembridge_product(skew_shape((5, 4, 2, 1), (3, 2))))
    small = [
        skew_shape((2, 1)),
        skew_shape((2, 2), (1,)),
        skew_shape((3, 1), (1,)),
        skew_shape((1, 1, 1)),
        skew_shape((2, 2, 1)),
        skew_shape((3, 2), (2,)),
        skew_shape((2, 2, 2), (1, 1)),
        skew_shape((3, 3), (2, 1)),
        skew_shape((4, 3), (2, 1)),
        skew_shape((2, 2, 1, 1), (1, 1)),
    ]
    for shape in small:
        if shape.rows <= max_n and shape.size <= max_size:
            report.merge(verify_induction_stability(shape))
    pairs = [
        (skew_shape((1,)), skew_shape((2, 1))),
        (skew_shape((2,)), skew_shape((2, 2), (1,))),
        (skew_shape((2, 1)), skew_shape((1, 1))),
    ]
    for top, bottom in pairs:
        shape = _assemble_disconnected(top, bottom)
        if shape.rows <= max_n and shape.size <= max_size:
            report.merge(verify_disconnected_product(shape))
            report.merge(verify_stanley_stembridge_product(shape))
            report.merge(
                verify_component_reorder(shape, _assemble_disconnected(bottom, top))
            )
    return report


def preabelian_example_shapes() -> list[SkewShape]:
    return [
        skew_shape((4, 4, 4, 4), (1,)),
        skew_shape((6, 5, 4, 4), (2, 1)),
        skew_shape((2, 2, 2, 2)),
    ]


def suite_positivity(max_n: int = 5, max_size: int = 8) -> CheckReport:
    """Induced-trivial positivity on the pre-abelian and small-excess families."""
    report = CheckReport("hook-positivity")
    targets = preabelian_example_shapes() + [
        shape
        for shape in _bounded_connected_shapes(max_n, max_size)
        if is_dahlberg_small(hessenberg_from_skew(shape))
    ]
    for shape in targets:
        for theta, gamma in immanant_characters(shape, _shape_hooks(shape)).items():
            report.instances += 1
            dec = h_positive_decomposition(gamma)
            if not (dec.is_integral and dec.is_nonnegative):
                report.failures.append(
                    {"shape": shape.to_json(), "theta": list(theta), "coeffs": dec.to_json()}
                )
    return report


SUITES = {
    "kostka": suite_kostka,
    "characters": suite_characters,
    "immanant": suite_immanant,
    "hook": suite_hook,
    "reductions": suite_reductions,
    "positivity": suite_positivity,
}


def run_suites(names, max_n: int, max_size: int) -> list[CheckReport]:
    if "all" in names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; choose from {sorted(SUITES)} or 'all'")
    return [SUITES[name](max_n, max_size) for name in names]


def scan_records(max_n: int, max_size: int):
    """Stream one evidence record per (connected shape, theta) in bounds.

    Every record carries the induced-trivial expansion of the immanant
    character; hooks additionally carry their proven expansion.  The
    records report evidence only and assert nothing about open cases.
    The records of one shape share its "shape" and "h" values.
    """
    for shape in _bounded_connected_shapes(max_n, max_size):
        shape_json = shape.to_json()
        h_values = list(hessenberg_from_skew(shape).values)
        mu, nu = shape.padded()
        # The identity's content is the row widths, all positive on a connected shape.
        widths = tuple(sorted(map(sub, mu, nu), reverse=True))
        gammas = immanant_characters(shape)
        hooks = hook_decompositions(shape, filter(is_hook, gammas))
        for theta, gamma in gammas.items():
            dec = h_positive_decomposition(gamma)
            record = {
                "shape": shape_json,
                "theta": list(theta),
                "hook": theta in hooks,
                "h": h_values,
                "identity_kostka": _ssyt_count(theta, (), widths),
                "eta_expansion": dec.to_json(),
                "h_positive": dec.is_integral and dec.is_nonnegative,
            }
            if record["hook"]:
                record["summands"] = [
                    {"h": list(h.values), "mult": m} for h, m in hooks[theta].summands
                ]
            yield record
