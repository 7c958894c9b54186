"""Machine verification sweeps for the identities behind the library.

Each check runs a family of instances and returns a report with the
instance count and explicit witnesses for any failures.  A failure here
would falsify the implementation, not the theorems being exercised.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from itertools import product
from operator import getitem

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
    hook_decomposition,
    immanant_character,
    immanant_characters,
    is_dahlberg_small,
    stanley_stembridge_character,
)
from .jacobitrudi import hessenberg_from_skew, immanant, jt_matrix
from .permutations import conjugacy_classes
from .reductions import (
    components,
    immanant_character_from_components,
    induce_up,
    remove_empty_rows,
)
from .symfunc import convert, skew_schur
from .tableaux import (
    SkewShape,
    check_partition,
    connected_skew_shapes,
    hook_leg,
    hook_partition,
    hooks_of,
    is_hook,
    kostka,
    kostka_hook,
    partitions_of,
    skew_shape,
)


@dataclass
class CheckReport:
    """Outcome of one named verification check."""

    name: str
    instances: int = 0
    failures: list[dict] = field(default_factory=list)

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


def verify_hook_decompositions(shape: SkewShape, thetas) -> CheckReport:
    """Check the hook expansion of one shape at each hook theta.

    Verifies, for every permutation, that the Kostka number of the
    shuffled content equals the number of lowered Hessenberg functions
    admitting the permutation; verifies the class-function equality that
    follows; and checks the closed-form collected multiplicities against
    the enumerated ones.  One pass over S_n builds every permutation's
    sorted content once for all thetas; failures come in theta order.
    """
    thetas = [check_partition(theta) for theta in thetas]
    n = shape.rows
    # content_vector(shape, w) holds the subscript at row w(i), column i; with
    # column i of the grid behind a placeholder, that is columns[i][w(i)].
    columns = [(None, *col) for col in zip(*jt_matrix(shape).sub)]
    classes = [
        (rho, zee(rho), [(w, tuple(sorted(map(getitem, columns, w)))) for w in members])
        for rho, members in conjugacy_classes(n).items()
    ]
    contents = {key for _, _, members in classes for _, key in members}
    report = CheckReport("hook-expansion")
    for theta in thetas:
        where = {"shape": shape.to_json(), "theta": list(theta)}
        k = hook_leg(theta)
        decomp = hook_decomposition(theta, shape)
        base = decomp.base.values
        # Sandwich invariant: every summand sits between h-1 and h pointwise.
        for h, _ in decomp.summands:
            if not all(b - 1 <= v <= b for v, b in zip(h.values, base)):
                report.failures.append({**where, "bad_summand": list(h.values)})
        total = decomp.total_multiplicity
        if total != (math.comb(n - 1, k) if k <= n - 1 else 0):
            report.failures.append(
                {**where, "error": f"expected binom({n - 1},{k}) summands, got {total}"}
            )
        for h, _ in decomp.summands:
            try:
                collected_coefficient(decomp, h)
            except AssertionError as exc:
                report.failures.append({**where, "error": str(exc)})

        # A negative subscript is a zero matrix entry on the diagonal of w.
        kostka_of = {key: kostka(theta, key) if key[0] >= 0 else 0 for key in contents}
        lhs: dict[tuple, int] = {}
        rhs: dict[tuple, int] = {}
        for rho, z, members in classes:
            acc_l = acc_r = 0
            for w, key in members:
                kval = kostka_of[key]
                sval = sum(mult for h, mult in decomp.summands if h.admits(w))
                if kval != sval:
                    report.failures.append(
                        {**where, "w": list(w), "kostka": kval, "indicator_sum": sval}
                    )
                acc_l += kval
                acc_r += sval
            lhs[rho] = z * acc_l
            rhs[rho] = z * acc_r
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


def suite_hook(max_n: int = 5, max_size: int = 9) -> CheckReport:
    """Hook expansion over every connected shape and hook within bounds."""
    report = CheckReport("hook-expansion")
    for n in range(1, max_n + 1):
        for size in range(n, max_size + 1):
            for shape in connected_skew_shapes(n, size):
                hooks = [hook_partition(size, k) for k in range(0, min(n - 1, size - 1) + 1)]
                report.merge(verify_hook_decompositions(shape, hooks))
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


def verify_empty_row_removal(shape: SkewShape, thetas=None) -> CheckReport:
    """Dropping empty rows leaves the immanant character unchanged."""
    report = CheckReport("empty-row-removal")
    reduced = remove_empty_rows(shape)
    padded = skew_shape(reduced.outer, reduced.inner, shape.rows)
    thetas = thetas or None
    by_padded = immanant_characters(padded, thetas)
    for theta, gamma in immanant_characters(shape, thetas).items():
        report.merge(
            verify_character_equality(
                "empty-row-removal",
                gamma,
                by_padded[theta],
                {"shape": shape.to_json(), "theta": list(theta)},
            )
        )
    return report


def verify_component_reorder(a: SkewShape, b: SkewShape, thetas=None) -> CheckReport:
    """Shapes with identical components have identical immanant characters."""
    if a.rows != b.rows or a.size != b.size:
        raise ValueError("shapes must share the same row count and size")
    report = CheckReport("component-reorder")
    thetas = thetas or None
    by_b = immanant_characters(b, thetas)
    for theta, gamma in immanant_characters(a, thetas).items():
        report.merge(
            verify_character_equality(
                "component-reorder",
                gamma,
                by_b[theta],
                {"shapes": [a.to_json(), b.to_json()], "theta": list(theta)},
            )
        )
    return report


def verify_disconnected_product(shape: SkewShape, thetas=None) -> CheckReport:
    """The component product formula agrees with the direct computation."""
    report = CheckReport("disconnected-product")
    for theta, gamma in immanant_characters(shape, thetas or None).items():
        report.merge(
            verify_character_equality(
                "disconnected-product",
                gamma,
                immanant_character_from_components(theta, shape),
                {"shape": shape.to_json(), "theta": list(theta)},
            )
        )
    return report


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


def verify_induction_stability(shape: SkewShape, thetas=None) -> CheckReport:
    """Adding one empty row means inducing up one letter."""
    report = CheckReport("induction-stability")
    bigger = skew_shape(shape.outer, shape.inner, shape.rows + 1)
    thetas = thetas or None
    by_shape = immanant_characters(shape, thetas)
    for theta, gamma in immanant_characters(bigger, thetas).items():
        report.merge(
            verify_character_equality(
                "induction-stability",
                gamma,
                induce_up(by_shape[theta]),
                {"shape": shape.to_json(), "theta": list(theta)},
            )
        )
    return report


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
        irr = {lam: character_table(n)[lam] for lam in parts}
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


def suite_immanant(max_n: int = 4, max_size: int = 8, seed: int = 24061859) -> CheckReport:
    """Sign immanants against skew Schur functions, and the inner-product law.

    The second half draws random integer class functions and checks that
    every Schur coefficient of their immanant equals the inner product
    with the matching immanant character.
    """
    report = CheckReport("immanant-inner-product")
    rng = random.Random(seed)
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
    targets: list[SkewShape] = list(preabelian_example_shapes())
    for n in range(1, max_n + 1):
        for size in range(n, max_size + 1):
            for shape in connected_skew_shapes(n, size):
                if is_dahlberg_small(hessenberg_from_skew(shape)):
                    targets.append(shape)
    for shape in targets:
        n, size = shape.rows, shape.size
        hooks = [hook_partition(size, k) for k in range(0, min(n - 1, size - 1) + 1)]
        for theta, gamma in immanant_characters(shape, hooks).items():
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
    """
    for n in range(1, max_n + 1):
        for size in range(n, max_size + 1):
            for shape in connected_skew_shapes(n, size):
                h = hessenberg_from_skew(shape)
                mu, nu = shape.padded()
                identity_content = tuple(m - v for m, v in zip(mu, nu))
                for theta, gamma in immanant_characters(shape).items():
                    dec = h_positive_decomposition(gamma)
                    record = {
                        "shape": shape.to_json(),
                        "theta": list(theta),
                        "hook": is_hook(theta),
                        "h": list(h.values),
                        "identity_kostka": kostka(theta, identity_content),
                        "eta_expansion": dec.to_json(),
                        "h_positive": dec.is_integral and dec.is_nonnegative,
                    }
                    if record["hook"]:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")  # oversized legs yield empty sums
                            decomp = hook_decomposition(theta, shape)
                        record["summands"] = [
                            {"h": list(hj.values), "mult": m} for hj, m in decomp.summands
                        ]
                    yield record
