"""Machine verification sweeps for the identities behind the library.

Each check runs a family of instances and returns a report with the
instance count and explicit witnesses for any failures.  A failure here
would falsify the implementation, not the theorems being exercised.
"""

from __future__ import annotations

import json
import math
import random
from itertools import product

from .characters import (
    ClassFunction,
    character_table,
    h_positive_decomposition,
    induced_trivial_character,
    induction_product,
    inner_product,
    monomial_character,
    sign_character,
)
from .immanant_characters import (
    _clip,
    _grid_characters,
    _up_to_half_turn,
    hook_decompositions,
    immanant_character,
    immanant_characters,
    is_dahlberg_small,
    stanley_stembridge_character,
)
from .jacobitrudi import hessenberg_from_skew, immanant
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
    _normalize_content,
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


def verify_hook_decompositions(shape: SkewShape, thetas) -> CheckReport:
    """Check the hook expansion of one shape at each hook theta.

    Per theta: every summand sits between h - 1 and h, the multiplicities
    total binom(n - 1, leg) (Vandermonde's identity, so this checks how the
    summands were made), and the theorem holds as a class-function identity.
    Its two sides come from different grids: gamma_theta from one
    `_grid_characters` call on the Jacobi-Trudi grid clipped at 1 >= theta_2,
    and sum mult * SS(h) from each summand's own 0/-1 pattern.

    The identity needs no check permutation by permutation.  Subscript
    (i, n) is mu_i - nu_n - i + n, at least the width of row n, so on a
    shape with no empty rows (which the expansion requires) column n is
    positive throughout.  A permutation w under h then meets l = |P(w)| + 1
    positive subscripts, where P(w) holds the columns j < n with
    w(j) <= h'(j), and its Kostka number C(l - 1, leg) is the number
    C(|P(w)|, leg) of leg-sized subsets of P(w), one per admitting summand.
    That identity holds for every w by counting alone; what is left to
    check is the class-function identity, which compares two kernels.
    """
    thetas = [check_partition(theta) for theta in thetas]
    report = CheckReport("hook-expansion", len(thetas))
    if thetas:
        decomps = hook_decompositions(shape, thetas)  # bad input is refused before any count
        report.failures = _hook_failures(decomps, _grid_characters(_clip(shape, 1), shape.size, thetas))
    return report


def _hook_failures(decomps: dict, gammas: dict) -> list[dict]:
    """The failures of the hook check at each theta of decomps, with gammas of the same shape."""
    failures = []
    for theta, decomp in decomps.items():
        n = decomp.shape.rows
        where = {"shape": decomp.shape.to_json(), "theta": list(theta)}
        k = decomp.leg
        base = decomp.base.values
        # Sandwich invariant: every summand sits between h-1 and h pointwise.
        for h, _ in decomp.summands:
            if not all(b - 1 <= v <= b for v, b in zip(h.values, base)):
                failures.append({**where, "bad_summand": list(h.values)})
        total = decomp.total_multiplicity
        if total != math.comb(n - 1, k):
            failures.append(
                {**where, "error": f"expected binom({n - 1},{k}) summands, got {total}"}
            )
        lhs, rhs = gammas[theta].values, decomp.character().values
        if lhs != rhs:
            failures.append(
                {
                    **where,
                    "error": "class functions differ",
                    "lhs": {str(list(r)): v for r, v in lhs.items()},
                    "rhs": {str(list(r)): v for r, v in rhs.items()},
                }
            )
    return failures


def verify_hook_decomposition(theta, shape: SkewShape) -> CheckReport:
    """Check the hook expansion at one theta; the one-theta case of `verify_hook_decompositions`."""
    return verify_hook_decompositions(shape, (theta,))


def _bounded_connected_shapes(max_n: int, max_size: int):
    """Connected shapes with 1 to max_n rows and at most max_size boxes."""
    for n in range(1, max_n + 1):
        for size in range(n, max_size + 1):
            yield from connected_skew_shapes(n, size)


def suite_hook(max_n: int = 5, max_size: int = 9) -> CheckReport:
    """Hook expansion over every connected shape and hook within bounds: the hook report of
    `_grid_suites`, whose one pass keys hook data by the grid clipped at 1 for both suites."""
    return _grid_suites(max_n, max_size)["hook"]


def _grid_suites(max_n: int, max_size: int) -> dict[str, CheckReport]:
    """The "hook" and "positivity" suites in one pass; hook data has one key, the grid clipped at 1.

    The hook suite takes every bounded connected shape; the positivity suite takes the
    pre-abelian examples, then the bounded shapes of small excess.  A shape's Jacobi-Trudi
    grid clipped at 1 (`_clip`) fixes h and h' (h(j) is the last row whose clipped entry is
    at least 0, h'(j) the last whose entry is 1) and gamma at each of its hooks
    (N - k, 1^k), k < rows: by the clip lemma of `_grid_characters`, K((N - k, 1^k), alpha)
    reads only k and min(alpha, 1), whose first part is 1 since N >= rows.  So per grid,
    one `hook_decompositions` and one `_grid_characters` call at the first shape's hooks
    give whether h is small and the failures of both checks.  Every shape takes the
    grid's failures under its own "shape" and the hook of its own size at each failure's
    leg, and every theta of every shape counts as one instance, in the order of its suite.
    """
    hook, positivity = CheckReport("hook-expansion"), CheckReport("hook-positivity")
    checked: dict[tuple, tuple] = {}

    def tally(report: CheckReport, shape: SkewShape, failures: list[dict]) -> None:
        report.instances += shape.rows
        report.failures += [  # a hook of leg k has k + 1 parts
            {**failure, "shape": shape.to_json(), "theta": list(hook_partition(shape.size, len(failure["theta"]) - 1))}
            for failure in failures
        ]

    def grid_failures(shape: SkewShape) -> tuple:
        if (grid := _clip(shape, 1)) not in checked:
            thetas = hooks_of(shape.size)[: shape.rows]
            decomps = hook_decompositions(shape, thetas)
            gammas = _grid_characters(grid, shape.size, thetas)
            small = is_dahlberg_small(decomps[thetas[0]].base)
            checked[grid] = small, _hook_failures(decomps, gammas), _positivity_failures(shape, gammas)
        return checked[grid]

    for shape in preabelian_example_shapes():
        tally(positivity, shape, grid_failures(shape)[2])
    for shape in _bounded_connected_shapes(max_n, max_size):
        small, hook_failures, not_positive = grid_failures(shape)
        tally(hook, shape, hook_failures)
        if small:
            tally(positivity, shape, not_positive)
    return {"hook": hook, "positivity": positivity}


def _agree(name: str, context: dict, gammas: dict, other) -> CheckReport:
    """Check that each theta's character in gammas equals other(theta), one instance each."""
    report = CheckReport(name, instances=len(gammas))
    for theta, lhs in gammas.items():
        rhs = other(theta)
        if lhs != rhs:
            diffs = {
                str(list(rho)): [lhs.values[rho], rhs.values[rho]]
                for rho in lhs.values
                if lhs.values[rho] != rhs.values.get(rho)
            }
            report.failures.append({**context, "theta": list(theta), "differs_at": diffs})
    return report


def verify_empty_row_removal(shape: SkewShape) -> CheckReport:
    """Dropping empty rows leaves the immanant character unchanged."""
    reduced = remove_empty_rows(shape)
    padded = skew_shape(reduced.outer, reduced.inner, shape.rows)
    return _agree("empty-row-removal", {"shape": shape.to_json()}, immanant_characters(shape),
                  immanant_characters(padded).__getitem__)


def verify_component_reorder(a: SkewShape, b: SkewShape) -> CheckReport:
    """Shapes with identical components have identical immanant characters."""
    if a.rows != b.rows or a.size != b.size:
        raise ValueError("shapes must share the same row count and size")
    return _agree("component-reorder", {"shapes": [a.to_json(), b.to_json()]},
                  immanant_characters(a), immanant_characters(b).__getitem__)


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
    """Closed hook formula vs direct counting over bounded contents.

    The contents are every 6-tuple over 0..4 with total at most max_size;
    max_n is unused.  Both counts are invariant under permuting the content
    and inserting zeros, so each (hook theta, normalised content) is
    compared once, on its first raw content (419 comparisons at max_size 9).
    Every raw content still counts as one instance and gets its own
    failures, in the order total, theta, raw content.
    """
    report = CheckReport("hook-kostka")
    by_total: dict[int, list[tuple[int, ...]]] = {}
    for content in product(range(5), repeat=6):
        if (size := sum(content)) <= max_size:
            by_total.setdefault(size, []).append(content)
    for total in range(0, max_size + 1):
        contents = by_total.get(total, [])
        normal = [_normalize_content(content) for content in contents]
        first: dict[tuple[int, ...], tuple[int, ...]] = {}
        for c, content in zip(normal, contents):
            first.setdefault(c, content)
        for theta in hooks_of(total):
            bad = {c for c, raw in first.items() if kostka(theta, raw) != kostka_hook(theta, raw)}
            report.instances += len(contents)
            report.failures += [
                {"theta": list(theta), "content": list(content)}
                for c, content in zip(normal, contents)
                if c in bad
            ]
    return report


def suite_characters(max_n: int = 7, max_size: int = 0) -> CheckReport:
    """Orthonormality of irreducibles, and the duality of phi (inverse Kostka
    matrix and Murnaghan-Nakayama table) with eta (induction products)."""
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
    """Induced-trivial positivity on the pre-abelian and small-excess families: the positivity
    report of `_grid_suites`, whose one pass keys hook data by the grid clipped at 1 for both suites."""
    return _grid_suites(max_n, max_size)["positivity"]


def _positivity_failures(shape: SkewShape, gammas: dict) -> list[dict]:
    """The thetas of gammas at which the shape's character is not a non-negative sum of eta's."""
    failures = []
    for theta, gamma in gammas.items():
        dec = h_positive_decomposition(gamma)
        if not (dec.is_integral and dec.is_nonnegative):
            failures.append(
                {"shape": shape.to_json(), "theta": list(theta), "coeffs": dec.to_json()}
            )
    return failures


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
    # Either suite asked: one pass gives both reports.
    shared = _grid_suites(max_n, max_size) if {"hook", "positivity"} & set(names) else {}
    return [shared[name] if name in shared else SUITES[name](max_n, max_size) for name in names]


def scan_records(max_n: int, max_size: int):
    """Stream one evidence record per (connected shape, theta) in bounds.

    Every record carries the induced-trivial expansion of the immanant
    character; hooks additionally carry their proven expansion.  The
    records report evidence only and assert nothing about open cases.
    Each is parsed from the line that `scan` prints for it.
    """
    for lines in _scan_lines(max_n, max_size):
        yield from map(json.loads, lines)


def _scan_lines(max_n: int, max_size: int):
    """Per connected shape in bounds, the JSON lines of its scan records.

    What records share is encoded once.  Per shape: its "shape" and "h".  Per row count:
    the hook summands of each distinct grid clipped at 1, one text per leg < rows, since
    that grid fixes h, h' and so the summands at each leg, whatever the size (see
    `_grid_suites`); a longer leg has no summands.  Per (rows, size) block: each theta's
    text and hook flag, each theta's identity Kostka number and expansion once per grid
    clipped at max(1, size // 2) >= every theta_2, up to a half turn
    (`_up_to_half_turn`), the expansion of each distinct class function, and each Kostka
    column K(., alpha) over the block's thetas, walked by the first kernel call that
    meets alpha.  The block memos hold for one rows and size only (a column holds the
    block's thetas alone), so they are dropped with the block and the summand memo with
    its row count, and memory does not grow with the run.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    for rows in range(1, max_n + 1):
        # The identity is the only permutation of type (1^n) and its content is the
        # row widths, so gamma_theta(1^n) = zee(1^n) * K(theta, widths) = n! * K(theta, widths).
        identity, scale = (1,) * rows, math.factorial(rows)
        # Per grid: the summand texts at legs 0 .. rows - 1, then the empty ones of every
        # longer leg, then "" for a theta that is not a hook (slot -1).
        summands: dict[tuple, list] = {}
        for size in range(rows, max_size + 1):
            thetas = partitions_of(size)
            texts = [
                ",".join(map(str, theta)) + ('],"hook":true' if is_hook(theta) else '],"hook":false')
                for theta in thetas
            ]
            slots = [min(len(theta) - 1, rows) if is_hook(theta) else -1 for theta in thetas]
            shared: dict[tuple, list] = {}
            expanded: dict[tuple, str] = {}
            columns: dict[tuple, list] = {}
            for shape in connected_skew_shapes(rows, size):
                head = '{"shape":' + encode(shape.to_json()) + ',"theta":['
                middle = ',"h":' + encode(list(hessenberg_from_skew(shape).values)) + ',"identity_kostka":'
                # One subscript pass: the clip at 1 is read off the clip at c = max(1, size // 2).
                grid = _clip(shape, size // 2 or 1)
                ones = tuple(tuple([x if x < 1 else 1 for x in row]) for row in grid)
                if (hooks := summands.get(ones)) is None:
                    decomps = hook_decompositions(shape, hooks_of(size)[:rows]).values()
                    hooks = summands[ones] = [',"summands":' + encode(d.to_json()["summands"]) for d in decomps]
                    hooks += [',"summands":[]', ""]
                if (tails := shared.get(key := _up_to_half_turn(grid))) is None:
                    tails = shared[key] = []
                    for gamma in _grid_characters(grid, size, thetas, columns).values():
                        if (eta := expanded.get(values := tuple(gamma.values.items()))) is None:
                            dec = h_positive_decomposition(gamma)
                            positive = "true" if dec.is_integral and dec.is_nonnegative else "false"
                            eta = expanded[values] = f',"eta_expansion":{encode(dec.to_json())},"h_positive":{positive}'
                        # eta stays apart: a key holds the `expanded` string, not a copy.
                        tails.append((str(gamma.values[identity] // scale), eta))
                yield [
                    head + text + middle + k + eta + hooks[slot] + "}"
                    for text, slot, (k, eta) in zip(texts, slots, tails)
                ]
