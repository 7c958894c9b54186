import json
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain, product
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import immanants.jacobitrudi
import immanants.verify
from immanants import (
    ClassFunction,
    HPositiveDecomposition,
    HookDecomposition,
    SkewShape,
    connected_skew_shapes,
    h_positive_decomposition,
    hessenberg,
    hessenberg_from_skew,
    hook_decomposition,
    hook_partition,
    hooks_of,
    immanant_character,
    immanant_characters,
    is_dahlberg_small,
    is_hook,
    jt_matrix,
    kostka,
    partitions_of,
    skew_shape,
    stanley_stembridge_character,
    zee,
)
from immanants.immanant_characters import _clip
from immanants.permutations import conjugacy_classes
from immanants.tableaux import _normalize_content
from immanants.verify import (
    CheckReport,
    _bounded_connected_shapes,
    _scan_lines,
    preabelian_example_shapes,
    run_suites,
    scan_records,
    suite_hook,
    suite_immanant,
    suite_kostka,
    suite_positivity,
    verify_disconnected_product,
    verify_empty_row_removal,
    verify_hook_decomposition,
    verify_hook_decompositions,
    verify_induction_stability,
)


# ---------------------------------------------------------------- oracles

def per_permutation_hook_check(shape, thetas, decompose=hook_decomposition):
    """The hook check one permutation at a time: `h.admits(w)` per summand, `kostka` per content.

    Walks all of S_n, comparing each permutation's Kostka number with the
    number of summands admitting it; `decompose` stands in for
    `hook_decomposition`.
    """
    n = shape.rows
    columns = [(None, *col) for col in zip(*jt_matrix(shape).sub)]
    classes = [
        (rho, zee(rho), [(w, tuple(sorted(map(getitem, columns, w)))) for w in members])
        for rho, members in conjugacy_classes(n).items()
    ]
    report = CheckReport("hook-expansion")
    for theta in thetas:
        where = {"shape": shape.to_json(), "theta": list(theta)}
        decomp = decompose(theta, shape)
        k = decomp.leg
        base = decomp.base.values
        for h, _ in decomp.summands:
            if not all(b - 1 <= v <= b for v, b in zip(h.values, base)):
                report.failures.append({**where, "bad_summand": list(h.values)})
        total = decomp.total_multiplicity
        if total != (math.comb(n - 1, k) if k <= n - 1 else 0):
            report.failures.append(
                {**where, "error": f"expected binom({n - 1},{k}) summands, got {total}"}
            )
        lhs, rhs = {}, {}
        for rho, z, members in classes:
            acc_l = acc_r = 0
            for w, key in members:
                kval = kostka(theta, key) if key[0] >= 0 else 0
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


def per_shape_suite_hook(max_n, max_size):
    """`suite_hook` with every shape checked on its own."""
    report = CheckReport("hook-expansion")
    for shape in _bounded_connected_shapes(max_n, max_size):
        report.merge(verify_hook_decompositions(shape, hooks_of(shape.size)[: shape.rows]))
    return report


def per_shape_suite_positivity(max_n, max_size):
    """`suite_positivity` with every shape checked on its own."""
    report = CheckReport("hook-positivity")
    targets = preabelian_example_shapes() + [
        shape
        for shape in _bounded_connected_shapes(max_n, max_size)
        if is_dahlberg_small(hessenberg_from_skew(shape))
    ]
    for shape in targets:
        gammas = immanant_characters(shape, hooks_of(shape.size)[: shape.rows])
        for theta, gamma in gammas.items():
            report.instances += 1
            dec = h_positive_decomposition(gamma)
            if not (dec.is_integral and dec.is_nonnegative):
                report.failures.append(
                    {"shape": shape.to_json(), "theta": list(theta), "coeffs": dec.to_json()}
                )
    return report


def per_raw_content_suite_kostka(max_n, max_size):
    """`suite_kostka` comparing the two counts once per (theta, raw content)."""
    report = CheckReport("hook-kostka")
    by_total = {}
    for content in product(range(5), repeat=6):
        if (size := sum(content)) <= max_size:
            by_total.setdefault(size, []).append(content)
    for total in range(0, max_size + 1):
        for theta in hooks_of(total):
            for content in by_total.get(total, ()):
                report.instances += 1
                if immanants.verify.kostka(theta, content) != immanants.verify.kostka_hook(
                    theta, content
                ):
                    report.failures.append({"theta": list(theta), "content": list(content)})
    return report


GROUPED_SUITES = [
    (suite_hook, per_shape_suite_hook),
    (suite_positivity, per_shape_suite_positivity),
]


def off_by_one_at_identity(gamma):
    """gamma with its value at the identity class one higher."""
    identity = (1,) * gamma.n
    return ClassFunction(gamma.n, {**gamma.values, identity: gamma.values[identity] + 1})


def with_summands(decomp, summands):
    """The same hook expansion with other summands."""
    return HookDecomposition(
        decomp.theta, decomp.shape, decomp.base, decomp.prime, decomp.leg, summands
    )


def drop_first_summand(decomp):
    return with_summands(decomp, decomp.summands[1:])


def bump_first_multiplicity(decomp):
    (h, mult), *rest = decomp.summands
    return with_summands(decomp, ((h, mult + 1), *rest))


def move_first_summand_outside_sandwich(decomp):
    """Swap the first summand for the full or the identity function, whichever leaves the sandwich."""
    n, base = decomp.shape.rows, decomp.base.values
    for values in ((n,) * n, tuple(range(1, n + 1))):
        if not all(b - 1 <= v <= b for v, b in zip(values, base)):
            return with_summands(decomp, ((hessenberg(values), 1), *decomp.summands[1:]))
    return decomp


SABOTAGES = [None, drop_first_summand, bump_first_multiplicity, move_first_summand_outside_sandwich]


def test_check_report_json_schema():
    report = CheckReport("hook-expansion", instances=3)
    blob = report.to_json()
    assert blob == {"proposition": "hook-expansion", "instances": 3, "failures": []}
    assert report.ok
    report.failures.append({"w": [2, 1]})
    assert not report.ok


def test_verify_hook_decomposition_instance():
    report = verify_hook_decomposition((6, 1, 1), skew_shape((3, 3, 3, 1), (1, 1)))
    assert report.ok and report.instances == 1


def test_verify_helpers_pass_on_goldens():
    assert verify_empty_row_removal(skew_shape((5, 4, 2, 2, 1), (3, 2, 2))).ok
    assert verify_disconnected_product(skew_shape((5, 4, 2, 1), (3, 2))).ok
    assert verify_induction_stability(skew_shape((3, 2), (1,))).ok


def test_small_suites_pass():
    assert suite_kostka(3, 5).ok
    assert suite_hook(3, 5).ok
    assert suite_immanant(3, 5).ok
    assert suite_positivity(3, 5).ok


def test_run_suites_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suites(["nope"], 3, 4)
    reports = run_suites(["kostka", "characters"], 3, 4)
    assert [r.name for r in reports] == ["hook-kostka", "character-duality"]


def test_hook_suite_counts_every_shape_and_hook():
    pairs = sum(
        min(n - 1, size - 1) + 1
        for n in range(1, 4)
        for size in range(n, 7)
        for _ in connected_skew_shapes(n, size)
    )
    report = suite_hook(3, 6)
    assert report.ok and report.instances == pairs


def test_per_shape_hook_check_blames_only_the_broken_theta(monkeypatch):
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    hooks = [hook_partition(shape.size, k) for k in range(shape.rows)]
    broken = hooks[1]
    real_hook_decompositions = immanants.verify.hook_decompositions

    def drop_one_summand(shape, thetas):
        decomps = real_hook_decompositions(shape, thetas)
        if broken in decomps:
            decomps[broken] = drop_first_summand(decomps[broken])
        return decomps

    monkeypatch.setattr("immanants.verify.hook_decompositions", drop_one_summand)
    report = verify_hook_decompositions(shape, hooks)
    assert report.instances == len(hooks)
    assert {tuple(f["theta"]) for f in report.failures} == {broken}
    [differ] = [f for f in report.failures if f.get("error") == "class functions differ"]
    gamma = immanant_character(broken, shape).values
    assert differ["lhs"] == {str(list(rho)): v for rho, v in gamma.items()}
    identity = str([1] * shape.rows)
    assert differ["rhs"][identity] < differ["lhs"][identity]
    one_at_a_time = [verify_hook_decomposition(theta, shape) for theta in hooks]
    assert [r.ok for r in one_at_a_time] == [theta != broken for theta in hooks]
    assert report.failures == [f for r in one_at_a_time for f in r.failures]


def test_induction_stability_reports_each_theta_it_breaks(monkeypatch):
    real_induce_up = immanants.verify.induce_up

    def off_by_one_at_identity(chi):
        up = real_induce_up(chi)
        identity = (1,) * up.n
        return ClassFunction(up.n, {**up.values, identity: up.values[identity] + 1})

    monkeypatch.setattr("immanants.verify.induce_up", off_by_one_at_identity)
    shape = skew_shape((3, 2), (1,))
    thetas = partitions_of(shape.size)
    report = verify_induction_stability(shape)
    assert report.name == "induction-stability"
    assert report.instances == len(thetas)
    assert [tuple(f["theta"]) for f in report.failures] == list(thetas)
    for failure in report.failures:
        assert set(failure) == {"shape", "theta", "differs_at"}
        assert failure["shape"] == shape.to_json()
        [(where, (direct, induced))] = failure["differs_at"].items()
        assert where == "[1, 1, 1]" and induced == direct + 1


def test_hook_check_refuses_the_empty_shape():
    with pytest.raises(ValueError, match="at least one row"):
        verify_hook_decomposition((), skew_shape(()))


def test_hook_check_refuses_bad_input_before_any_count(monkeypatch):
    def no_count(sub):
        raise AssertionError("cycle_cover_counts called")

    module = sys.modules["immanants.immanant_characters"]  # the package binds the function
    monkeypatch.setattr(module, "cycle_cover_counts", no_count)
    empty_rows = skew_shape((2, 2), (), 3)
    for shape in (skew_shape(()), empty_rows):
        report = verify_hook_decompositions(shape, [])
        assert report.ok and report.instances == 0
    shape = skew_shape((3, 3, 1), (1,))
    refusals = [
        (shape, (3, 3), "[3, 3] is not a hook"),
        (shape, (4, 1), "theta has size 5 but the shape has 6 boxes"),
        (empty_rows, (3, 1), "shape has empty rows; remove them first (remove_empty_rows)"),
    ]
    for bad_shape, theta, text in refusals:
        with pytest.raises(ValueError) as caught:
            verify_hook_decompositions(bad_shape, [theta])
        assert str(caught.value) == text


def test_scan_records_structure_and_determinism():
    first = list(scan_records(2, 4))
    second = list(scan_records(2, 4))
    assert json.dumps(first) == json.dumps(second)
    sizes = set()
    for record in first:
        shape = record["shape"]
        sizes.add(sum(shape["outer"]) - sum(shape["inner"]))
        assert tuple(record["theta"]) in partitions_of(
            sum(shape["outer"]) - sum(shape["inner"])
        )
        assert record["h_positive"] in (True, False)
        if record["hook"]:
            assert "summands" in record
            total = sum(s["mult"] for s in record["summands"])
            assert total >= 0
        else:
            assert "summands" not in record
    assert sizes == {1, 2, 3, 4}


def test_scan_identity_kostka_matches_the_public_wrapper():
    records = 0
    for record in scan_records(4, 7):
        shape = SkewShape.from_json(record["shape"])
        widths = [shape.row_width(i) for i in range(1, shape.rows + 1)]
        assert record["identity_kostka"] == kostka(record["theta"], widths), record
        assert record["hook"] == is_hook(tuple(record["theta"]))
        records += 1
    assert records > 1000


def test_scan_and_immanant_characters_count_no_kostka_chain(monkeypatch):
    # identity_kostka is read off gamma at the identity class, and gamma from one Pieri walk.
    real_ssyt_count = immanants.tableaux._ssyt_count
    calls = []

    def counted(*args):
        calls.append(args)
        return real_ssyt_count(*args)

    monkeypatch.setattr(immanants.tableaux, "_ssyt_count", counted)
    assert len(list(scan_records(4, 7))) > 1000
    immanant_characters(skew_shape((5, 4, 2, 1), (3, 2)), [(3, 2, 2), (7,)])
    assert calls == []
    # The counter sees the chain that `kostka` does count.
    assert kostka((2, 1), (1, 1, 1)) == 2 and len(calls) == 1


def test_scan_expands_hooks_once_per_clipped_grid_and_size(monkeypatch):
    real_hook_decompositions = immanants.verify.hook_decompositions
    keys = []

    def counted(shape, thetas):
        keys.append((_clip(shape, 1), shape.size))
        return real_hook_decompositions(shape, thetas)

    monkeypatch.setattr("immanants.verify.hook_decompositions", counted)
    shapes = {json.dumps(r["shape"]) for r in scan_records(5, 8)}
    assert (len(keys), len(set(keys)), len(shapes)) == (76, 76, 387)


@pytest.mark.parametrize("bounds, calls", [((5, 8), 221), ((4, 7), 91)])
def test_scan_counts_gamma_once_per_clipped_grid_up_to_a_half_turn(monkeypatch, bounds, calls):
    real_grid_characters = immanants.verify._grid_characters
    grids = []

    def counted(grid, size, thetas):
        grids.append(grid)
        return real_grid_characters(grid, size, thetas)

    monkeypatch.setattr("immanants.verify._grid_characters", counted)
    records = list(scan_records(*bounds))
    # Keyed by the clipped grid alone, with no half turn, (5, 8) makes 381 calls.
    assert len(grids) == calls < len({json.dumps(r["shape"]) for r in records})


def assert_each_line_is_its_record(max_n, max_size):
    lines = list(chain.from_iterable(_scan_lines(max_n, max_size)))
    records = list(scan_records(max_n, max_size))
    assert len(records) == len(lines)
    keys = ["shape", "theta", "hook", "h", "identity_kostka", "eta_expansion", "h_positive"]
    for record, line in zip(records, lines):
        # json.loads keeps the line's key order, so the text check alone passes a swap.
        assert json.dumps(record, separators=(",", ":")) == line
        assert list(record) == keys + ["summands"] * record["hook"]
    return records


def test_each_scan_line_is_its_record():
    records = assert_each_line_is_its_record(4, 7)
    assert len(records) > 1000 and {r["hook"] for r in records} == {True, False}


def test_a_non_integral_expansion_scans_as_strings_and_not_h_positive(monkeypatch):
    # Every record in these bounds is h-positive; halving plants the other branch.
    real = immanants.verify.h_positive_decomposition

    def halved(gamma):
        dec = real(gamma)
        halves = {lam: Fraction(c, 2) for lam, c in dec.coefficients.items()}
        return HPositiveDecomposition(dec.n, halves, False, dec.is_nonnegative)

    monkeypatch.setattr(immanants.verify, "h_positive_decomposition", halved)
    records = assert_each_line_is_its_record(3, 5)
    assert all(r["h_positive"] is False for r in records)
    coefficients = [r["eta_expansion"]["coefficients"] for r in records]
    assert any(isinstance(c, str) for cs in coefficients for c in cs.values())


def count_leading_runs(monkeypatch):
    """Count `_leading_run` calls, so h and h' computations, by shape."""
    real_leading_run = immanants.jacobitrudi._leading_run
    calls = Counter()

    def counted(shape, least):
        calls[shape] += 1
        return real_leading_run(shape, least)

    monkeypatch.setattr(immanants.jacobitrudi, "_leading_run", counted)
    return calls


def test_scan_computes_h_and_h_prime_once_per_shape(monkeypatch):
    calls = count_leading_runs(monkeypatch)
    shapes = {SkewShape.from_json(record["shape"]) for record in scan_records(4, 7)}
    # The record's "h", then h and h' for every hook theta of the shape at once.
    assert set(calls) == shapes and max(calls.values()) <= 3


def test_hook_suite_computes_h_and_h_prime_once_per_key(monkeypatch):
    calls = count_leading_runs(monkeypatch)
    assert suite_hook(5, 9).ok
    # h and h' once for each of the 113 distinct (clipped grid, hooks), not per shape.
    assert sum(calls.values()) == 226 and max(calls.values()) == 2


def test_positivity_suite_computes_h_once_per_bounded_shape(monkeypatch):
    calls = count_leading_runs(monkeypatch)
    assert suite_positivity(4, 7).ok
    # The small-excess filter reads h; the key is the clipped grid, not h and h'.
    assert calls == Counter(_bounded_connected_shapes(4, 7))


@pytest.mark.parametrize("suite, oracle", GROUPED_SUITES, ids=lambda f: f.__name__)
def test_grouped_suites_match_the_per_shape_loops(suite, oracle):
    assert suite(5, 9).to_json() == oracle(5, 9).to_json()


@pytest.mark.parametrize("suite, oracle", GROUPED_SUITES, ids=lambda f: f.__name__)
def test_a_broken_grid_fails_every_shape_that_has_it(monkeypatch, suite, oracle):
    broken = _clip(skew_shape((3, 3, 1), (1,)), 1)
    module = sys.modules["immanants.immanant_characters"]  # the package binds the function
    real_grid_characters = module._grid_characters

    def off_by_one_on_the_broken_grid(grid, size, thetas):
        gammas = real_grid_characters(grid, size, thetas)
        if grid != broken:
            return gammas
        return {theta: off_by_one_at_identity(g) for theta, g in gammas.items()}

    # The suite reaches the kernel through verify, and the per-shape oracle
    # through `immanant_characters`: both must see the broken grid.
    monkeypatch.setattr("immanants.verify._grid_characters", off_by_one_on_the_broken_grid)
    monkeypatch.setattr(module, "_grid_characters", off_by_one_on_the_broken_grid)
    report, want = suite(5, 9), oracle(5, 9)
    assert report.to_json() == want.to_json()
    shapes = [shape for shape in _bounded_connected_shapes(5, 9) if _clip(shape, 1) == broken]
    assert len(shapes) == 46  # of 3 to 9 boxes, so five hook lists
    # One failure per hook of each such shape, under its own "shape".
    assert [(f["shape"], f["theta"]) for f in report.failures] == [
        (shape.to_json(), list(theta)) for shape in shapes for theta in hooks_of(shape.size)[: shape.rows]
    ]


def test_kostka_suite_matches_the_per_raw_content_loop():
    report = suite_kostka(5, 9)
    assert report.instances == 27991
    assert report.to_json() == per_raw_content_suite_kostka(5, 9).to_json()


def test_a_wrong_hook_formula_fails_every_raw_content_of_its_class(monkeypatch):
    real_kostka_hook = immanants.verify.kostka_hook
    broken = {((4, 1), (2, 2, 1)), ((3, 1, 1, 1), (2, 1, 1, 1, 1)), ((9,), (3, 3, 3))}

    def wrong_on_broken_classes(theta, content):
        value = real_kostka_hook(theta, content)
        return value + 1 if (tuple(theta), _normalize_content(content)) in broken else value

    monkeypatch.setattr("immanants.verify.kostka_hook", wrong_on_broken_classes)
    report, want = suite_kostka(5, 9), per_raw_content_suite_kostka(5, 9)
    assert report.failures == want.failures and report.instances == want.instances
    # 60 arrangements of (2,2,1,0,0,0), 30 of (2,1,1,1,1,0), 20 of (3,3,3,0,0,0).
    assert len(report.failures) == 110
    assert {
        (tuple(f["theta"]), _normalize_content(f["content"])) for f in report.failures
    } == broken


def test_kostka_suite_counts_each_distinct_class_once(monkeypatch):
    real_kostka = immanants.verify.kostka
    calls = Counter()

    def counted(theta, content):
        calls[tuple(theta), _normalize_content(content)] += 1
        return real_kostka(theta, content)

    monkeypatch.setattr("immanants.verify.kostka", counted)
    assert suite_kostka(5, 9).instances == 27991
    # One comparison per (hook theta, normalised content), not one per raw content.
    assert len(calls) == 419 and set(calls.values()) == {1}


def test_hook_suite_counts_covers_once_per_distinct_key(monkeypatch):
    real_grid_characters = immanants.verify._grid_characters
    grids = []

    def counted(grid, size, thetas):
        # A summand's 0/-1 pattern reaches cycle_cover_counts without this kernel.
        grids.append(grid)
        return real_grid_characters(grid, size, thetas)

    monkeypatch.setattr("immanants.verify._grid_characters", counted)
    assert suite_hook(5, 9).instances == 3109
    # 811 shapes, 113 distinct (grid, h, h', hooks), 37 distinct grids.
    assert len(grids) == 113 and len(set(grids)) == 37


def failing_thetas(report):
    return {tuple(f["theta"]) for f in report.failures}


@pytest.mark.parametrize("sabotage", SABOTAGES, ids=lambda f: f.__name__ if f else "true")
def test_class_level_hook_check_matches_the_per_permutation_oracle(monkeypatch, sabotage):
    def sabotaged(decomp):
        return sabotage(decomp) if sabotage and decomp.summands else decomp

    def decompose(theta, shape):
        return sabotaged(hook_decomposition(theta, shape))

    real_hook_decompositions = immanants.verify.hook_decompositions

    def decompose_all(shape, thetas):
        return {t: sabotaged(d) for t, d in real_hook_decompositions(shape, thetas).items()}

    monkeypatch.setattr("immanants.verify.hook_decompositions", decompose_all)
    failing = 0
    for shape in _bounded_connected_shapes(6, 8):
        thetas = hooks_of(shape.size)[: shape.rows]
        report = verify_hook_decompositions(shape, thetas)
        oracle = per_permutation_hook_check(shape, thetas, decompose)
        assert report.instances == oracle.instances == len(thetas)
        assert report.ok == oracle.ok and failing_thetas(report) == failing_thetas(oracle), shape
        failing += not report.ok
    # Every sabotage must show on most shapes, or the comparison checks little.
    assert failing == 0 if sabotage is None else failing > 300


def test_hook_check_sees_a_class_value_the_oracle_cannot(monkeypatch):
    real_grid_characters = immanants.verify._grid_characters

    def off_by_one_everywhere(grid, size, thetas):
        gammas = real_grid_characters(grid, size, thetas)
        return {theta: off_by_one_at_identity(g) for theta, g in gammas.items()}

    monkeypatch.setattr("immanants.verify._grid_characters", off_by_one_everywhere)
    for shape in _bounded_connected_shapes(4, 7):
        thetas = list(hooks_of(shape.size)[: shape.rows])
        report = verify_hook_decompositions(shape, thetas)
        assert per_permutation_hook_check(shape, thetas).ok
        assert [tuple(f["theta"]) for f in report.failures] == thetas
        identity = str([1] * shape.rows)
        for failure in report.failures:
            assert failure["error"] == "class functions differ"
            lhs, rhs = failure["lhs"], failure["rhs"]
            assert {r for r in lhs if lhs[r] != rhs[r]} == {identity}
            assert lhs[identity] == rhs[identity] + 1


def test_last_grid_column_is_positive_on_connected_shapes():
    # Subscript (i, n) = mu_i - nu_n - i + n is at least mu_n - nu_n, the
    # width of row n: why `verify_hook_decompositions` needs no S_n walk.
    shapes = 0
    for shape in _bounded_connected_shapes(6, 12):
        last = [row[-1] for row in jt_matrix(shape).sub]
        assert min(last) == shape.row_width(shape.rows) >= 1, shape
        shapes += 1
    assert shapes == 8914


SEVEN_ROW_SHAPES = [
    shape for size in range(7, 13) for shape in connected_skew_shapes(7, size)
]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.sampled_from(SEVEN_ROW_SHAPES))
def test_hook_check_agrees_with_the_oracle_at_seven_rows(shape):
    thetas = hooks_of(shape.size)[: shape.rows]
    report = verify_hook_decompositions(shape, thetas)
    oracle = per_permutation_hook_check(shape, thetas)
    assert report.ok and oracle.ok
    assert report.instances == oracle.instances == len(thetas)


def test_hook_suite_counts_each_distinct_summand_once():
    stanley_stembridge_character.cache_clear()
    report = suite_hook(5, 9)
    assert report.ok and report.instances == 3109
    # 5,190 (shape, summand) pairs, but only 53 distinct Hessenberg functions.
    assert stanley_stembridge_character.cache_info().misses == 53
