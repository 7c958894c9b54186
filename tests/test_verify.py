import json
import math
from collections import Counter
from operator import getitem

import pytest

import immanants.jacobitrudi
import immanants.verify
from immanants import (
    ClassFunction,
    HookDecomposition,
    SkewShape,
    collected_coefficient,
    connected_skew_shapes,
    hessenberg,
    hook_decomposition,
    hook_partition,
    is_hook,
    jt_matrix,
    kostka,
    partitions_of,
    skew_shape,
    zee,
)
from immanants.permutations import conjugacy_classes, sn_layout
from immanants.verify import (
    CheckReport,
    _bounded_connected_shapes,
    _shape_hooks,
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

    The loop `verify_hook_decompositions` ran before its admitted sets became
    bitmasks; `decompose` stands in for `hook_decomposition`.
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
        for h, _ in decomp.summands:
            try:
                collected_coefficient(decomp, h)
            except AssertionError as exc:
                report.failures.append({**where, "error": str(exc)})
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
    witnesses = [f for f in report.failures if "w" in f]
    assert witnesses and all(f["kostka"] != f["indicator_sum"] for f in witnesses)
    assert any(f.get("error") == "class functions differ" for f in report.failures)
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


def test_scan_computes_h_and_h_prime_once_per_shape(monkeypatch):
    real_leading_run = immanants.jacobitrudi._leading_run
    calls = Counter()

    def counted(shape, least):
        calls[shape] += 1
        return real_leading_run(shape, least)

    monkeypatch.setattr(immanants.jacobitrudi, "_leading_run", counted)
    shapes = {SkewShape.from_json(record["shape"]) for record in scan_records(4, 7)}
    # The record's "h", then h and h' for every hook theta of the shape at once.
    assert set(calls) == shapes and max(calls.values()) <= 3


def test_hook_suite_computes_h_and_h_prime_once_per_shape(monkeypatch):
    real_leading_run = immanants.jacobitrudi._leading_run
    calls = Counter()

    def counted(shape, least):
        calls[shape] += 1
        return real_leading_run(shape, least)

    monkeypatch.setattr(immanants.jacobitrudi, "_leading_run", counted)
    assert suite_hook(4, 7).ok
    # h and h' once for all the hook thetas of a shape, not once per theta.
    assert set(calls) == set(_bounded_connected_shapes(4, 7)) and max(calls.values()) <= 2


@pytest.mark.parametrize("sabotage", SABOTAGES, ids=lambda f: f.__name__ if f else "true")
def test_bitmask_hook_check_matches_the_per_permutation_oracle(monkeypatch, sabotage):
    def sabotaged(decomp):
        return sabotage(decomp) if sabotage and decomp.summands else decomp

    def decompose(theta, shape):
        return sabotaged(hook_decomposition(theta, shape))

    real_hook_decompositions = immanants.verify.hook_decompositions

    def decompose_all(shape, thetas):
        return {t: sabotaged(d) for t, d in real_hook_decompositions(shape, thetas).items()}

    monkeypatch.setattr("immanants.verify.hook_decompositions", decompose_all)
    failing = 0
    for shape in _bounded_connected_shapes(4, 8):
        thetas = _shape_hooks(shape)
        report = verify_hook_decompositions(shape, thetas)
        oracle = per_permutation_hook_check(shape, thetas, decompose)
        assert (report.instances, report.failures) == (oracle.instances, oracle.failures)
        failing += not report.ok
    # Every sabotage must show on most shapes, or the comparison checks little.
    assert failing == 0 if sabotage is None else failing > 200


@pytest.mark.parametrize("n", range(6))
def test_sn_layout_masks_follow_their_definition(n):
    perms, classes, below = sn_layout(n)
    groups = conjugacy_classes(n)
    assert [rho for rho, _, _ in classes] == list(groups)
    assert [tuple(perms[start:stop]) for _, start, stop in classes] == list(groups.values())
    assert classes[-1][2] == len(perms) == math.factorial(n)
    assert len(below) == n
    for j, masks in enumerate(below):
        assert len(masks) == n + 1
        for v, mask in enumerate(masks):
            assert mask == sum(1 << p for p, w in enumerate(perms) if w[j] <= v)
