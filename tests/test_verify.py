import json
from dataclasses import replace

import pytest

from immanants import (
    connected_skew_shapes,
    hook_decomposition,
    hook_partition,
    partitions_of,
    skew_shape,
)
from immanants.verify import (
    CheckReport,
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

    def drop_one_summand(theta, shape):
        decomp = hook_decomposition(theta, shape)
        if tuple(theta) == broken:
            decomp = replace(decomp, summands=decomp.summands[1:])
        return decomp

    monkeypatch.setattr("immanants.verify.hook_decomposition", drop_one_summand)
    report = verify_hook_decompositions(shape, hooks)
    assert report.instances == len(hooks)
    assert {tuple(f["theta"]) for f in report.failures} == {broken}
    witnesses = [f for f in report.failures if "w" in f]
    assert witnesses and all(f["kostka"] != f["indicator_sum"] for f in witnesses)
    assert any(f.get("error") == "class functions differ" for f in report.failures)
    one_at_a_time = [verify_hook_decomposition(theta, shape) for theta in hooks]
    assert [r.ok for r in one_at_a_time] == [theta != broken for theta in hooks]
    assert report.failures == [f for r in one_at_a_time for f in r.failures]


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
