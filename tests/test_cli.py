import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from immanants.cli import main
from immanants.verify import CheckReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kostka_table_and_json(capsys):
    code, out, _ = run_cli(capsys, "kostka", "--theta", "6,1,1", "--content", "2,2,3,1",
                           "--format", "table")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(capsys, "kostka", "--theta", "6,1,1", "--content", "2,2,3,1")
    assert code == 0
    assert json.loads(out) == {"theta": [6, 1, 1], "content": [2, 2, 3, 1], "kostka": 3}


def test_matrix_render(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--outer", "2,2,2", "--inner", "1",
                           "--format", "table")
    assert code == 0
    assert out == "h_1 h_3 h_4\n  1 h_2 h_3\n  0 h_1 h_2\n"
    code, out, _ = run_cli(capsys, "matrix", "--outer", "2,2,2", "--inner", "1")
    blob = json.loads(out)
    assert blob["cells"][1][0] == "1" and blob["cells"][2][0] == "0"


def test_hessenberg_json(capsys):
    code, out, _ = run_cli(capsys, "hessenberg", "--outer", "3,3,3,1", "--inner", "1,1")
    blob = json.loads(out)
    assert code == 0
    assert blob["h"] == [3, 3, 4, 4]
    assert blob["h_prime"] == [2, 3, 3, 4]
    assert blob["abelian"] is True and blob["preabelian"] is False


def test_hessenberg_with_padding_rows(capsys):
    code, out, _ = run_cli(capsys, "hessenberg", "--outer", "2,1", "--rows", "4")
    blob = json.loads(out)
    assert code == 0
    assert blob["h"] == [2, 2, 3, 4]
    assert blob["preabelian"] is None  # undefined once empty rows appear


def test_hessenberg_of_the_empty_shape_has_an_empty_h_prime(capsys):
    # h' = () is defined; only a failed hess_prime prints "undefined".
    code, out, _ = run_cli(capsys, "hessenberg", "--outer", "-")
    assert code == 0 and json.loads(out)["h_prime"] == []
    code, out, _ = run_cli(capsys, "hessenberg", "--outer", "-", "--format", "table")
    assert code == 0 and out.splitlines()[1] == "h' = ()"
    code, out, _ = run_cli(capsys, "hessenberg", "--outer", "2,1", "--rows", "3",
                           "--format", "table")
    assert code == 0 and out.splitlines()[1] == "h' = undefined"


def test_immanant_subcommand(capsys):
    code, out, _ = run_cli(capsys, "immanant", "--char", "mono:2,1", "--outer", "2,2,2",
                           "--inner", "1", "--basis", "s")
    blob = json.loads(out)
    assert code == 0
    assert blob["coeffs"] == {"[5]": 1, "[4,1]": 3, "[3,2]": 4, "[3,1,1]": 2}


def test_gamma_matches_decomposition_sum(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--theta", "6,1,1", "--outer", "3,3,3,1",
                           "--inner", "1,1")
    assert code == 0
    gamma = json.loads(out)
    assert gamma["values"]["[1,1,1,1]"] == 72

    code, out, _ = run_cli(capsys, "decompose", "--theta", "6,1,1", "--outer", "3,3,3,1",
                           "--inner", "1,1")
    assert code == 0
    blob = json.loads(out)
    assert blob["h"] == [3, 3, 4, 4]
    assert blob["summands"] == [
        {"h": [2, 3, 4, 4], "mult": 1},
        {"h": [2, 3, 3, 4], "mult": 1},
        {"h": [3, 3, 3, 4], "mult": 1},
    ]


def test_gamma_json_roundtrips_to_decomposition_sum(capsys):
    from immanants import ClassFunction, hessenberg, stanley_stembridge_character

    _, out, _ = run_cli(capsys, "gamma", "--theta", "6,1,1", "--outer", "3,3,3,1",
                        "--inner", "1,1")
    gamma = ClassFunction.from_json(json.loads(out))
    total = (
        stanley_stembridge_character(hessenberg((2, 3, 4, 4)))
        + stanley_stembridge_character(hessenberg((2, 3, 3, 4)))
        + stanley_stembridge_character(hessenberg((3, 3, 3, 4)))
    )
    assert gamma == total


def test_output_is_deterministic(capsys):
    args = ("gamma", "--theta", "3,1", "--outer", "3,1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_all_suites_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--max-n", "5")
    assert code == 0
    blob = json.loads(out)
    assert len(blob) == 6 and all(r["failures"] == [] for r in blob)


def test_immanant_json_roundtrips_as_symfunc(capsys):
    from immanants import SymFunc, convert, immanant, monomial_character, skew_shape

    _, out, _ = run_cli(capsys, "immanant", "--char", "mono:2,1", "--outer", "2,2,2",
                        "--inner", "1", "--basis", "s")
    parsed = SymFunc.from_json(json.loads(out))
    direct = convert(immanant(monomial_character((2, 1)), skew_shape((2, 2, 2), (1,))), "s")
    assert parsed.coeffs == direct.coeffs


def test_invalid_partition_exits_one(capsys):
    code, _, err = run_cli(capsys, "kostka", "--theta", "1,2", "--content", "1")
    assert code == 1 and "not weakly decreasing" in err


def test_invalid_shape_exits_one(capsys):
    code, _, err = run_cli(capsys, "gamma", "--theta", "2,1", "--outer", "2,1",
                           "--inner", "3")
    assert code == 1 and "does not fit" in err


def test_size_mismatch_exits_one(capsys):
    code, _, err = run_cli(capsys, "gamma", "--theta", "2,1", "--outer", "3,1")
    assert code == 1 and "boxes" in err


def test_bad_usage_exits_one(capsys):
    code, _, _ = run_cli(capsys, "kostka", "--theta", "2,1")
    assert code == 1


def test_verify_subcommand_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "kostka,characters",
                           "--max-n", "3", "--max-size", "4")
    assert code == 0
    blob = json.loads(out)
    assert [r["proposition"] for r in blob] == ["hook-kostka", "character-duality"]
    assert all(r["failures"] == [] for r in blob)


def test_verify_failure_exits_two(capsys, monkeypatch):
    failing = CheckReport("hook-expansion", instances=1,
                          failures=[{"w": [2, 1], "kostka": 0, "indicator_sum": 1}])
    monkeypatch.setattr("immanants.verify.run_suites", lambda *a: [failing])
    code, out, _ = run_cli(capsys, "verify", "--suite", "hook")
    assert code == 2
    assert json.loads(out)[0]["failures"]


def test_scan_streams_json_lines(capsys):
    code, out, _ = run_cli(capsys, "scan", "--max-n", "2", "--max-size", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    # Shapes (1),(2),(3),(1,1),(2,1),(2,2)/(1); one record per theta of each size.
    assert len(lines) == 14
    assert all("eta_expansion" in r for r in lines)


def test_decompose_refuses_the_empty_shape(capsys):
    code, out, err = run_cli(capsys, "decompose", "--outer", "-", "--theta", "-")
    assert code == 1 and out == ""
    assert "at least one row" in err


# Each invalid input exits 1 with nothing on stdout and exactly one stderr line;
# the lines were recorded before invalid input reached `main` as ValueError.
INVALID_INPUT_STDERR = {
    ("kostka", "--theta", "1,2", "--content", "1,2"):
        "invalid partition '1,2': not weakly decreasing: [1, 2]",
    ("gamma", "--outer", "2,2", "--inner", "3", "--theta", "1"):
        "invalid shape: inner [3] does not fit inside outer [2, 2]",
    ("immanant", "--outer", "2,2", "--char", "bogus"):
        "unknown character 'bogus'; use sgn|triv|irr:LAM|mono:LAM|eta:LAM",
    ("immanant", "--outer", "2,2", "--char", "irr:3"):
        "character index [3] is a partition of 3, need 2",
    ("decompose", "--outer", "2,2", "--theta", "4", "--rows", "3"):
        "shape has empty rows; remove them first (remove_empty_rows)",
    ("verify", "--suite", "nope"):
        "unknown suites ['nope']; choose from ['characters', 'hook', 'immanant', 'kostka', "
        "'positivity', 'reductions'] or 'all'",
    ("decompose", "--outer", "-", "--theta", "-"):
        "the hook expansion needs a shape with at least one row",
}


@pytest.mark.parametrize("argv", list(INVALID_INPUT_STDERR), ids=" ".join)
def test_invalid_input_prints_one_stderr_line_and_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", INVALID_INPUT_STDERR[argv] + "\n")


def test_decompose_prints_an_oversized_leg_as_empty_and_quietly():
    # A subprocess, so stderr is what a user sees under default warning filters.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "immanants.cli", "decompose", "--theta", "2,1,1", "--outer", "2,2"],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == (
        '{"theta":[2,1,1],"shape":{"outer":[2,2],"inner":[],"rows":2},"h":[2,2],"summands":[]}\n'
    )


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "immanants" in out


def test_verify_and_scan_reject_bounds_below_one(capsys):
    for command in ("verify", "scan"):
        for flag in ("--max-n", "--max-size"):
            for value in ("0", "-3"):
                code, out, err = run_cli(capsys, command, flag, value)
                assert code == 1 and out == ""
                assert flag in err and "at least 1" in err


def test_verify_exits_two_when_a_suite_checks_nothing(capsys):
    # No immanant test shape has a single row, so this suite checks nothing.
    code, out, err = run_cli(capsys, "verify", "--suite", "kostka,immanant", "--max-n", "1")
    assert code == 2
    assert [r["instances"] > 0 for r in json.loads(out)] == [True, False]
    assert "suite immanant ran 0 instances" in err and "kostka" not in err


# Digests of stdout recorded before `immanant_characters` served every theta
# from one cycle-cover walk; the sweeps must stay byte-identical.
STDOUT_SHA256 = {
    ("scan", "--max-n", "4", "--max-size", "6"):
        "3ec0a60895a2a9293193cde567d1a58832430db39f73e61164f1fd4fe4eb2028",
    ("verify", "--suite", "all", "--max-n", "4", "--max-size", "7"):
        "62159d1996b29bcbe106825131241304bfbbf8aed22714921b7bf797bc79a077",
}


def test_sweep_stdout_is_byte_identical(capsys):
    for argv, want in STDOUT_SHA256.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv


# Digests of the two operations of the benchmark's sweep workload, recorded
# before the hook expansions and h-positive coefficients were computed in
# integers once per shape; they read the same under any hash seed.
BENCH_SWEEP_SHA256 = {
    ("verify", "--suite", "all", "--max-n", "5", "--max-size", "9"):
        "d972087424ba5dc6ed2411c7633151b2d116ece18bc444dda6caa08cbbf6221f",
    ("scan", "--max-n", "5", "--max-size", "8"):
        "6f2e38c8f92220cf336adb94135efb138bc32018754112c71a0bb96778280847",
}


@pytest.mark.parametrize("seed", ["0", "123"])
def test_bench_sweep_stdout_is_byte_identical(seed):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    for argv, want in BENCH_SWEEP_SHA256.items():
        done = subprocess.run([sys.executable, "-m", "immanants.cli", *argv],
                              capture_output=True, env=env, cwd=root)
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout).hexdigest() == want, argv


# Digests of the benchmark's wide and tall operations in their canonical form (no
# rotation, no shift), as the benchmark's reference table holds them; a drift in the
# repr, hash or iteration order of a record shows here before the benchmark runs.
BENCH_WIDE_TALL_SHA256 = {
    ("gamma", "--outer", "5,5,5,5,5,5", "--inner", "3,1", "--theta", "10,8,8"):
        "f43420623793a0e1e4530951795d4f983ad38eabb4894e61e6d545b03dcc8553",
    ("gamma", "--outer", "3,3,3,3,3,3,3", "--inner", "1,1", "--theta", "16,1,1,1"):
        "707f28e4661b1ea77f41dad8f04b916ee0f764199b2cff59707240008ccd6ff8",
    ("gamma", "--outer", "4,4,4,4,4,4", "--inner", "2", "--theta", "8,8,6"):
        "d6765b3faea8751171a36a832a8091d1b21bbd05c40ffad47864702816451ed8",
    ("gamma", "--outer", "2,2,2,2,2,2,2,2,2", "--inner", "1", "--theta", "17"):
        "9f219bedd08009d38f1fde16e4b5746ad88b3c653d5f034664883e6f7d0571eb",
    ("gamma", "--outer", "2,2,2,2,2,2,2,2,1", "--inner", "1", "--theta", "15,1"):
        "7e3e7dc78d4b20f9532079302a4ddf64dc7a6fc8950bb34c33efcc53af2d05d7",
    ("immanant", "--outer", "2,2,2,2,2,2,2,2,2,2", "--inner", "1", "--char", "sgn"):
        "239d2fe2c5a9f1c520db2128ed775e9f5b66a2edd44b9991b6b807466970c933",
}


@pytest.mark.parametrize("argv", BENCH_WIDE_TALL_SHA256, ids=" ".join)
def test_bench_wide_and_tall_stdout_is_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0, argv
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_WIDE_TALL_SHA256[argv]


# Digests of `immanant` stdout in every basis, recorded before the change of
# basis was reduced to one transition matrix per basis and direction.
IMMANANT_SHA256 = {
    "m": "3f6926fcfb826f056909afa8a139b945f63285f52af3a94eb84c28cebd0205c6",
    "h": "655866f4e8b964c5c4ad5e4f02c51cf7a147a4cca02c1f021b2e3f4764e9c2f5",
    "s": "3a49b80e609774c69b745e2413a0b086e75427b4e6c528305f47e58b51e8bfe0",
    "p": "130576bbd6caf7d84888190de96da6b7905e1515173a0e78d88d95671bd321bc",
}


def test_immanant_stdout_in_every_basis_is_byte_identical(capsys):
    for basis, want in IMMANANT_SHA256.items():
        code, out, _ = run_cli(capsys, "immanant", "--outer", "3,3,2,2,1,1", "--inner", "1",
                               "--char", "irr:3,2,1", "--basis", basis)
        assert code == 0, basis
        assert hashlib.sha256(out.encode()).hexdigest() == want, basis


# Digests of degree-12 `immanant` stdout at MAX_DEGREE, recorded before the
# Kostka matrix was built one content column at a time; the m basis also
# reads the inverse Kostka matrix.
DEGREE_12_SHA256 = {
    "s": "d85f815a7341491d8719700674e54396893b36d0aa19e70917f2fef0f4453cbe",
    "m": "0d60c0244963bd65221d6d89b49cef6b6535bf2d63117d854dff1c086244c1e9",
}


def test_degree_12_immanant_stdout_is_byte_identical(capsys):
    for basis, want in DEGREE_12_SHA256.items():
        code, out, _ = run_cli(capsys, "immanant", "--outer", "3,3,2,2,1,1",
                               "--char", "irr:3,2,1", "--basis", basis)
        assert code == 0, basis
        assert hashlib.sha256(out.encode()).hexdigest() == want, basis


def test_immanant_refuses_an_oversized_degree_before_the_walk(capsys):
    # 13 full rows of 4: a walk over 13 rows would take minutes.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "immanant", "--outer", ",".join(["4"] * 13),
                             "--char", "sgn", "--basis", "s")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "degree 52 exceeds the supported bound 12" in err


def test_immanant_in_the_h_basis_has_no_degree_bound(capsys):
    code, out, _ = run_cli(capsys, "immanant", "--outer", "7,6", "--char", "sgn")
    assert code == 0
    assert out == ('{"shape":{"outer":[7,6],"inner":[],"rows":2},"char":"sgn","basis":"h",'
                   '"degree":13,"coeffs":{"[8,5]":-1,"[7,6]":1}}\n')


def test_traced_cli_matches_the_plain_cli(tmp_path):
    # The tracer rebinds library functions by name; a renamed or deleted one breaks it.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    for argv in (
        ["decompose", "--theta", "6,1,1", "--outer", "3,3,3,1", "--inner", "1,1"],
        ["gamma", "--outer", "2,2,2,2,2,2,2,2,1", "--inner", "1", "--theta", "15,1"],
    ):
        traced = subprocess.run(
            [sys.executable, str(root / "bench" / "traced_cli.py"), str(tmp_path / "spans"), *argv],
            capture_output=True, text=True, env=env, cwd=root,
        )
        plain = subprocess.run(
            [sys.executable, "-m", "immanants.cli", *argv],
            capture_output=True, text=True, env=env, cwd=root,
        )
        assert traced.returncode == 0, traced.stderr
        assert plain.returncode == 0 and traced.stdout == plain.stdout, argv
