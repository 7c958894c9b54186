"""Acceptance suite: every criterion at exact tolerance, one line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines;
`pytest -v` reports the same through test outcomes.  All arithmetic is
exact; the timed criteria assert their stated wall-clock bounds.
"""

import hashlib
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from immanants import (
    convert,
    hess_indicator,
    hessenberg,
    hessenberg_from_skew,
    hook_decomposition,
    hook_partition,
    immanant,
    immanant_character,
    immanant_characters,
    irreducible_character,
    monomial_character,
    sign_character,
    skew_shape,
    stanley_stembridge_character,
    zee,
)
from immanants.tableaux import _strips, connected_skew_shapes, kostka
from immanants.verify import (
    suite_characters,
    suite_hook,
    suite_immanant,
    suite_kostka,
    suite_positivity,
    suite_reductions,
)
from test_immanant_characters import corner_lowered_summands

S3_CLASSES = [(1, 1, 1), (2, 1), (3,)]
S4_CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")


def test_criterion_01_kostka_goldens_and_hook_formula():
    start = time.monotonic()
    golden = kostka((6, 1, 1), (2, 2, 3, 1)) == 3
    sweep = suite_kostka(max_n=6, max_size=8)
    elapsed = time.monotonic() - start
    ok = golden and sweep.ok and elapsed < 10
    report(1, "kostka-goldens-and-hook-formula", ok,
           f"{sweep.instances} contents, {elapsed:.1f}s")
    assert golden
    assert sweep.ok, sweep.failures[:3]
    assert elapsed < 10


def test_criterion_02_s3_character_table():
    chi = irreducible_character((2, 1))
    phi = monomial_character((2, 1))
    got_chi = [chi.values[r] for r in S3_CLASSES]
    got_phi = [phi.values[r] for r in S3_CLASSES]
    ok = got_chi == [2, 0, -1] and got_phi == [0, 2, -3]
    report(2, "s3-character-table", ok, f"chi={got_chi} phi={got_phi}")
    assert got_chi == [2, 0, -1]
    assert got_phi == [0, 2, -3]


def test_criterion_03_immanant_goldens():
    shape = skew_shape((2, 2, 2), (1,))
    det = convert(immanant(sign_character(3), shape), "s")
    chi_h = immanant(irreducible_character((2, 1)), shape)
    chi_s = convert(chi_h, "s")
    phi_s = convert(immanant(monomial_character((2, 1)), shape), "s")
    ok = (
        det.coeffs == {(2, 2, 1): 1}
        and chi_h.coeffs == {(2, 2, 1): 2, (4, 1): -1}
        and chi_s.coeffs
        == {(2, 2, 1): 2, (3, 1, 1): 2, (3, 2): 4, (4, 1): 3, (5,): 1}
        and phi_s.coeffs == {(3, 1, 1): 2, (3, 2): 4, (4, 1): 3, (5,): 1}
    )
    report(3, "immanant-goldens", ok)
    assert ok


def test_criterion_04_hessenberg_extraction_and_indicator():
    h_big = hessenberg_from_skew(skew_shape((3, 2, 2, 1, 1)))
    h = hessenberg((3, 3, 4, 4))
    indicators = (
        hess_indicator(h, (1, 2, 3, 4)),
        hess_indicator(h, (3, 1, 4, 2)),
        hess_indicator(h, (3, 4, 1, 2)),
    )
    ok = h_big.values == (3, 3, 4, 5, 5) and indicators == (1, 1, 0)
    report(4, "hessenberg-extraction-and-indicator", ok,
           f"h={h_big.values} indicators={indicators}")
    assert h_big.values == (3, 3, 4, 5, 5)
    assert indicators == (1, 1, 0)


def test_criterion_05_stanley_stembridge_golden_table():
    # The value at a class is zee(rho) times the number of admissible words
    # (w(i) <= h(i)) of that cycle type.  h=(3,3,4,4) admits twelve:
    #   (1,1,1,1)  1234                     1 * zee 24 = 24
    #   (2,1,1)    2134, 3214, 1324, 1243   4 * zee  4 = 16
    #   (2,2)      2143                     1 * zee  8 =  8
    #   (3,1)      1342, 2314, 3124, 3241   4 * zee  3 = 12
    #   (4)        2341, 3142               2 * zee  4 =  8
    # (3241 is the 3-cycle 1->3->4->1 with 2 fixed, not a 4-cycle.)
    g = stanley_stembridge_character(hessenberg((3, 3, 4, 4)))
    got = tuple(g.values[r] for r in S4_CLASSES)
    pinned = (24, 16, 8, 12, 8)
    anchor = g.values[(2, 1, 1)] == 16  # the class (2,1,1): 2134, 3214, 1324, 1243
    # Kernel-free consistency of the pinned tuple itself: the class counts
    # pinned/zee sum to the permanent of the 0/1 matrix [j <= h(i)] (3*2*2),
    # and their signed sum is its determinant, 0 since rows 1, 2 and rows
    # 3, 4 are equal.
    counts = [Fraction(v, zee(r)) for v, r in zip(pinned, S4_CLASSES)]
    signs = [(-1) ** (4 - len(r)) for r in S4_CLASSES]
    permanent = sum(counts)
    determinant = sum(s * c for s, c in zip(signs, counts))
    ok = got == pinned and anchor and permanent == 12 and determinant == 0
    report(5, "stanley-stembridge-golden-table", ok,
           f"got={got} pinned={pinned} permanent={permanent} determinant={determinant}")
    assert permanent == 12
    assert determinant == 0
    assert anchor
    assert got == pinned


def test_criterion_06_hook_decomposition_golden_instance():
    start = time.monotonic()
    shape = skew_shape((3, 3, 3, 1), (1, 1))
    dec = hook_decomposition((6, 1, 1), shape)
    summands = {(h.values, m) for h, m in dec.summands}
    expected = {((2, 3, 4, 4), 1), ((2, 3, 3, 4), 1), ((3, 3, 3, 4), 1)}
    equal = dec.character() == immanant_character((6, 1, 1), shape)
    elapsed = time.monotonic() - start
    ok = summands == expected and equal and elapsed < 1
    report(6, "hook-decomposition-golden-instance", ok, f"{elapsed:.2f}s")
    assert summands == expected
    assert equal
    assert elapsed < 1


def test_criterion_07_hook_theorem_exhaustive_sweep():
    start = time.monotonic()
    sweep = suite_hook(max_n=5, max_size=9)
    elapsed = time.monotonic() - start
    ok = sweep.ok and elapsed < 300
    report(7, "hook-theorem-exhaustive-sweep", ok,
           f"{sweep.instances} instances, {elapsed:.1f}s")
    assert sweep.ok, sweep.failures[:3]
    assert elapsed < 300


def test_criterion_08_collected_coefficients_on_sweep():
    # The summands come from the multiplicity formula; the per-subset
    # enumeration must give the same ones, in order, with the same multiplicities.
    checked = 0
    for n in range(1, 6):
        for size in range(n, 10):
            for shape in connected_skew_shapes(n, size):
                for k in range(0, min(n - 1, size - 1) + 1):
                    dec = hook_decomposition(hook_partition(size, k), shape)
                    got = [(h.values, mult) for h, mult in dec.summands]
                    assert got == corner_lowered_summands(shape, k), (shape, k)
                    checked += len(got)
    report(8, "collected-coefficient-formula", True, f"{checked} summands")


def test_criterion_09_duality_and_orthonormality():
    start = time.monotonic()
    sweep = suite_characters(max_n=7)
    elapsed = time.monotonic() - start
    ok = sweep.ok and elapsed < 60
    report(9, "duality-and-orthonormality", ok,
           f"{sweep.instances} pairs, {elapsed:.1f}s")
    assert sweep.ok, sweep.failures[:3]
    assert elapsed < 60


def test_criterion_10_immanant_inner_product_law():
    sweep = suite_immanant(max_n=4, max_size=8)
    # Ten shapes, each checked with the sign character and five random
    # integer class functions: fifty random characters in all.
    ok = sweep.ok and sweep.instances == 60
    report(10, "immanant-inner-product-law", ok, f"{sweep.instances} instances")
    assert sweep.instances == 60
    assert sweep.ok, sweep.failures[:3]


def test_criterion_11_reduction_suites():
    sweep = suite_reductions(max_n=5, max_size=8)
    report(11, "reduction-suites", sweep.ok, f"{sweep.instances} instances")
    assert sweep.ok, sweep.failures[:3]


def test_criterion_12_positivity_families():
    sweep = suite_positivity(max_n=5, max_size=8)
    report(12, "hook-positivity-families", sweep.ok, f"{sweep.instances} instances")
    assert sweep.ok, sweep.failures[:3]


def timed_cli(*argv, launcher=()):
    """Run the CLI on this checkout's src in a subprocess, started by `python *launcher` when
    a launcher is given: (completed process, wall seconds)."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    program = [sys.executable, *launcher] if launcher else []
    start = time.monotonic()
    done = subprocess.run(
        [*program, sys.executable, "-m", "immanants.cli", *argv], capture_output=True, env=env, cwd=root)
    return done, time.monotonic() - start


# Spawns argv[1:], reaps it with os.wait4 and appends its peak RSS in KB to stderr.  Linux
# carries the spawning process's peak RSS into the child's ru_maxrss across exec, so the
# CLI is spawned by this small launcher, not by pytest.
PEAK_LAUNCHER = (
    "import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
    "_, status, usage = os.wait4(pid, 0); print(usage.ru_maxrss, file=sys.stderr); "
    "sys.exit(os.waitstatus_to_exitcode(status))"
)


def peak_cli(*argv):
    """`timed_cli` through `PEAK_LAUNCHER`: (completed process, wall seconds, peak RSS in MB)."""
    done, elapsed = timed_cli(*argv, launcher=("-I", "-S", "-c", PEAK_LAUNCHER))
    *stderr, peak = done.stderr.split(b"\n")[:-1]
    done.stderr = b"\n".join(stderr)
    return done, elapsed, int(peak) / 1024


def test_criterion_13_gamma_at_theta2_2_on_twelve_rows():
    # (140, 2, 2) on (12^12): the grid clipped at theta_2 = 2 merges the
    # contents, so the CLI answers in well under a second.
    done, elapsed = timed_cli("gamma", "--theta", "140,2,2", "--outer", ",".join(["12"] * 12))
    digest = hashlib.sha256(done.stdout).hexdigest()
    want = "45a2e45abbc4dc568c9d295f3dddac0e9ba130c601fca86c2ca01a679e9d648f"
    ok = done.returncode == 0 and digest == want and elapsed < 1
    report(13, "gamma-theta2-2-on-12-rows", ok, f"{elapsed:.2f}s")
    assert done.returncode == 0, done.stderr
    assert digest == want
    assert elapsed < 1


def test_criterion_14_one_pieri_walk_for_every_alpha():
    # (30, 20, 14) on (8^8) clips nothing off its 5,270 distinct contents,
    # and every theta of (5^5) asks for 1,958 thetas: one Pieri walk serves them all.
    done, elapsed = timed_cli("gamma", "--theta", "30,20,14", "--outer", ",".join(["8"] * 8))
    digest = hashlib.sha256(done.stdout).hexdigest()
    want = "a4384bcc65f486a1ee9a0acccc82d768e84c95a52a040fa434617f6503d450de"
    _strips.cache_clear()
    start = time.monotonic()
    shape = skew_shape((5,) * 5)
    gammas = immanant_characters(shape)
    in_process = time.monotonic() - start
    every_theta = len(gammas) == 1958 and gammas[(25,)] == stanley_stembridge_character(
        hessenberg_from_skew(shape))
    ok = done.returncode == 0 and digest == want and elapsed < 10 and every_theta and in_process < 1
    report(14, "one-pieri-walk-for-every-alpha", ok, f"{elapsed:.2f}s, (5^5) {in_process:.2f}s")
    assert done.returncode == 0, done.stderr
    assert digest == want
    assert elapsed < 10
    assert every_theta
    assert in_process < 1


def test_criterion_15_scan_digest_where_half_turns_merge_many_shapes():
    # At (7, 11) `scan` counts gamma once per clipped grid up to a half turn, on
    # grids that many shapes share; its bytes are pinned here.  Its memos, Kostka
    # columns and eta-expansions included, are dropped with each (rows, size) block,
    # so its peak stays near one block's (41 MB when the eta memo lived for the run).
    done, elapsed, peak_mb = peak_cli("scan", "--max-n", "7", "--max-size", "11")
    digest = hashlib.sha256(done.stdout).hexdigest()
    want = "422361de27d2863123797bcbb74f0f221dac91ba91cd2edc084628b855018cf1"
    ok = done.returncode == 0 and digest == want and elapsed < 20 and peak_mb < 35
    report(15, "scan-digest-at-7-rows-11-boxes", ok, f"{elapsed:.2f}s, {peak_mb:.1f} MB")
    assert done.returncode == 0, done.stderr
    assert digest == want
    assert elapsed < 20
    assert peak_mb < 35
