"""Check the reference digests in bench/references.json against independent computations.

Run from the repository root:  python3 bench/crosscheck.py

Every operation any seed can draw is run once through the CLI.  Its stdout
must match the recorded digest, and its content must agree with a second
code path:

- gamma: a brute-force oracle in this file (its own permutation walk over
  the Jacobi-Trudi subscripts, and Kostka numbers by the Pieri rule) for
  every theta; in addition Stanley-Stembridge's character of the shape's
  Hessenberg function when theta = (N), and the character of the
  `decompose` summands when theta is a hook.  All shape variants of one
  operation must print the same bytes.
- immanant with the sign character in the h basis: the determinant of the
  Jacobi-Trudi matrix by Laplace expansion.
- immanant with any other character in the s basis: the inner-product law,
  coefficient of s_theta = <immanant character at theta, chi>.
- verify: exit 0, every report has instances > 0 and no failures.
- scan: every record parses and every hook record is h-positive.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from collections import Counter
from functools import cache

import run

sys.path.insert(0, str(run.SRC))

from immanants import (  # noqa: E402
    ClassFunction,
    SymFunc,
    hessenberg_from_skew,
    hook_decomposition,
    immanant_character,
    inner_product,
    irreducible_character,
    is_hook,
    partitions_of,
    skew_shape,
    stanley_stembridge_character,
    zee,
)


def _horizontal_strips(theta: tuple, k: int):
    """Partitions mu with theta/mu a horizontal strip of k boxes."""
    n = len(theta)

    def rec(i: int, left: int, mu: list):
        if i == n:
            if left == 0:
                yield tuple(x for x in mu if x)
            return
        low = theta[i + 1] if i + 1 < n else 0
        for take in range(min(left, theta[i] - low) + 1):
            mu.append(theta[i] - take)
            yield from rec(i + 1, left - take, mu)
            mu.pop()

    yield from rec(0, k, [])


@cache
def pieri_kostka(theta: tuple, content: tuple) -> int:
    """K(theta, content): strip the largest letter's horizontal strip and recurse."""
    if not content:
        return 1 if not theta else 0
    return sum(pieri_kostka(mu, content[:-1]) for mu in _horizontal_strips(theta, content[-1]))


def _cycle_type(w: tuple) -> tuple:
    seen, lengths = set(), []
    for s in range(len(w)):
        length, j = 0, s
        while j not in seen:
            seen.add(j)
            j = w[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def brute_force_gamma(theta: tuple, outer: list, inner: list) -> dict:
    """zee(rho) * sum over w of type rho of K(theta, subscripts of the matrix along w)."""
    n = len(outer)
    inner = (inner + [0] * n)[:n]
    sub = [[outer[i] - inner[j] + j - i for j in range(n)] for i in range(n)]
    sums: Counter = Counter()
    for w in itertools.permutations(range(n)):
        content = [sub[w[j]][j] for j in range(n)]
        if min(content) < 0:
            continue
        sums[_cycle_type(w)] += pieri_kostka(theta, tuple(sorted(c for c in content if c)))
    return {rho: zee(rho) * sums[rho] for rho in partitions_of(n)}


def laplace_determinant(shape) -> dict:
    """h-expansion of the Jacobi-Trudi determinant, row by row over sets of used columns."""
    n = shape.rows
    outer, inner = shape.padded()
    layer = {0: Counter({(): 1})}
    for i in range(n):
        following: dict = {}
        for used, poly in layer.items():
            for j in range(n):
                k = outer[i] - inner[j] + j - i
                if used >> j & 1 or k < 0:
                    continue
                sign = -1 if bin(used >> (j + 1)).count("1") % 2 else 1  # inversions added
                target = following.setdefault(used | 1 << j, Counter())
                for mono, c in poly.items():
                    target[tuple(sorted(mono + (k,) if k else mono, reverse=True))] += sign * c
        layer = following
    return {mono: c for mono, c in layer.get((1 << n) - 1, Counter()).items() if c}


def _option(argv: list, name: str, default: str = "-") -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _partition(argv: list, name: str) -> tuple:
    return tuple(run.parse_parts(_option(argv, name)))


def _shape(argv: list):
    return skew_shape(_partition(argv, "--outer"), _partition(argv, "--inner"))


def check_gamma(argv: list, out: bytes) -> list[str]:
    shape = _shape(argv)
    theta = _partition(argv, "--theta")
    got = ClassFunction.from_json(json.loads(out))
    problems = []
    if got.values != brute_force_gamma(theta, list(shape.outer), list(shape.inner)):
        problems.append("differs from the brute-force oracle")
    if theta == (shape.size,):
        if got != stanley_stembridge_character(hessenberg_from_skew(shape)):
            problems.append("differs from the Stanley-Stembridge character")
    elif is_hook(theta):
        if got != hook_decomposition(theta, shape).character():
            problems.append("differs from the decompose summands' character")
    return problems


def check_immanant(argv: list, out: bytes) -> list[str]:
    shape = _shape(argv)
    spec = _option(argv, "--char")
    basis = _option(argv, "--basis", "h")
    got = SymFunc.from_json(json.loads(out))
    if spec == "sgn" and basis == "h":
        want = laplace_determinant(shape)
        return [] if got.coeffs == want else ["differs from the Laplace-expanded determinant"]
    if basis != "s" or not spec.startswith("irr:"):
        return [f"no independent check for --char {spec} --basis {basis}"]
    chi = irreducible_character(tuple(run.parse_parts(spec[len("irr:"):])))
    for theta in partitions_of(shape.size):
        if inner_product(immanant_character(theta, shape), chi) != got.coefficient(theta):
            return [f"s{list(theta)} coefficient breaks the inner-product law"]
    return []


def check_verify(argv: list, out: bytes) -> list[str]:
    reports = json.loads(out)
    bad = [r["proposition"] for r in reports if r["instances"] <= 0 or r["failures"]]
    return [f"empty or failing reports: {bad}"] if bad or not reports else []


def check_scan(argv: list, out: bytes) -> list[str]:
    records = [json.loads(line) for line in out.splitlines()]
    bad = [r for r in records if r["hook"] and not r["h_positive"]]
    return [f"{len(bad)} hook records not h-positive"] if bad or not records else []


def check_kostka(argv: list, out: bytes) -> list[str]:
    value = json.loads(out)["kostka"]
    theta = _partition(argv, "--theta")
    content = tuple(sorted(run.parse_parts(_option(argv, "--content")), reverse=True))
    return [] if value == pieri_kostka(theta, content) else ["differs from the Pieri rule"]


CHECKS = {
    "gamma": check_gamma,
    "immanant": check_immanant,
    "verify": check_verify,
    "scan": check_scan,
    "kostka": check_kostka,
}


def main() -> int:
    refs = run.load_references()
    failures = 0
    ops = [run.SETUP_COMMAND]
    for workload, spec in run.DESIGN["workloads"].items():
        for base in spec["ops"]:
            variants = run.variants_of(workload, base)
            ops += variants
            outputs = {refs.get(run.op_key(v)) for v in variants}
            if base[0] == "gamma" and len(outputs) != 1:
                failures += 1
                print(f"FAIL {run.op_key(base)}: its shape variants print {len(outputs)} different outputs")
    checked: dict[str, list[str]] = {}
    for argv in ops:
        result = run.run_op(argv, refs)
        digest = hashlib.sha256(result.stdout).hexdigest()
        if result.error:
            problems = [result.error]
        elif digest in checked:  # same bytes as a variant already checked
            problems = checked[digest]
        else:
            problems = checked[digest] = CHECKS[argv[0]](argv, result.stdout)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {result.wall_s:6.2f} s  {run.op_key(argv)}  {'; '.join(problems)}",
              flush=True)
    run.clean_work()
    print(f"{failures} failures over {len(ops)} operations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
