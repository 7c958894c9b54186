import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import immanants
from immanants import (
    CheckReport,
    hessenberg,
    h_positive_decomposition,
    hook_decomposition,
    jt_matrix,
    sign_character,
    skew_shape,
    sym_func,
    trivial_character,
)

# The public names of the package; removing one breaks callers of the library.
PUBLIC_NAMES = [
    "CheckReport", "ClassFunction", "HPositiveDecomposition", "HessenbergFunction",
    "HookDecomposition", "JTMatrix", "NotHessenbergError", "Partition", "SkewShape",
    "SymFunc", "character_table", "class_size", "collected_coefficient", "components",
    "connected_skew_shapes", "contains", "content_vector", "convert", "cycle_type",
    "frobenius", "frobenius_inverse", "h_positive_decomposition", "hess_indicator",
    "hess_prime", "hessenberg", "hessenberg_from_skew", "homogeneous",
    "hook_decomposition", "hook_partition", "hooks_of", "immanant",
    "immanant_character", "immanant_character_from_components", "immanant_characters",
    "induce_to", "induce_up", "induced_trivial_character", "induction_product",
    "inner_product", "inverse", "irreducible_character", "is_abelian",
    "is_dahlberg_small", "is_hook", "is_preabelian", "jt_matrix", "kostka",
    "kostka_hook", "kostka_matrix", "lr_coefficient", "monomial_character", "multiply",
    "partitions_of", "remove_empty_rows", "run_suites", "scan_records", "schur",
    "shuffle", "sign_character", "skew_kostka", "skew_schur", "skew_shape",
    "stanley_stembridge_character", "sym_func", "sym_inner_product", "symmetric_group",
    "trivial_character", "zee", "zero_character",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 69
    assert sorted(immanants.__all__) == PUBLIC_NAMES
    assert all(hasattr(immanants, name) for name in PUBLIC_NAMES)
    # Submodules stay reachable on the package, but `import *` skips them.
    for module in ("characters", "jacobitrudi", "permutations", "reductions", "symfunc",
                   "tableaux", "verify"):
        assert getattr(immanants, module).__name__ == f"immanants.{module}"


def run_fresh(code: str, *args: str) -> str:
    """Run code in a fresh interpreter with the package on the path; return its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("first_import", [
    "from immanants import hook_decomposition",
    "import immanants.reductions",
    "import immanants.immanant_characters as m",
])
def test_immanant_characters_names_the_function_however_the_package_loads(first_import):
    # The submodule and the function share a name; loading the submodule must not rebind it.
    run_fresh(first_import + """
import sys, types
import immanants
module = sys.modules["immanants.immanant_characters"]
assert isinstance(module, types.ModuleType)
assert isinstance(immanants.immanant_characters, types.FunctionType)
assert immanants.immanant_characters is module.immanant_characters
""")


LAYERS = {"characters", "immanant_characters", "jacobitrudi", "permutations", "reductions",
          "symfunc", "tableaux", "verify"}

# The imports RUN_CLI_AS_MAIN needs; an interpreter that runs only these is the
# baseline for what a command loads.
HARNESS = """
import io, json, runpy, sys
from contextlib import redirect_stdout
"""

# Runs `python -m immanants.cli ARG...` in-process, then prints its exit code and the
# modules it loaded.
RUN_CLI_AS_MAIN = HARNESS + """
code = 0
with redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("immanants.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def cli_modules(*argv: str) -> set:
    """Every module loaded once the command has run."""
    code, loaded = json.loads(run_fresh(RUN_CLI_AS_MAIN, *argv))
    assert code == 0, argv
    return set(loaded)


def cli_loads(*argv: str) -> set:
    """The immanants submodules the command loads."""
    return {m[10:] for m in cli_modules(*argv) if m.startswith("immanants.")}


def test_each_subcommand_loads_only_the_layers_it_runs():
    assert cli_loads("kostka", "--theta", "2,1", "--content", "1,1,1") == {"tableaux"}
    for argv in (("gamma", "--outer", "3,2", "--theta", "4,1"),
                 ("decompose", "--outer", "3,2", "--theta", "4,1")):
        assert not cli_loads(*argv) & {"verify", "reductions", "symfunc"}, argv
    assert cli_loads("verify", "--suite", "kostka", "--max-n", "2", "--max-size", "3") == LAYERS
    assert cli_loads("scan", "--max-n", "2", "--max-size", "3") == LAYERS


def test_importing_the_package_loads_no_submodule():
    out = run_fresh("""
import sys, immanants
print([m for m in sys.modules if m.startswith("immanants.")])
print(immanants.verify.__name__)
from immanants import *
print(all(name in globals() for name in immanants.__all__))
""")
    assert out == "[]\nimmanants.verify\nTrue\n"


# One command per subcommand; each must start without the standard library's heavier
# modules, and the first five without `fractions`, since none of them builds a Fraction.
SUBCOMMANDS = [
    ("kostka", "--theta", "2,1", "--content", "1,1,1"),
    ("matrix", "--outer", "3,2", "--inner", "1"),
    ("hessenberg", "--outer", "3,3,3,1", "--inner", "1,1"),
    ("gamma", "--outer", "3,2", "--theta", "4,1"),
    ("decompose", "--outer", "3,2", "--theta", "4,1"),
    ("immanant", "--outer", "2,2,2", "--inner", "1", "--char", "sgn"),
    ("verify", "--suite", "kostka", "--max-n", "2", "--max-size", "3"),
    ("scan", "--max-n", "2", "--max-size", "3"),
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_subcommands_start_without_dataclasses_inspect_or_fractions(argv):
    # What the command loads beyond a bare interpreter started the same way.
    bare = json.loads(run_fresh(HARNESS + "print(json.dumps(sorted(sys.modules)))"))
    loaded = cli_modules(*argv) - set(bare)
    assert not loaded & {"dataclasses", "inspect"}
    if argv[0] in ("kostka", "matrix", "hessenberg", "gamma", "decompose"):
        assert "fractions" not in loaded


_SHAPE = skew_shape((3, 2), (1,))

# One instance of every record class, its field names in order, and its exact repr.
RECORDS = [
    (_SHAPE, ("outer", "inner", "rows"), "SkewShape(outer=(3, 2), inner=(1,), rows=2)"),
    (hessenberg((2, 3, 3)), ("values",), "HessenbergFunction(values=(2, 3, 3))"),
    (jt_matrix(skew_shape((2, 2), (1,))), ("n", "sub"), "JTMatrix(n=2, sub=((1, 3), (0, 2)))"),
    (trivial_character(2), ("n", "values"), "ClassFunction(n=2, values={(2,): 1, (1, 1): 1})"),
    (h_positive_decomposition(sign_character(2)),
     ("n", "coefficients", "is_integral", "is_nonnegative"),
     "HPositiveDecomposition(n=2, coefficients={(2,): -1, (1, 1): 1}, is_integral=True, "
     "is_nonnegative=False)"),
    (hook_decomposition((3, 1), _SHAPE), ("theta", "shape", "base", "prime", "leg", "summands"),
     "HookDecomposition(theta=(3, 1), shape=SkewShape(outer=(3, 2), inner=(1,), rows=2), "
     "base=HessenbergFunction(values=(2, 2)), prime=HessenbergFunction(values=(1, 2)), leg=1, "
     "summands=((HessenbergFunction(values=(1, 2)), 1),))"),
    (sym_func("s", 2, {(2,): 1, (1, 1): -2}), ("basis", "degree", "coeffs"),
     "SymFunc(basis='s', degree=2, coeffs={(2,): 1, (1, 1): -2})"),
    (CheckReport("hook-expansion", 2, [{"w": [2, 1]}]), ("name", "instances", "failures"),
     "CheckReport(name='hook-expansion', instances=2, failures=[{'w': [2, 1]}])"),
]


@pytest.mark.parametrize("record, names, text", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_records_compare_hash_and_print_as_frozen_dataclasses(record, names, text):
    cls = type(record)
    fields = tuple(getattr(record, name) for name in names)
    # Equal within the class, built positionally or by keyword; never equal to a tuple.
    assert cls(*fields) == record == cls(**dict(zip(names, fields)))
    assert record != fields and fields != record
    assert copy.copy(record) == record == copy.deepcopy(record)
    assert repr(record) == text
    if cls is CheckReport:
        # Mutable, so unhashable, and each report starts with its own failure list.
        with pytest.raises(TypeError):
            hash(record)
        record.instances += 1
        assert record.instances == 3
        fresh, other = CheckReport("a"), CheckReport("a")
        fresh.failures.append({})
        assert other.failures == [] and fresh != other
        return
    try:
        expected = hash(fields)
    except TypeError:  # a dict field: unhashable, like the tuple of the fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == fields


FROZEN = [(record, names) for record, names, _ in RECORDS if type(record) is not CheckReport]


@pytest.mark.parametrize("record, names", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_a_wrong_field_list(record, names):
    cls = type(record)
    fields = tuple(getattr(record, name) for name in names)
    # Fields may come partly by position, the rest by name.
    assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == record
    wrong = [
        ((fields[:-1], {}), repr(names[-1])),  # a missing field
        ((fields, {"bogus": 1}), "'bogus'"),  # an unknown keyword
        ((fields, {names[0]: fields[0]}), repr(names[0])),  # a field given twice
        ((fields + (None,), {}), "positional"),  # too many positional arguments
    ]
    for (args, kwargs), named in wrong:
        with pytest.raises(TypeError, match=named):
            cls(*args, **kwargs)


def test_validating_records_refuse_bad_values_by_keyword():
    with pytest.raises(immanants.NotHessenbergError, match="not weakly increasing"):
        immanants.HessenbergFunction(values=(3, 2, 3))
    with pytest.raises(immanants.NotHessenbergError, match=r"h\(3\) = 2"):
        immanants.HessenbergFunction(values=(1, 3, 2))
    with pytest.raises(ValueError, match=r"missing values for cycle types \[\(1, 1\)\]"):
        immanants.ClassFunction(n=2, values={(2,): 1})
    with pytest.raises(ValueError, match="unexpected cycle types"):
        immanants.ClassFunction(n=1, values={(1,): 1, (2,): 0})
