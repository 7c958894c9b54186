import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import immanants

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

# Runs `python -m immanants.cli ARG...` in-process, then prints its exit code and the
# immanants submodules it loaded.
RUN_CLI_AS_MAIN = """
import io, json, runpy, sys
from contextlib import redirect_stdout
code = 0
with redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("immanants.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m[10:] for m in sys.modules if m.startswith("immanants."))]))
"""


def cli_loads(*argv: str) -> set:
    code, loaded = json.loads(run_fresh(RUN_CLI_AS_MAIN, *argv))
    assert code == 0, argv
    return set(loaded)


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
