"""Exact immanant characters of Jacobi-Trudi matrices.

A library and CLI for computing with partitions, Kostka and
Littlewood-Richardson numbers, symmetric group characters, symmetric
function expansions, Jacobi-Trudi immanants, and the expansion of
hook-indexed immanant characters into Stanley-Stembridge characters,
all in exact integer/rational arithmetic.

Submodules load on first use (PEP 562): `import immanants` imports none
of them, and a public name or `immanants.<module>` imports the submodule
that holds it.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "characters": (
        "ClassFunction", "HPositiveDecomposition", "character_table", "class_size",
        "h_positive_decomposition", "induced_trivial_character", "induction_product",
        "inner_product", "irreducible_character", "monomial_character", "sign_character",
        "trivial_character", "zee", "zero_character",
    ),
    "immanant_characters": (
        "HookDecomposition", "collected_coefficient", "content_vector", "hook_decomposition",
        "immanant_character", "immanant_characters", "is_abelian", "is_dahlberg_small",
        "is_preabelian", "stanley_stembridge_character",
    ),
    "jacobitrudi": (
        "HessenbergFunction", "JTMatrix", "NotHessenbergError", "hess_indicator", "hess_prime",
        "hessenberg", "hessenberg_from_skew", "immanant", "jt_matrix",
    ),
    "permutations": ("cycle_type", "inverse", "shuffle", "symmetric_group"),
    "reductions": (
        "components", "immanant_character_from_components", "induce_to", "induce_up",
        "remove_empty_rows",
    ),
    "symfunc": (
        "SymFunc", "convert", "frobenius", "frobenius_inverse", "homogeneous", "multiply",
        "schur", "skew_schur", "sym_func", "sym_inner_product",
    ),
    "tableaux": (
        "Partition", "SkewShape", "connected_skew_shapes", "contains", "hook_partition",
        "hooks_of", "is_hook", "kostka", "kostka_hook", "kostka_matrix", "lr_coefficient",
        "partitions_of", "skew_kostka", "skew_shape",
    ),
    "verify": ("CheckReport", "run_suites", "scan_records"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# Submodules stay reachable as immanants.<module> but are not star-exported.
__all__ = list(_SUBMODULE_OF)


def __getattr__(name):
    if name in _SUBMODULE_OF:
        value = getattr(_import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE_OF, *_EXPORTS})


class _Package(_ModuleType):
    """The package module, on which a public name never binds a submodule.

    Importing a submodule binds it on its package, which would hide the
    function `immanant_characters` behind the submodule of the same name.
    """

    def __setattr__(self, name, value):
        if name not in _SUBMODULE_OF or not isinstance(value, _ModuleType):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
