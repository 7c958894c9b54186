"""Exact immanant characters of Jacobi-Trudi matrices.

A library and CLI for computing with partitions, Kostka and
Littlewood-Richardson numbers, symmetric group characters, symmetric
function expansions, Jacobi-Trudi immanants, and the expansion of
hook-indexed immanant characters into Stanley-Stembridge characters,
all in exact integer/rational arithmetic.
"""

from types import ModuleType as _ModuleType

from .characters import (
    ClassFunction,
    HPositiveDecomposition,
    character_table,
    class_size,
    h_positive_decomposition,
    induced_trivial_character,
    induction_product,
    inner_product,
    irreducible_character,
    monomial_character,
    sign_character,
    trivial_character,
    zee,
    zero_character,
)
from .immanant_characters import (
    HookDecomposition,
    collected_coefficient,
    content_vector,
    hook_decomposition,
    immanant_character,
    immanant_characters,
    is_abelian,
    is_dahlberg_small,
    is_preabelian,
    stanley_stembridge_character,
)
from .jacobitrudi import (
    HessenbergFunction,
    JTMatrix,
    NotHessenbergError,
    hess_indicator,
    hess_prime,
    hessenberg,
    hessenberg_from_skew,
    immanant,
    jt_matrix,
)
from .permutations import cycle_type, inverse, shuffle, symmetric_group
from .reductions import (
    components,
    immanant_character_from_components,
    induce_to,
    induce_up,
    remove_empty_rows,
)
from .symfunc import (
    SymFunc,
    convert,
    frobenius,
    frobenius_inverse,
    homogeneous,
    multiply,
    schur,
    skew_schur,
    sym_func,
    sym_inner_product,
)
from .tableaux import (
    Partition,
    SkewShape,
    connected_skew_shapes,
    contains,
    hook_partition,
    hooks_of,
    is_hook,
    kostka,
    kostka_hook,
    kostka_matrix,
    lr_coefficient,
    partitions_of,
    skew_kostka,
    skew_shape,
)
from .verify import CheckReport, run_suites, scan_records

__version__ = "0.1.0"

# Submodules stay reachable as immanants.<module> but are not star-exported.
__all__ = [n for n, v in list(globals().items()) if n[0] != "_" and not isinstance(v, _ModuleType)]
