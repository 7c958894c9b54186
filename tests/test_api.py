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
