"""The names `import ckcalc` exports, pinned so no refactor drops one."""

import inspect

import ckcalc

EXPORTS = {
    "AlgElement", "BadInputError", "CKMono", "CkError", "ComposeMismatchError",
    "Edge", "EvPath", "FinPath", "GaussianRational", "Graph", "GroupoidPoint",
    "InvalidFunctionError", "InvalidGraphError", "InvalidPathError",
    "InvalidPointError", "LengthMismatchError", "LocallyConstantFn",
    "NotComposableError", "NotEqualizableError", "OrderedGraph", "OutOfRangeError",
    "PreconditionError", "SearchFailureError", "SpectrumSet", "TailedPair",
    "TooLargeError", "UnsupportedNormError", "UnsupportedRootError", "WindowTooShortError",
    "acyclic_weights", "adjoint", "af_compression_projections", "all_finpaths",
    "bimodule_member", "check_proj_afpart", "ck_in_analytic", "commutator",
    "compose", "concat", "continuations", "diagonal_element", "element",
    "empty_path", "enumerate_evpaths", "equalize_loops", "ev", "eval_cocycle",
    "eval_cocycle_tailed", "evaluate", "every_loop_has_entrance",
    "format_rational", "fpath", "gauge", "generated_spectrum",
    "graph_from_json_obj", "graph_to_json_obj", "has_loop", "identity",
    "in_alg_n", "in_alg_n_oracle", "in_cylinder", "in_radical_spectrum",
    "integer_obstruction_witness", "inverse", "is_normalizing_pi",
    "is_s_maximal", "is_s_minimal", "is_transitive", "level_atoms",
    "lex_compare", "loop_growth", "max_simple_loop_length", "mono_element",
    "mono_product", "nest_projection", "normalize", "parse_edge_word",
    "parse_rational", "path_isometry", "path_range", "path_source", "phi_m",
    "point_in_Z", "point_in_spectrum_alg_n", "prepend", "primitive_loops",
    "range_projection", "reconstruct_f", "restricted_norm",
    "separating_projections", "shift", "shift_n", "sim_k",
    "support_spectrum", "underlying", "validate", "validate_order",
    "vertex_projection", "zero",
}


def test_package_exports_are_pinned():
    public = {
        name for name, obj in vars(ckcalc).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == EXPORTS
