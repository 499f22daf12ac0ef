"""Exact symbolic calculus for Cuntz-Krieger path algebras.

Everything is computed over Gaussian rationals, so all results are exact.
The subpackages split along the objects they manipulate:

- graph: directed graphs with ordered incoming edges
- paths: finite and eventually periodic paths, groupoid points
- scalars: Gaussian rational coefficients
- ckalg: monomial arithmetic and normal forms
- bimodule: closed-bimodule spectra
- nest: triangular subalgebra membership
- cocycle: locally constant functions and their cocycles
- cli: the ckcalc command-line tool
"""

from .errors import (
    BadInputError,
    CkError,
    ComposeMismatchError,
    InvalidFunctionError,
    InvalidGraphError,
    InvalidPathError,
    InvalidPointError,
    LengthMismatchError,
    NotComposableError,
    NotEqualizableError,
    OutOfRangeError,
    PreconditionError,
    SearchFailureError,
    TooLargeError,
    UnsupportedNormError,
    UnsupportedRootError,
    WindowTooShortError,
)
from .graph import (
    Edge,
    Graph,
    OrderedGraph,
    every_loop_has_entrance,
    graph_from_json_obj,
    graph_to_json_obj,
    has_loop,
    is_transitive,
    max_simple_loop_length,
    underlying,
    validate,
    validate_order,
)
from .paths import (
    EvPath,
    FinPath,
    GroupoidPoint,
    all_finpaths,
    compose,
    concat,
    continuations,
    empty_path,
    enumerate_evpaths,
    ev,
    fpath,
    in_cylinder,
    inverse,
    is_s_maximal,
    is_s_minimal,
    lex_compare,
    parse_edge_word,
    path_range,
    path_source,
    point_in_Z,
    prepend,
    primitive_loops,
    shift,
    shift_n,
    sim_k,
)
from .scalars import GaussianRational, format_rational, parse_rational
from .ckalg import (
    AlgElement,
    CKMono,
    adjoint,
    af_compression_projections,
    check_proj_afpart,
    diagonal_element,
    element,
    evaluate,
    gauge,
    identity,
    is_normalizing_pi,
    mono_element,
    mono_product,
    normalize,
    path_isometry,
    phi_m,
    range_projection,
    restricted_norm,
    separating_projections,
    support_spectrum,
    vertex_projection,
    zero,
)
from .bimodule import (
    SpectrumSet,
    bimodule_member,
    ck_in_analytic,
    generated_spectrum,
)
from .nest import (
    commutator,
    in_alg_n,
    in_alg_n_oracle,
    in_radical_spectrum,
    level_atoms,
    nest_projection,
    point_in_spectrum_alg_n,
)
from .cocycle import (
    LocallyConstantFn,
    TailedPair,
    acyclic_weights,
    eval_cocycle,
    eval_cocycle_tailed,
    equalize_loops,
    integer_obstruction_witness,
    loop_growth,
    reconstruct_f,
)

__version__ = "0.1.0"
