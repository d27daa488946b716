"""Exact-rational machinery for prefix-free machine domains.

The package computes certified enclosures of halting-probability-style
weight sums and their zeta counterparts, classifies machines by those
sums, builds prefix-free codes from length data, runs a one-combinator
interpreter with budgeted reduction, and measures description
complexity against enumerated machine indices.  Every numeric result is
either an exact Fraction or a two-sided Enclosure; floats never carry
load-bearing values.
"""

from __future__ import annotations

from .binstr import (
    EPS,
    all_strings,
    bin_inv,
    bin_of,
    hamming_weight,
    is_prefix_free,
    lenlex_succ,
    parse_bits,
    rational_of_prefix,
    render_bits,
    validate_bits,
)
from .complexity import (
    NO_BOUND,
    NO_WITNESS,
    ComplexityOracle,
    DeficiencyReport,
    DeficiencyRow,
    ExecutableMachine,
    NablaRow,
    deficiency,
    identity_table,
    liminf_proxy,
    nabla,
    plain_k,
    program_size_h,
    universality_factor,
)
from .egyptian import (
    CodeAssignment,
    ExpansionOverflow,
    GridTerm,
    KraftAllocator,
    KraftViolation,
    dyadic_diagonal,
    dyadic_row,
    egyptian_floor,
    grid_walk,
    kraft_chaitin,
    unit_sum_to_prefix_free,
)
from .iota import (
    DEFAULT_SIZE_BUDGET,
    DEFAULT_STEP_BUDGET,
    IOTA,
    App,
    Atom,
    Constants,
    DecodeBudget,
    Incomplete,
    K,
    MalformedList,
    ParseFailure,
    ReduceResult,
    S,
    TrailingBits,
    count_programs,
    decode_bits,
    encode_bits,
    iota_constants,
    iota_zeta_partial,
    is_program,
    run_program,
    selector_check,
    size_of,
    term_eq,
    unparse,
    words_of_length,
)
from .machines import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    Builtin,
    ChainReport,
    Classification,
    Construction,
    FiniteTable,
    MachineSpec,
    MachineSpecError,
    SumReport,
    Verdict,
    classify,
    density_statistic,
    domain_stream,
    fresh_index,
    j_pairing,
    omega_enclosure,
    sanity_chain,
    tuatara_unit_identity,
    universal_prefix_identity,
    validate_spec,
    weighted_domain_sum,
    zeta_enclosure,
)
from .numerics import (
    DigitResult,
    Enclosure,
    catalan,
    digits,
    e_bounds,
    exp_bounds,
    harmonic_segment,
    lambert_w,
    ln2_bounds,
    ln_bounds,
    log2_bounds,
    parse_rational,
    pow2_bounds,
    pow_bounds,
    root_bounds,
    w_ratio,
)
from .spectral import (
    dyadic_weight_sum,
    kappa,
    kappa_natural,
    omega_s,
    pnt_check,
    riemann_zeta,
    zeta_s,
)
