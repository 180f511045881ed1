"""Holomorphic-representation toolkit for quantum angular momentum and spin
chains: exact normal-ordered operator algebra, sector matrices, exact
diagonalization, thermodynamics, and an independent tensor-product oracle."""

from .algebra import (
    EMPTY_INDEX,
    Flavor,
    MultiIndex,
    OperatorPolynomial,
    OperatorTerm,
    PolynomialState,
    RationalComplex,
    Var,
    adjoint,
    apply,
    apply_term,
    commutator,
    compose,
    inner_product,
    monomial_norm_sq,
    single_term,
    w_var,
    z_var,
)
from .angular import j_operator, total_operator
from .chain import (
    COMPOSITIONAL,
    OPEN,
    PAPER_LITERAL,
    PERIODIC,
    ChainSpec,
    build_hamiltonian,
    chain_matrix,
    mode_difference,
    solve,
)
from .dsl import ExponentOverflow, ParseError, SourceSpan, format_operator, parse
from .errors import (
    AmplitudeOverflow,
    DimensionMismatch,
    DimensionTooLarge,
    NotHermitian,
    NotNormalized,
)
from .oracle import (
    SpectrumComparison,
    SpinMatrices,
    compare_spectra,
    oracle_hamiltonian,
    oracle_matrix,
    spin_matrices,
)
from .oscillator import (
    COSH,
    EXP,
    SINH,
    OscillatorSpec,
    per_term_eigenvalue_sum,
    truncated_series_state,
)
from .oscillator import hamiltonian as oscillator_hamiltonian
from .thermo import (
    SectorMatrix,
    Spectrum,
    ThermoPoint,
    eigensolve,
    husimi_q,
    partition_function,
    spectrum_to_json,
    thermo_sweep,
    thermo_to_csv,
)

__version__ = "0.1.0"
