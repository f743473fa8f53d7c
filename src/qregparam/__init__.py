"""Desk-scale simulator of quantum Tikhonov regularization parameter selection."""

from .linalg import (
    ExtendedMatrix,
    MuRangeError,
    RegularizedProblem,
    SvdFactorization,
    TikhonovSolution,
    build_extended,
    compute_svd,
    condition_number_mu,
    gcv_lowrank,
    gcv_value,
    tikhonov_solve,
    tsvd_solve,
)
from .statevector import CapacityError, StateVector
from .amplitude import estimate_theta
from .hhl import (
    Estimate,
    SpectrumResolutionError,
    apply_A_state,
    estimate_residual_norm,
    estimate_solution_norm,
    hhl_solution_state,
    prepare_b_state,
    residual_state,
    rotation_constant,
)
from .search import (
    GridRow,
    ParameterGrid,
    SelectionResult,
    classical_select,
    durr_hoyer_min,
    gcv_pipeline,
    lcurve_pipeline,
    principal_singular_values,
)
from .problems import generate_problem
from .mmio import MatrixMarketError, load_matrix, load_vector, save_matrix, save_vector

__version__ = "0.1.0"
