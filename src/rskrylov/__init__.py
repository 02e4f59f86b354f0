"""Krylov subspace solvers for singular range-symmetric linear systems.

The package provides the minimum-residual family (GMRES, range-restricted
GMRES, index-1 Drazin GMRES), the minimum A-residual family (two
long-recurrence implementations and a short-recurrence one for symmetric
systems, plus classical MINRES), the rank-one lifting that turns a
terminal least squares iterate into the pseudoinverse solution, dense
brute-force oracles, and deterministic problem generators.
"""

from .arnoldi import ArnoldiState, ZeroSeedError, arnoldi_init, arnoldi_step
from .cli import SOLVERS, cli_main
from .gmres_family import dgmres_solve, gmres_solve, rrgmres_solve
from .hessenberg_qr import BandedQr, HessenbergQr, SingularTriangularError
from .history import read_history_csv, write_history_csv
from .lifting import lift
from .matrixmarket import (
    MatrixMarketError,
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)
from .minres_family import minares1_solve, minres_solve
from .operators import (
    CONVERGED,
    HAPPY_BREAKDOWN,
    MAXIT,
    SINGULAR_FINAL_SYSTEM,
    LinearOperator,
    SolveOptions,
    SolveReport,
    aslinearoperator,
    sparse_from_triplets,
)
from .oracle import (
    OracleResult,
    analyze,
    cond_number,
    index_of,
    is_range_symmetric,
    krylov_max_dim,
    pseudoinverse_solve,
)
from .problems import (
    BvpSpec,
    RandomSpec,
    make_bvp_matrix,
    make_bvp_rhs,
    make_random_range_symmetric,
    make_random_skew_singular,
    make_random_symmetric_singular,
    scale_max_abs,
)
from .rsmar import rsmar1_solve, rsmar2_solve

__version__ = "0.1.0"

__all__ = [
    "ArnoldiState",
    "ZeroSeedError",
    "arnoldi_init",
    "arnoldi_step",
    "BandedQr",
    "HessenbergQr",
    "SingularTriangularError",
    "lift",
    "LinearOperator",
    "SolveOptions",
    "SolveReport",
    "aslinearoperator",
    "sparse_from_triplets",
    "CONVERGED",
    "HAPPY_BREAKDOWN",
    "MAXIT",
    "SINGULAR_FINAL_SYSTEM",
    "OracleResult",
    "analyze",
    "cond_number",
    "index_of",
    "is_range_symmetric",
    "krylov_max_dim",
    "pseudoinverse_solve",
    "BvpSpec",
    "RandomSpec",
    "make_bvp_matrix",
    "make_bvp_rhs",
    "make_random_range_symmetric",
    "make_random_skew_singular",
    "make_random_symmetric_singular",
    "scale_max_abs",
    "gmres_solve",
    "rrgmres_solve",
    "dgmres_solve",
    "rsmar1_solve",
    "rsmar2_solve",
    "minres_solve",
    "minares1_solve",
    "SOLVERS",
    "cli_main",
    "read_history_csv",
    "write_history_csv",
    "MatrixMarketError",
    "read_matrix_market",
    "read_vector",
    "write_matrix_market",
    "write_vector",
]
