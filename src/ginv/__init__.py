"""Exact generalized inverses for matrices over the Gaussian rationals Q(i).

Every operation is exact (big-integer rational arithmetic, no floats).
The group, Drazin, higher-order group, (b,c), prescribed {2} and weak
higher-order group inverses are verified against their defining equations
through ``check_axioms`` before they are returned.
"""

from .classical import (
    CoreEpDecomposition,
    core_ep_decompose,
    drazin_inverse,
    group_inverse,
    weak_mp_inverse,
)
from .errors import (
    DimensionError,
    GinvError,
    InconsistentSystemError,
    NoSolutionError,
    NotBcInvertibleError,
    NotGroupInvertibleError,
    NotTwoInvertibleError,
    ParseError,
    PreconditionViolatedError,
    SingularMatrixError,
    UsageError,
    VerificationError,
)
from .hgroup import (
    BcPair,
    ConstrainedSolveResult,
    bc_inverse,
    build_bc_pair,
    hgroup_inverse,
    solve_ax_system,
    solve_px_system,
    two_inverse_prescribed,
)
from .matrix import (
    FullRankFactorization,
    Matrix,
    MembershipWitness,
    SubspaceDescriptor,
    full_rank_factorize,
    hstack,
    ideal_membership,
    image_of,
    kernel_of,
    kronecker,
    nilpotency_and_index,
    nullspace_basis,
    rank,
    rref,
    solve_right,
    subspace_relate,
)
from .pinv import mp_inverse
from .scalar import (
    GaussianRational,
    scalar_format,
    scalar_parse,
)
from .verify import AxiomCheck, AxiomReport, InverseKind, check_axioms, residual_summary
from .weak_hgroup import (
    orthogonal_sum,
    solve_two_sided_system,
    weak_hgroup_inverse,
    weak_hgroup_paths,
    weak_hgroup_via_system,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomCheck",
    "AxiomReport",
    "BcPair",
    "ConstrainedSolveResult",
    "CoreEpDecomposition",
    "DimensionError",
    "FullRankFactorization",
    "GaussianRational",
    "GinvError",
    "InconsistentSystemError",
    "InverseKind",
    "Matrix",
    "MembershipWitness",
    "NoSolutionError",
    "NotBcInvertibleError",
    "NotGroupInvertibleError",
    "NotTwoInvertibleError",
    "ParseError",
    "PreconditionViolatedError",
    "SingularMatrixError",
    "SubspaceDescriptor",
    "UsageError",
    "VerificationError",
    "bc_inverse",
    "build_bc_pair",
    "check_axioms",
    "core_ep_decompose",
    "drazin_inverse",
    "full_rank_factorize",
    "group_inverse",
    "hgroup_inverse",
    "hstack",
    "ideal_membership",
    "image_of",
    "kernel_of",
    "kronecker",
    "mp_inverse",
    "nilpotency_and_index",
    "nullspace_basis",
    "orthogonal_sum",
    "rank",
    "residual_summary",
    "rref",
    "scalar_format",
    "scalar_parse",
    "solve_ax_system",
    "solve_px_system",
    "solve_right",
    "solve_two_sided_system",
    "subspace_relate",
    "two_inverse_prescribed",
    "weak_hgroup_inverse",
    "weak_hgroup_paths",
    "weak_hgroup_via_system",
    "weak_mp_inverse",
]
