"""Geometry of tree tensor formats at desk scale.

Dense tensors over modes 1..d, dimension partition trees, minimal subspaces
and tree-based ranks, fixed-rank membership and admissibility, Laplacian-like
local charts, and tangent space dimension checks.  Everything carries the
Euclidean/Frobenius inner product and is small enough to verify against
brute-force linear algebra.
"""

from .errors import (
    DegenerateInputError,
    GenerationFailureError,
    InvalidArgumentError,
    InvalidCoreError,
    NotInSpaceError,
    NotOnManifoldError,
    OutsideChartDomainError,
    OutsideChartImageError,
    ParseError,
    TreegeomError,
    TreeValidationError,
)
from .tensor import (
    apply_mode_operator,
    embed_block_operator,
    load_tensor,
    matricize,
    save_tensor,
    svd,
    svd_rank,
    tensor_product,
)
from .trees import (
    DimensionTree,
    balanced_binary_tree,
    level_partition,
    levels,
    linear_tree,
    tree_from_json,
    tree_from_nested,
    tree_to_json,
    tucker_tree,
    validate,
)
from .subspaces import (
    DEFAULT_TOL,
    SubspaceBasis,
    TreeRank,
    check_chain,
    check_nestedness,
    minimal_subspace,
    ranks_from_json,
    ranks_to_json,
    tree_rank,
)
from .formats import (
    AdmissibilityVerdict,
    MembershipReport,
    PropernessReport,
    bounded_rank_member,
    is_admissible,
    is_member,
    is_proper,
    necessary_rank_conditions,
    network_dimension_formula,
    random_tree_tensor,
    tucker_membership,
)
from .operators import (
    LaplacianLike,
    SplitSpace,
    assemble_laplacian,
    decompose_laplacian,
    lifted_part,
    split,
)
from .tangent import (
    BlockOperatorBasis,
    ImmersionReport,
    OperatorSpaceBasis,
    TangentReport,
    immersion_check,
    intersect_operator_spaces,
    level_operator_basis,
    parametrization_jacobian,
    tangent_dimension,
    tangent_dimension_oracle,
    tree_operator_basis,
)
from .charts import (
    ChartData,
    level_inverse_operator,
    tree_chart,
    tree_chart_inverse,
    tree_chart_point,
    tucker_chart_inverse,
    tucker_chart_point,
)

__version__ = "0.1.0"
