"""qpmut: exact mutation of quivers with potential and their decorated
representations, with machine-verified certificates."""

from .cycles import (
    Potential,
    cyclic_derivative,
    cyclic_normalize,
    cyclically_equivalent,
    reverse_potential,
    second_derivative,
)
from .duality import dualize_qp, dualize_rep, duality_witness
from .errors import (
    CertificateError,
    CompositionError,
    ContextError,
    InvariantError,
    MutationNotDefined,
    NotCyclicError,
    NotInvertibleError,
    QpmutError,
    Report,
    SchemaError,
    ShapeError,
    TruncationTooSmall,
)
from .fields import GF, QQ, Field, field_from_name
from .homs import NO, UNDECIDED, YES, HomSpace, IsoResult, hom_space, is_isomorphic
from .jets import JetPoly, JetSpace
from .linalg import (
    Mat,
    block_matrix,
    coords_in,
    hstack,
    subspace_package,
    vstack,
)
from .mutation import (
    CONSTRUCTIONS,
    PremutedRep,
    check_beta_alpha,
    constructions_agree,
    double_premutation_equiv,
    double_premutation_potential_identity,
    involution_pullback,
    mutate_rep,
    premutate_rep,
    pullback_reduction,
    transport_iso,
)
from .qp import (
    QP,
    SplitResult,
    bracket_substitute,
    mutate_qp,
    mutate_quiver,
    premutate_qp,
    premutate_quiver,
    probe_nondegeneracy,
    split_reduce,
)
from .quiver import (
    Arrow,
    Path,
    Quiver,
    canonical_rotation,
    compose_paths,
    lazy_path,
    path_from_arrows,
)
from .reps import (
    DecRep,
    TrianglePack,
    build_triangle,
    check_module,
    component_action,
    negative_simple_rep,
    simple_rep,
    zero_rep,
)
from .subst import (
    ArrowSubstitution,
    apply_substitution,
    compose_substitutions,
    identity_substitution,
    invert_substitution,
    substitution_from_images,
)

__version__ = "0.1.0"
