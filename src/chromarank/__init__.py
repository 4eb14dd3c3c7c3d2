"""chromarank: commuting p-tuple ranks and good-group inference for
finite permutation groups.

The core objects are Permutation and PermGroup (deterministic stabilizer
chains, conjugacy classes, centralizers, Sylow subgroups), the loop layer
(commuting tuples of p-power elements up to simultaneous conjugation and
the rank factorization identity), a small expression language for
building groups, and a registry that certifies groups good by closure
rules from seed families.
"""

from .arith import is_p_power, is_prime, p_part
from .chromatic import (
    DEFAULT_MAX_HEIGHT,
    IdentityReport,
    LoopComponent,
    LoopDecomposition,
    PTuple,
    commuting_tuple_classes,
    hkr_rank,
    p_power_elements,
    verify_rank_identity,
)
from .constructors import (
    abelian,
    cyclic,
    dihedral,
    direct_product,
    general_linear,
    quaternion8,
    symmetric,
    unitriangular4,
    wreath_cyclic,
)
from .dsl import GroupExpr, evaluate, parse, print_expr
from .errors import (
    ChromarankError,
    ConsistencyError,
    DegreeMismatch,
    HeightExceeded,
    InvalidPermutation,
    NotInGroup,
    ParseError,
    ThresholdExceeded,
)
from .group import (
    DEFAULT_ENUMERATION_LIMIT,
    ConjClassTable,
    Fingerprint,
    PermGroup,
    group_from_generators,
    read_generator_file,
)
from .kernels import BACKEND
from .perm import Permutation
from .registry import (
    DerivationTree,
    Registry,
    RegistryEntry,
    certify,
    explore,
    register_derivation,
    replay,
    seed_defaults,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ChromarankError",
    "ConjClassTable",
    "ConsistencyError",
    "DEFAULT_ENUMERATION_LIMIT",
    "DEFAULT_MAX_HEIGHT",
    "DegreeMismatch",
    "DerivationTree",
    "Fingerprint",
    "GroupExpr",
    "HeightExceeded",
    "IdentityReport",
    "InvalidPermutation",
    "LoopComponent",
    "LoopDecomposition",
    "NotInGroup",
    "ParseError",
    "PTuple",
    "PermGroup",
    "Permutation",
    "Registry",
    "RegistryEntry",
    "ThresholdExceeded",
    "abelian",
    "certify",
    "commuting_tuple_classes",
    "cyclic",
    "dihedral",
    "direct_product",
    "evaluate",
    "explore",
    "general_linear",
    "group_from_generators",
    "hkr_rank",
    "is_p_power",
    "is_prime",
    "p_part",
    "p_power_elements",
    "parse",
    "print_expr",
    "quaternion8",
    "read_generator_file",
    "register_derivation",
    "replay",
    "seed_defaults",
    "symmetric",
    "unitriangular4",
    "verify_rank_identity",
    "wreath_cyclic",
    "__version__",
]
