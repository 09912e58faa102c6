"""Group-theoretic enumeration of Hopf-Galois structure data.

Transitive subgroups of holomorphs classify Hopf-Galois structures on
separable field extensions: a degree-n extension with Galois data (G, G')
admits a structure of type N exactly when (G, G') is isomorphic, as a pair,
to (M, Stab_M(0)) for a transitive M <= Hol(N).  This package builds the
holomorphs of all groups of a supported order, catalogues their transitive
subgroups up to conjugacy, classifies index-n subgroups, decides which
parallel pairs admit no structure of any type, and extends such witnesses
into infinite families.
"""

from .errors import (
    HopfGaloisError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedOrderError,
    VerificationError,
)
from .groups import (
    AbstractGroup,
    GroupCatalogue,
    direct_product,
    groups_of_order,
    regular_representation,
    squarefree_groups,
)
from .holomorph import (
    AutomorphismGroup,
    Holomorph,
    automorphism_group,
    hall_decomposition,
    holomorph,
    holomorph_projection,
)
from .isomorphism import (
    PairWitness,
    find_isomorphism,
    pair_isomorphic,
    permutation_pair_of_quotient,
)
from .permgroup import (
    CosetActionResult,
    PermGroup,
    are_conjugate_subgroups,
    coset_action,
    group_order,
    is_transitive,
    normal_core,
    point_stabilizer,
)
from .perms import compose, identity, inverse, make_perm, parse_perm, perm_order
from .pipeline import (
    CatalogueEntry,
    DegreeSummary,
    ExtensionCertificate,
    ParallelReport,
    analyze_parallel,
    build_catalogue,
    detect_no_hgs,
    extend_family,
    find_extension_prime,
    hgs_types_admitted,
    iterate_family,
)
from .pqtheory import (
    PqParameters,
    PredictedCounts,
    cyclic_type_transitive_subgroups,
    metacyclic_type_transitive_subgroups,
    pq_parameters,
    predicted_counts,
    verify_pq,
)
from .subgroups import (
    ClassificationReport,
    SubgroupClass,
    all_subgroup_classes,
    classify_index_n,
    index_n_subgroup_classes,
    transitive_subgroup_classes,
)

__version__ = "0.1.0"
