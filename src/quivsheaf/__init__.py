"""Grothendieck topologies on path categories of finite acyclic quivers,
with sheaf conditions for presheaves of finite-dimensional vector spaces
decided by exact rational linear algebra."""

from .linalg import (
    DiagramOfSpaces,
    LinearMap,
    Matrix,
    backend_name,
    colimit,
    inverse_map,
    is_isomorphism,
    kernel_basis,
    limit,
    rank,
    rref,
    solve,
    transpose_map,
)
from .quiver import (
    Edge,
    PathMorphism,
    Quiver,
    ValidationReport,
    compose,
    connected_components,
    edge_morphism,
    hom,
    identity_morphism,
    morphism_table,
    morphisms_into,
    slice_objects,
    validate,
)
from .sieves import (
    AxiomReport,
    Sieve,
    TopologySpec,
    audit_axioms,
    covering_sieves,
    enumerate_sieves,
    generate_sieve,
    is_covering,
    maximal_sieve,
    pullback_sieve,
)
from .presheaf import (
    NatTrans,
    Presheaf,
    Representation,
    constant_presheaf,
    dualize,
    dualize_morphism,
    eval_presheaf,
    eval_representation,
    nat_trans_space,
)
from .sheaf import (
    SectionFamily,
    SheafVerdict,
    compatibility_space,
    cross_validate_discrete,
    glue,
    is_discrete_sheaf_criterion,
    is_sheaf,
    is_sheaf_for_sieve,
    section_map,
)
from .functors import (
    AdjunctionReport,
    TransportReport,
    check_adjunction,
    left_adjoint_component,
    left_adjoint_literal,
    monodromy_report,
    transport,
)

__version__ = "0.1.0"
