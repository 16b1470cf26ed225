"""Combinatorial groupoids: transport, holonomy, and obstructions.

Builds flip groupoids over simplicial and cubical complexes and over
game boards, computes their holonomy groups exactly, and applies them
as computable obstructions: cubical lattice embeddability, rainbow
colorability, and sliding-puzzle reachability.
"""

from .complexes import (
    ComplexError,
    CornerCollision,
    CubicalComplex,
    DegenerateFacet,
    DominatedFacet,
    DualMultigraph,
    NonPure,
    RankedPoset,
    SemilatticeViolation,
    SimplicialComplex,
    VertexMap,
    check_nondegenerate,
    compose_maps,
    face_poset,
    facet_adjacency,
)
from .games import (
    BoardMismatch,
    DegenerateBoard,
    LabelledState,
    Puzzle,
    fifteen_puzzle_states,
    grid_puzzle,
    ordered_state,
    puzzle_groupoid,
    puzzle_holonomy,
    reachable,
)
from .graphconn import (
    GraphConnection,
    InvalidConnection,
    InvalidTable,
    NotRegular,
    connection_groupoid,
    connection_holonomy,
    cycle_connection,
    rotation_connection,
    validate_connection,
)
from .groupoid import (
    BrokenPath,
    Groupoid,
    TransportPath,
    transport,
    tribar_groupoid,
)
from .holonomy import (
    HolonomyResult,
    NoSuchObject,
    NotConnected,
    NotNondegenerate,
    holonomy,
    holonomy_group,
    induced_embedding_check,
    is_strongly_connected,
)
from .homcx import (
    EdgeNotInGraph,
    Graph,
    HomCell,
    TooLarge,
    complete_graph,
    cycle_graph,
    euler_characteristic,
    f_vector,
    graph_by_name,
    hom_complex,
    induced_swap_action,
    restriction_map,
)
from .invariants import (
    AdjacentVertices,
    InconsistentExtension,
    NontrivialHolonomy,
    NotLocallyConnected,
    RainbowColoring,
    SharedCell,
    TwoColoring,
    compare_invariants,
    i_invariant,
    lattice_parity_coloring,
    locally_strongly_connected,
    nacl,
    quotient_identify,
    transport_coloring,
)
from .permgroup import (
    ClosureTooLarge,
    DegreeMismatch,
    GiantGroup,
    Perm,
    PermGroup,
    SignedPerm,
    closure_small,
    jordan_giant,
    recognize,
    schreier_sims,
)

__version__ = "0.1.0"
