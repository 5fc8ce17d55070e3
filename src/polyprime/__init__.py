"""polyprime: exact lattice-shape classification and binomial-ideal primality certificates."""

from .classify import (
    ClosedPathCert,
    Ladder,
    LConfiguration,
    OpenPath,
    Trimino,
    closed_path_certificate,
    find_l_configurations,
    find_ladders,
    has_block_of_length,
    open_path_certificate,
    trimino_certificate,
)
from .families import (
    CanonicalForm,
    ConditionViolated,
    FamilySpec,
    build_psc,
    build_rectangle_linked,
    canonical_form,
    certify_family,
    check_good_l_rectangle,
    enumerate_closed_paths,
    verify_main_theorem,
)
from .grid import (
    Block,
    Cell,
    DisconnectedCellsError,
    EdgeInterval,
    EmptyPolyominoError,
    GridParseError,
    Interval,
    Point,
    Polyomino,
    PolyominoError,
    edges,
    format_grid,
    format_shape_json,
    holes,
    inner_intervals,
    is_connected,
    is_simple,
    maximal_blocks,
    maximal_edge_intervals,
    parse_grid,
    parse_shape_json,
    vertices,
    walk_to_path,
)
from .ideals import (
    ToricMap,
    check_containment,
    export_generators,
    inner_minors,
    toric_map_ladder,
    toric_map_lconfig,
    toric_map_marked,
    vertex_name,
    vertex_order,
)
from .toric import (
    Budget,
    BudgetExhausted,
    CounterexampleFound,
    NotInSupportedClass,
    PrimalityVerdict,
    buchberger,
    certify_primality,
    integer_kernel,
    toric_ideal,
)
from .zigzag import ZigZagWalk, find_zigzag_walk, verify_zigzag

__version__ = "0.1.0"
