"""polyprime: exact lattice-shape classification and binomial-ideal primality certificates.

Importing the package loads the structural layer only: shapes, the
feature scans, the zig-zag search and the closed-path sweep.  The
algebraic layer (:mod:`polyprime.ideals`, :mod:`polyprime.toric`) and the
composite families (:mod:`polyprime.composites`) load the first time one
of their names in ``_LAZY`` is read from the package.
"""

from .budget import Budget, BudgetExhausted, CounterexampleFound
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
    canonical_form,
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
)
from .zigzag import ZigZagWalk, find_zigzag_walk, verify_zigzag

__version__ = "0.1.0"

# Public name -> the submodule that defines it, imported on first use (PEP 562).
# A submodule's own name maps to itself.
_LAZY = {
    "composites": "composites",
    "ideals": "ideals",
    "toric": "toric",
    **dict.fromkeys((
        "ConditionViolated",
        "FamilySpec",
        "build_psc",
        "build_rectangle_linked",
        "certify_family",
        "check_good_l_rectangle",
    ), "composites"),
    **dict.fromkeys((
        "ToricMap",
        "check_containment",
        "export_generators",
        "inner_minors",
        "toric_map_ladder",
        "toric_map_lconfig",
        "toric_map_marked",
        "vertex_name",
        "vertex_order",
    ), "ideals"),
    **dict.fromkeys((
        "NotInSupportedClass",
        "PrimalityVerdict",
        "buchberger",
        "certify_primality",
        "integer_kernel",
        "toric_ideal",
    ), "toric"),
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
