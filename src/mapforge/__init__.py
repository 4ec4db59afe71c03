"""Toolkit for maps and maniplexes as flag systems.

Everything revolves around validated connection arrays: two-colorings
of flags, the group of colorable index sets, classical map operators,
two-sheet covers and their recognition, and constructive realization
of any admissible group on any admissible surface.
"""

import types as _types

from .coloring import (
    ArrowAssignment,
    Coloring,
    ColoringGroup,
    ColorSet,
    all_subgroups,
    coloring_group,
    coloring_group_excluding_cell,
    cycle_consistent,
    direct_pso,
    find_coloring,
    i_face_bipartite,
    is_pseudo_orientable,
    is_valid_coloring,
    subgroup_closure,
)
from .construct import (
    GluingWord,
    MAKE_GOALS,
    PLATONIC_NAMES,
    RotationSystem,
    build_map_with_group,
    connected_sum,
    crosscap_map,
    cube_maniplex,
    double_edge,
    edge_of,
    from_rotation_system,
    grid_map,
    make_property,
    platonic,
    polygon_gluing,
    strip_map,
    subdivide_edge,
    tri_torus,
    triple_edge,
)
from .corpus import (
    CorpusSpec,
    DEFAULT_GENERATORS,
    PROPERTY_CHECKS,
    build_corpus,
    invoke_generator,
    random_surgery,
    run_verify,
)
from .doubles import DoubleResult, i_double, quotient, recognize_i_double, sherk_double
from .errors import MapforgeError, ValidationError
from .fileio import parse_flag_text, read_flag_file, write_flag_file, write_flag_text
from .flagsys import (
    Cell,
    FlagSystem,
    SurfaceSignature,
    apply_word,
    cell_labels,
    cells,
    check_projection,
    deck_transformations,
    euler_characteristic,
    is_isomorphic,
    surface_signature,
    validate,
)
from .operators import dual, medial, opposite, petrie

__version__ = "0.1.0"

# every public name imported above, modules aside
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
