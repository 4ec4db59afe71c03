"""The package's exported names: __all__ is derived, so this pins the set."""

import mapforge

EXPORTED = {
    "ArrowAssignment", "Cell", "ColorSet", "Coloring", "ColoringGroup", "CorpusSpec",
    "DEFAULT_GENERATORS", "DoubleResult", "FlagSystem", "GluingWord", "MAKE_GOALS",
    "MapforgeError", "PLATONIC_NAMES", "PROPERTY_CHECKS", "RotationSystem",
    "SurfaceSignature", "ValidationError", "all_subgroups", "apply_word",
    "build_corpus", "build_map_with_group", "cell_labels", "cells", "check_projection",
    "coloring_group", "coloring_group_excluding_cell", "connected_sum", "crosscap_map",
    "cube_maniplex", "cycle_consistent", "deck_transformations", "direct_pso",
    "double_edge", "dual", "edge_of", "euler_characteristic", "find_coloring",
    "from_rotation_system", "grid_map", "i_double", "i_face_bipartite",
    "invoke_generator", "is_isomorphic", "is_pseudo_orientable", "is_valid_coloring",
    "make_property", "medial", "opposite", "parse_flag_text", "petrie", "platonic",
    "polygon_gluing", "quotient", "random_surgery", "read_flag_file",
    "recognize_i_double", "run_verify", "sherk_double", "strip_map", "subdivide_edge",
    "subgroup_closure", "surface_signature", "tri_torus", "triple_edge", "validate",
    "write_flag_file", "write_flag_text",
}


def test_all_is_the_pinned_set_in_sorted_order():
    assert len(EXPORTED) == 67
    assert mapforge.__all__ == sorted(EXPORTED)


def test_star_import_gives_exactly_the_pinned_names():
    namespace: dict = {}
    exec("from mapforge import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED

