import numpy as np
import pytest

from mapforge import (
    Cell,
    ColorSet,
    ColoringGroup,
    GluingWord,
    MAKE_GOALS,
    PLATONIC_NAMES,
    RotationSystem,
    SurfaceSignature,
    all_subgroups,
    cells,
    coloring_group,
    coloring_group_excluding_cell,
    connected_sum,
    crosscap_map,
    cube_maniplex,
    direct_pso,
    double_edge,
    edge_of,
    find_coloring,
    from_rotation_system,
    grid_map,
    i_face_bipartite,
    is_isomorphic,
    make_property,
    platonic,
    polygon_gluing,
    strip_map,
    subdivide_edge,
    build_map_with_group,
    surface_signature,
    tri_torus,
    triple_edge,
)
from mapforge.errors import (
    BadParameters,
    ExceptionalPair,
    FaceSelfAdjacent,
    FaceSizeMismatch,
    LoopEdge,
    NotAnEdge,
    OrientabilityMismatch,
    RankNotTwo,
    UnknownName,
)

PLATONIC_COUNTS = {
    "tetrahedron": (4, 6, 4, 3, 3),
    "cube": (8, 12, 6, 3, 4),
    "octahedron": (6, 12, 8, 4, 3),
    "dodecahedron": (20, 30, 12, 3, 5),
    "icosahedron": (12, 30, 20, 5, 3),
}


def counts(system):
    return tuple(len(cells(system, i)) for i in range(3))


def test_platonic_counts_and_degrees():
    assert set(PLATONIC_NAMES) == set(PLATONIC_COUNTS)
    for name, (v, e, f, vdeg, fdeg) in PLATONIC_COUNTS.items():
        system = platonic(name)
        assert counts(system) == (v, e, f)
        assert all(c.degree == vdeg for c in cells(system, 0))
        assert all(c.degree == fdeg for c in cells(system, 2))
        signature = surface_signature(system)
        assert signature.orientable and signature.genus == 0


def test_platonic_unknown_name():
    with pytest.raises(UnknownName):
        platonic("teapot")


def test_tri_torus_counts():
    for m, n in ((2, 2), (3, 2), (3, 3)):
        system = tri_torus(m, n)
        d = m * n
        assert counts(system) == (d, 3 * d, 2 * d)
        assert all(f.degree == 3 for f in cells(system, 2))
        assert all(v.degree == 6 for v in cells(system, 0))
        signature = surface_signature(system)
        assert signature.orientable and signature.genus == 1
        assert str(coloring_group(system)) == "e,2,01,012"


def test_gluing_word_validation():
    with pytest.raises(BadParameters):
        GluingWord("")
    with pytest.raises(BadParameters):
        GluingWord("abA")
    with pytest.raises(BadParameters):
        GluingWord("aaa a")
    with pytest.raises(BadParameters):
        GluingWord("a1A1")


def test_polygon_gluing_pinned():
    sphere = polygon_gluing("aA")
    assert counts(sphere) == (2, 1, 1)
    assert surface_signature(sphere) == SurfaceSignature(True, 0)

    torus = polygon_gluing("abAB")
    assert counts(torus) == (1, 2, 1)
    assert surface_signature(torus) == SurfaceSignature(True, 1)
    assert str(coloring_group(torus)) == "e,1,02,012"

    genus2 = polygon_gluing("abABcdCD")
    assert counts(genus2) == (1, 4, 1)
    assert surface_signature(genus2) == SurfaceSignature(True, 2)


def test_crosscap_maps():
    for k in (1, 2, 3, 4):
        system = crosscap_map(k)
        assert counts(system) == (1, k, 1)
        assert surface_signature(system) == SurfaceSignature(False, k)
    assert str(coloring_group(crosscap_map(2))) == "e,01,02,12"
    with pytest.raises(BadParameters):
        crosscap_map(0)
    assert surface_signature(crosscap_map(27)) == SurfaceSignature(False, 27)


def test_crosscap_and_strip_match_their_gluing_words():
    letters = "abcdefghijklmnopqrstuvwxyz"

    def doubled(chars):
        return "".join(2 * ch for ch in chars)

    for k in range(1, 27):
        assert crosscap_map(k) == polygon_gluing(doubled(letters[:k]))
    for s in range(12):
        assert strip_map(s + 1, range(s), 0) == \
            polygon_gluing("abcaCB" + doubled(letters[3:3 + 2 * s]))
    assert strip_map(1, (), 1) == polygon_gluing("aa")
    for s in range(1, 13):
        assert strip_map(s + 1, range(s), 1) == \
            polygon_gluing("aabcBC" + doubled(letters[3:3 + 2 * (s - 1)]))


def test_strip_family():
    for h, swaps, parity, genus in (
        (1, (), 0, 2),
        (2, (0,), 0, 4),
        (1, (), 1, 1),
        (2, (0,), 1, 3),
        (3, (0, 1), 1, 5),
    ):
        system = strip_map(h, swaps, parity)
        assert surface_signature(system) == SurfaceSignature(False, genus)
        if genus >= 2:
            assert str(coloring_group(system)) == "e,02"
    with pytest.raises(BadParameters):
        strip_map(0, (), 0)
    with pytest.raises(BadParameters):
        strip_map(2, (), 2)
    with pytest.raises(BadParameters):
        strip_map(2, (1,), 0)


def test_grid_family():
    klein = grid_map(3, 3, 0)
    assert counts(klein) == (9, 18, 9)
    assert surface_signature(klein) == SurfaceSignature(False, 2)
    assert str(coloring_group(klein)) == "e,1"

    big = grid_map(5, 7, 3)
    assert counts(big) == (32, 70, 35)
    assert surface_signature(big) == SurfaceSignature(False, 5)
    assert str(coloring_group(big)) == "e,1"

    with pytest.raises(BadParameters):
        grid_map(0, 3, 0)
    with pytest.raises(BadParameters):
        grid_map(3, 3, 4)


def test_rotation_system_validation():
    ok = RotationSystem(rotations=((0, 1), (2, 3)),
                        edge_pairs=((0, 2, 1), (1, 3, 1)))
    assert ok.vertex_count == 2 and ok.dart_count == 4
    with pytest.raises(BadParameters):
        RotationSystem(((0, 1), (1, 2)), ((0, 2, 1),))
    with pytest.raises(BadParameters):
        RotationSystem(((0, 5),), ((0, 5, 1),))
    with pytest.raises(BadParameters):
        RotationSystem(((0, 1, 2),), ((0, 1, 1),))
    with pytest.raises(BadParameters):
        RotationSystem(((0, 1), (2, 3)), ((0, 2, 3), (1, 3, 1)))
    with pytest.raises(BadParameters):
        RotationSystem(((0, 1), (2, 3)), ((0, 0, 1), (1, 3, 1)))
    with pytest.raises(BadParameters):
        RotationSystem(((0, 1), (2, 3)), ((0, 2, 1), (0, 3, 1)))


def test_from_rotation_system():
    # triangle: three vertices of degree two, two faces, sphere
    rs = RotationSystem(rotations=((5, 0), (1, 2), (3, 4)),
                        edge_pairs=((0, 1, 1), (2, 3, 1), (4, 5, 1)))
    system = from_rotation_system(rs)
    assert system.flag_count == 12
    assert counts(system) == (3, 3, 2)
    assert surface_signature(system) == SurfaceSignature(True, 0)

    # same triangle with one edge reversed lands on the projective plane
    twisted = from_rotation_system(RotationSystem(
        rotations=((5, 0), (1, 2), (3, 4)),
        edge_pairs=((0, 1, 1), (2, 3, 1), (4, 5, -1))))
    assert surface_signature(twisted) == SurfaceSignature(False, 1)


def test_cube_maniplex():
    assert is_isomorphic(cube_maniplex(3), platonic("cube")) is not None
    four = cube_maniplex(4)
    assert four.rank == 3
    assert four.flag_count == 384
    assert str(coloring_group(four)) == "e,0,123,0123"
    with pytest.raises(BadParameters):
        cube_maniplex(1)


def test_edge_of():
    cube = platonic("cube")
    edge = edge_of(cube, 0)
    assert edge.dimension == 1 and edge.degree == 2
    assert len(edge.flags) == 4
    assert 0 in edge.flags
    with pytest.raises(BadParameters):
        edge_of(cube, 48)
    with pytest.raises(NotAnEdge):
        subdivide_edge(cube, cells(cube, 0)[0])
    with pytest.raises(NotAnEdge):
        subdivide_edge(cube, Cell(dimension=1, flags=(0, 1, 2, 3)))


def test_edge_of_is_rank_two_only():
    """At rank 3 an edge is the orbit of r0, r2 and r3, not four flags."""
    cube = cube_maniplex(4)
    assert {len(edge.flags) for edge in cells(cube, 1)} == {12}
    with pytest.raises(RankNotTwo):
        edge_of(cube, 0)


def test_surgery_counts_on_cube():
    cube = platonic("cube")
    edge = edge_of(cube, 0)

    sub = subdivide_edge(cube, edge)
    assert sub.flag_count == 52
    assert counts(sub) == (9, 13, 6)

    dbl = double_edge(cube, edge)
    assert dbl.flag_count == 52
    assert counts(dbl) == (8, 13, 7)

    tri = triple_edge(cube, edge)
    assert tri.flag_count == 56
    assert counts(tri) == (8, 14, 8)

    for changed in (sub, dbl, tri):
        assert surface_signature(changed) == SurfaceSignature(True, 0)


def test_subdivide_preserves_face_side_structure():
    rng = np.random.default_rng(5)
    for system in (platonic("cube"), grid_map(3, 3, 0), crosscap_map(2)):
        old_vertex_degrees = sorted(v.degree for v in cells(system, 0))
        flag = int(rng.integers(system.flag_count))
        grown = subdivide_edge(system, edge_of(system, flag))
        new_degrees = sorted(v.degree for v in cells(grown, 0))
        assert new_degrees == sorted(old_vertex_degrees + [2])
        assert i_face_bipartite(grown, 2) == i_face_bipartite(system, 2)
        assert (direct_pso(grown, "face") is None) == \
            (direct_pso(system, "face") is None)


def test_double_preserves_vertex_side_structure():
    rng = np.random.default_rng(6)
    for system in (platonic("cube"), grid_map(3, 3, 0), crosscap_map(2)):
        old_face_degrees = sorted(f.degree for f in cells(system, 2))
        flag = int(rng.integers(system.flag_count))
        grown = double_edge(system, edge_of(system, flag))
        new_degrees = sorted(f.degree for f in cells(grown, 2))
        assert new_degrees == sorted(old_face_degrees + [2])
        assert i_face_bipartite(grown, 0) == i_face_bipartite(system, 0)
        assert (direct_pso(grown, "vertex") is None) == \
            (direct_pso(system, "vertex") is None)


def test_double_edge_can_break_face_side_colorings():
    octa = platonic("octahedron")
    assert i_face_bipartite(octa, 2)
    assert find_coloring(octa, ColorSet.of((0, 1), 2)) is not None
    grown = double_edge(octa, edge_of(octa, 0))
    # the bigon touches both formerly opposite faces
    assert not i_face_bipartite(grown, 2)
    assert find_coloring(grown, ColorSet.of((0, 1), 2)) is None


def test_triple_edge_refuses_loops():
    loop = crosscap_map(1)
    with pytest.raises(LoopEdge):
        triple_edge(loop, edge_of(loop, 0))


GOAL_HOLDS = {
    "vertex_bipartite": lambda s: i_face_bipartite(s, 0),
    "face_bipartite": lambda s: i_face_bipartite(s, 2),
    "vpso": lambda s: direct_pso(s, "vertex") is not None,
    "fpso": lambda s: direct_pso(s, "face") is not None,
    "odd_face": lambda s: any(f.degree % 2 for f in cells(s, 2)),
    "odd_vertex": lambda s: any(v.degree % 2 for v in cells(s, 0)),
}


def test_make_property_reaches_each_goal():
    assert set(MAKE_GOALS) == set(GOAL_HOLDS)
    seeds = [platonic("cube"), platonic("tetrahedron"), crosscap_map(1),
             crosscap_map(3), polygon_gluing("abAB"), grid_map(3, 3, 0),
             tri_torus(2, 2), strip_map(2, (0,), 0)]
    for system in seeds:
        before = surface_signature(system)
        for goal in MAKE_GOALS:
            adjusted = make_property(system, goal)
            assert GOAL_HOLDS[goal](adjusted)
            assert surface_signature(adjusted) == before
    with pytest.raises(BadParameters):
        make_property(platonic("cube"), "loopy")
    with pytest.raises(RankNotTwo):
        make_property(cube_maniplex(4), "fpso")


def test_make_property_is_identity_when_goal_holds():
    cube = platonic("cube")
    assert make_property(cube, "vertex_bipartite") is cube
    octa = platonic("octahedron")
    assert make_property(octa, "face_bipartite") is octa


def test_connected_sum_of_tetrahedra():
    tetra = platonic("tetrahedron")
    joined = connected_sum(tetra, tetra, 0, 0)
    assert counts(joined) == (5, 9, 6)
    assert surface_signature(joined) == SurfaceSignature(True, 0)
    assert str(coloring_group(joined)) == "e,012"


def spliceable_faces(system):
    r2 = system.connections[2]
    return [f for f in cells(system, 2)
            if all(int(r2[x]) not in f.flags for x in f.flags)]


def test_connected_sum_adds_characteristics():
    rng = np.random.default_rng(11)
    pairs = [
        (platonic("cube"), platonic("cube")),
        (grid_map(3, 3, 0), platonic("cube")),
        (tri_torus(2, 2), tri_torus(2, 3)),
        (grid_map(3, 5, 1), grid_map(3, 3, 0)),
    ]
    for left, right in pairs:
        fa = spliceable_faces(left)[0]
        candidates = [f for f in spliceable_faces(right)
                      if f.degree == fa.degree]
        fb = candidates[int(rng.integers(len(candidates)))]
        joined = connected_sum(left, right, fa.flags[0], fb.flags[0])
        chi = (surface_signature(left).euler_characteristic
               + surface_signature(right).euler_characteristic - 2)
        assert surface_signature(joined).euler_characteristic == chi
        orientable = (surface_signature(left).orientable
                      and surface_signature(right).orientable)
        assert surface_signature(joined).orientable == orientable


def test_connected_sum_degree_mismatch():
    with pytest.raises(FaceSizeMismatch) as info:
        connected_sum(platonic("tetrahedron"), platonic("cube"), 0, 0)
    assert "3" in str(info.value) and "4" in str(info.value)


def test_connected_sum_self_adjacent_face():
    torus = polygon_gluing("abAB")
    with pytest.raises(FaceSelfAdjacent) as info:
        connected_sum(torus, torus, 0, 0)
    assert "first" in str(info.value)
    with pytest.raises(FaceSelfAdjacent) as info:
        connected_sum(platonic("cube"), torus, 0, 0)
    assert "second" in str(info.value)


def test_connected_sum_rejects_bad_flags_and_ranks():
    tetra = platonic("tetrahedron")
    with pytest.raises(BadParameters):
        connected_sum(tetra, tetra, 99, 0)
    with pytest.raises(BadParameters):
        connected_sum(tetra, tetra, 0, -1)
    with pytest.raises(RankNotTwo):
        connected_sum(cube_maniplex(4), tetra, 0, 0)


def test_connected_sum_group_meets_when_faces_avoidable():
    # on platonic solids every face can be excluded without growing the
    # coloring group, so the sum realizes the intersection
    for a, b in (("cube", "cube"), ("cube", "octahedron"),
                 ("tetrahedron", "icosahedron")):
        left, right = platonic(a), platonic(b)
        fa = cells(left, 2)[0]
        degree = fa.degree
        matches = [f for f in cells(right, 2) if f.degree == degree]
        if not matches:
            continue
        fb = matches[0]
        assert (coloring_group_excluding_cell(left, fa).masks
                == coloring_group(left).masks)
        assert (coloring_group_excluding_cell(right, fb).masks
                == coloring_group(right).masks)
        joined = connected_sum(left, right, fa.flags[0], fb.flags[0])
        want = frozenset(coloring_group(left).masks) \
            & frozenset(coloring_group(right).masks)
        assert frozenset(coloring_group(joined).masks) == want


def _flag_bound(surface):
    """build_map_with_group's size bound: 48 flags per crosscap of the
    non-orientable surface it builds, doubled for an orientable one."""
    return 96 * (surface.genus + 1) if surface.orientable else 48 * surface.genus


def test_build_map_with_group_full_grid():
    surfaces = [SurfaceSignature(False, g) for g in range(1, 7)] \
        + [SurfaceSignature(True, g) for g in range(4)]
    built = exceptional = mismatched = 0
    for group in all_subgroups(2):
        for surface in surfaces:
            try:
                system = build_map_with_group(group, surface)
            except ExceptionalPair:
                exceptional += 1
                continue
            except OrientabilityMismatch:
                mismatched += 1
                continue
            built += 1
            assert coloring_group(system).masks == group.masks
            assert surface_signature(system) == surface
            assert system.flag_count <= _flag_bound(surface)
    assert built == 83
    assert exceptional == 3
    assert mismatched == 74


def test_build_map_with_group_at_high_genus():
    # n22 needs more than 64 surgeries for e,0,2,02 and n26 needs more
    # than 26 gluing letters for e,02; neither is a limit any more.
    surfaces = [SurfaceSignature(False, g) for g in range(20, 31)] \
        + [SurfaceSignature(True, g) for g in range(20, 26)]
    built = 0
    for group in all_subgroups(2):
        for surface in surfaces:
            try:
                system = build_map_with_group(group, surface)
            except (ExceptionalPair, OrientabilityMismatch):
                continue
            built += 1
            assert coloring_group(system).masks == group.masks
            assert surface_signature(system) == surface
            assert system.flag_count <= _flag_bound(surface)
    assert built == 11 * 11 + 5 * 6


def test_build_map_exceptional_pairs():
    cases = (
        (("1", "02", "012"), SurfaceSignature(True, 0)),
        (("1",), SurfaceSignature(False, 1)),
        (("02",), SurfaceSignature(False, 1)),
    )
    for gens, surface in cases:
        group = ColoringGroup.parse("e," + ",".join(gens), 2)
        with pytest.raises(ExceptionalPair):
            build_map_with_group(group, surface)


def test_build_map_guards():
    trivial = ColoringGroup.parse("e", 2)
    with pytest.raises(OrientabilityMismatch):
        build_map_with_group(trivial, SurfaceSignature(True, 1))
    full = ColoringGroup.parse("e,0,1,2,01,02,12,012", 2)
    with pytest.raises(OrientabilityMismatch):
        build_map_with_group(full, SurfaceSignature(False, 2))
    with pytest.raises(BadParameters):
        build_map_with_group(trivial, SurfaceSignature(False, 0))
    with pytest.raises(BadParameters):
        build_map_with_group(full, SurfaceSignature(True, -1))
    # 48 * 208334 and 96 * 104167 flags are just over the limit of 10**7
    with pytest.raises(BadParameters, match="limit"):
        build_map_with_group(trivial, SurfaceSignature(False, 208334))
    with pytest.raises(BadParameters, match="limit"):
        build_map_with_group(full, SurfaceSignature(True, 104166))
    with pytest.raises(BadParameters):
        build_map_with_group(ColoringGroup.parse("e", 3),
                             SurfaceSignature(False, 1))
