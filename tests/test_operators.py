import numpy as np
import pytest

from cases import relabeled
from mapforge import (
    ColorSet,
    cells,
    coloring_group,
    crosscap_map,
    cube_maniplex,
    dual,
    euler_characteristic,
    find_coloring,
    grid_map,
    is_isomorphic,
    medial,
    opposite,
    petrie,
    platonic,
    polygon_gluing,
    surface_signature,
    tri_torus,
    validate,
)
from mapforge.operators import dual_color_set, opposite_color_set, petrie_color_set
from mapforge.errors import BadParameters, RankNotTwo

POOL = lambda: [
    platonic("tetrahedron"), platonic("cube"), platonic("octahedron"),
    polygon_gluing("abAB"), polygon_gluing("aa"), polygon_gluing("abcaCB"),
    grid_map(3, 3, 0), tri_torus(2, 3), crosscap_map(3),
]


def test_dual_reverses_cell_roles():
    cube = platonic("cube")
    dualized = dual(cube)
    assert len(cells(dualized, 0)) == len(cells(cube, 2))
    assert len(cells(dualized, 2)) == len(cells(cube, 0))
    assert len(cells(dualized, 1)) == len(cells(cube, 1))


def test_dual_of_platonic_pairs():
    assert is_isomorphic(dual(platonic("cube")), platonic("octahedron")) is not None
    assert is_isomorphic(dual(platonic("dodecahedron")),
                         platonic("icosahedron")) is not None
    tetra = platonic("tetrahedron")
    assert is_isomorphic(dual(tetra), tetra) is not None


def test_operators_are_involutions():
    for system in POOL():
        assert dual(dual(system)) == system
        assert opposite(opposite(system)) == system
        assert petrie(petrie(system)) == system


def test_petrie_of_tetrahedron():
    pt = petrie(platonic("tetrahedron"))
    assert sorted(f.degree for f in cells(pt, 2)) == [4, 4, 4]
    assert euler_characteristic(pt) == 1
    assert not surface_signature(pt).orientable


def test_opposite_can_change_orientability():
    assert surface_signature(platonic("cube")).orientable
    assert not surface_signature(opposite(platonic("cube"))).orientable


def test_petrie_as_conjugated_opposite():
    for system in POOL():
        assert opposite(system) == petrie(dual(petrie(dual(dual(system)))))
        assert opposite(system) == dual(petrie(dual(system)))


def test_petrie_is_dual_opposite_dual_at_every_rank():
    for system in POOL() + [cube_maniplex(n) for n in (3, 4, 5)]:
        assert petrie(system) == dual(opposite(dual(system)))


def test_petrie_keeps_vertices_and_edges():
    for system in POOL():
        assert len(cells(petrie(system), 0)) == len(cells(system, 0))
        assert len(cells(petrie(system), 1)) == len(cells(system, 1))


def test_opposite_keeps_faces_and_edges():
    for system in POOL():
        assert len(cells(opposite(system), 2)) == len(cells(system, 2))
        assert len(cells(opposite(system), 1)) == len(cells(system, 1))


def test_rank_guards():
    square = validate(1, 8, ([1, 0, 3, 2, 5, 4, 7, 6], [7, 2, 1, 4, 3, 6, 5, 0]))
    with pytest.raises(BadParameters):
        opposite(square)
    with pytest.raises(BadParameters):
        petrie(square)
    with pytest.raises(RankNotTwo):
        medial(square)
    with pytest.raises(RankNotTwo):
        medial(cube_maniplex(4))
    assert dual(square).rank == 1


def test_dual_on_higher_rank():
    maniplex = cube_maniplex(4)
    dd = dual(maniplex)
    assert dd.rank == 3
    assert dual(dd) == maniplex
    group = coloring_group(maniplex)
    dual_group = coloring_group(dd)
    for mask in range(16):
        member = ColorSet(3, mask)
        assert (member in group) == (dual_color_set(member) in dual_group)


def test_color_set_transfer_maps():
    assert dual_color_set(ColorSet.of((0,), 2)) == ColorSet.of((2,), 2)
    assert dual_color_set(ColorSet.of((1,), 2)) == ColorSet.of((1,), 2)
    assert opposite_color_set(ColorSet.of((0, 1), 2)) == ColorSet.of((0, 1, 2), 2)
    assert opposite_color_set(ColorSet.of((1,), 2)) == ColorSet.of((1,), 2)
    assert petrie_color_set(ColorSet.of((2,), 2)) == ColorSet.of((0, 2), 2)
    assert petrie_color_set(ColorSet.of((1,), 2)) == ColorSet.of((1,), 2)
    # at rank n petrie toggles n-2 whenever n is present
    assert petrie_color_set(ColorSet.of((3,), 3)) == ColorSet.of((1, 3), 3)
    assert petrie_color_set(ColorSet.of((0, 2), 3)) == ColorSet.of((0, 2), 3)
    assert petrie_color_set(ColorSet.of((2, 4), 4)) == ColorSet.of((4,), 4)


def test_transfer_rules_hold():
    # cube_maniplex(4) and (5) are ranks 3 and 4, where the rank-2 petrie
    # rule (toggle 0 whenever 2 is present) mispredicts T(petrie)
    for system in POOL() + [cube_maniplex(4), cube_maniplex(5)]:
        group = coloring_group(system)
        dual_group = coloring_group(dual(system))
        opp_group = coloring_group(opposite(system))
        pet_group = coloring_group(petrie(system))
        for mask in range(1 << (system.rank + 1)):
            member = ColorSet(system.rank, mask)
            assert (member in group) == (dual_color_set(member) in dual_group)
            assert (member in group) == (opposite_color_set(member) in opp_group)
            assert (member in group) == (petrie_color_set(member) in pet_group), str(member)


def test_full_group_criterion():
    for system in POOL():
        has_all = len(coloring_group(system).masks) == 8
        all_orientable = all(
            surface_signature(variant).orientable
            for variant in (system, opposite(system), petrie(system)))
        assert has_all == all_orientable


def test_medial_of_tetrahedron_is_octahedron():
    assert is_isomorphic(medial(platonic("tetrahedron")),
                         platonic("octahedron")) is not None


def test_medial_structure():
    for system in POOL():
        med = medial(system)
        assert med.flag_count == 2 * system.flag_count
        assert len(cells(med, 0)) == len(cells(system, 1))
        assert all(v.degree == 4 for v in cells(med, 0))
        assert euler_characteristic(med) == euler_characteristic(system)
        assert find_coloring(med, ColorSet.of((2,), 2)) is not None


def test_medial_transfer_table():
    table = (((1,), (0,)), ((0, 2), (1,)), ((0, 1, 2), (0, 1, 2)))
    for system in POOL():
        group = coloring_group(system)
        med_group = coloring_group(medial(system))
        for src, dst in table:
            assert (ColorSet.of(src, 2) in group) == \
                (ColorSet.of(dst, 2) in med_group)


def test_operators_commute_with_relabeling():
    rng = np.random.default_rng(13)
    system = platonic("octahedron")
    for op in (dual, opposite, petrie, medial):
        shuffled = relabeled(system, rng.permutation(system.flag_count))
        assert is_isomorphic(op(system), op(shuffled)) is not None
