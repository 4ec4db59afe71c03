import itertools

import numpy as np
import pytest

from mapforge import (
    ArrowAssignment,
    Cell,
    ColorSet,
    Coloring,
    ColoringGroup,
    all_subgroups,
    coloring_group,
    coloring_group_excluding_cell,
    cells,
    crosscap_map,
    cycle_consistent,
    direct_pso,
    find_coloring,
    grid_map,
    i_face_bipartite,
    is_pseudo_orientable,
    is_valid_coloring,
    platonic,
    polygon_gluing,
    strip_map,
    subgroup_closure,
    tri_torus,
    validate,
)
from mapforge.coloring import PSO_KINDS
from mapforge.errors import BadParameters, ClosureViolation

SMALL_WORDS = ("aA", "aa", "abAB", "aabb", "abcaCB")


def brute_force_colorings(system, color_set):
    """Every assignment satisfying the flip rule, by full enumeration."""
    n = system.flag_count
    flips = [i in color_set.indices for i in range(system.rank + 1)]
    found = []
    for bits in range(1 << n):
        a = [(bits >> f) & 1 for f in range(n)]
        if all((a[f] != a[conn[f]]) == flips[i]
               for i, conn in enumerate(system.connections)
               for f in range(n)):
            found.append(a)
    return found


def test_color_set_basics():
    cs = ColorSet.of((0, 2), 2)
    assert cs.indices == (0, 2)
    assert 0 in cs and 1 not in cs and 2 in cs
    assert len(cs) == 2
    assert str(cs) == "02"
    assert str(ColorSet.empty(2)) == "e"
    assert cs.complement() == ColorSet.of((1,), 2)
    assert cs ^ ColorSet.of((1, 2), 2) == ColorSet.of((0, 1), 2)
    assert ColorSet.full(2).indices == (0, 1, 2)


def test_color_set_parse():
    assert ColorSet.parse("02", 2) == ColorSet.of((0, 2), 2)
    assert ColorSet.parse("e", 2) == ColorSet.empty(2)
    assert ColorSet.parse("012", 2) == ColorSet.full(2)
    with pytest.raises(BadParameters):
        ColorSet.parse("03", 2)
    with pytest.raises(BadParameters):
        ColorSet.parse("zz", 2)


def test_color_set_of_rejects_out_of_range():
    with pytest.raises(BadParameters):
        ColorSet.of((3,), 2)


def test_coloring_group_syntax():
    group = ColoringGroup.parse("e,0,12,012", 2)
    assert str(group) == "e,0,12,012"
    assert ColorSet.of((0,), 2) in group
    assert ColorSet.of((1,), 2) not in group
    assert len(group.members) == 4
    assert group.members[0] == ColorSet.empty(2)


def test_coloring_group_requires_closure():
    with pytest.raises(ClosureViolation):
        ColoringGroup.of(2, [ColorSet.of((0,), 2), ColorSet.of((1,), 2),
                             ColorSet.empty(2)])
    with pytest.raises(ClosureViolation):
        ColoringGroup.of(2, [ColorSet.of((0,), 2)])


def test_subgroup_closure():
    group = subgroup_closure(2, [1, 2])
    assert group.masks == frozenset({0, 1, 2, 3})
    assert subgroup_closure(2, []).masks == frozenset({0})


def brute_force_subgroups(rank):
    n = 1 << (rank + 1)
    out = set()
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            s = set(subset)
            if 0 in s and all(a ^ b in s for a in s for b in s):
                out.add(frozenset(s))
    return out


def test_all_subgroups_matches_brute_force():
    got = {g.masks for g in all_subgroups(2)}
    assert got == brute_force_subgroups(2)
    assert len(got) == 16
    assert len(all_subgroups(1)) == 5


def test_sixteen_subgroups_by_size():
    sizes = sorted(len(g.masks) for g in all_subgroups(2))
    assert sizes == [1] + [2] * 7 + [4] * 7 + [8]


def test_find_coloring_matches_brute_force():
    for word in SMALL_WORDS:
        system = polygon_gluing(word)
        for mask in range(8):
            cs = ColorSet(2, mask)
            sols = brute_force_colorings(system, cs)
            witness = find_coloring(system, cs)
            if witness is None:
                assert sols == []
            else:
                assert len(sols) == 2
                assert witness.assignment[0] == 0
                assert list(witness.assignment) in sols
                assert is_valid_coloring(system, cs, witness.assignment)


def test_at_most_two_colorings():
    # the complement assignment is the only other solution
    system = polygon_gluing("abAB")
    for mask in range(8):
        sols = brute_force_colorings(system, ColorSet(2, mask))
        assert len(sols) in (0, 2)
        if sols:
            assert [1 - b for b in sols[0]] == sols[1]


def test_is_valid_coloring_rejects_corrupted():
    system = platonic("tetrahedron")
    witness = find_coloring(system, ColorSet.full(2))
    broken = np.array(witness.assignment)
    broken[5] ^= 1
    assert not is_valid_coloring(system, ColorSet.full(2), broken)


def test_coloring_group_of_known_maps():
    assert str(coloring_group(platonic("cube"))) == "e,0,12,012"
    assert str(coloring_group(platonic("octahedron"))) == "e,2,01,012"
    assert str(coloring_group(platonic("tetrahedron"))) == "e,012"
    assert str(coloring_group(polygon_gluing("abAB"))) == "e,1,02,012"
    assert str(coloring_group(crosscap_map(2))) == "e,01,02,12"
    assert str(coloring_group(grid_map(3, 3, 0))) == "e,1"
    assert str(coloring_group(strip_map(1, (), 0))) == "e,02"


def test_coloring_group_matches_brute_force():
    for word in SMALL_WORDS:
        system = polygon_gluing(word)
        want = {m for m in range(8)
                if brute_force_colorings(system, ColorSet(2, m))}
        assert coloring_group(system).masks == frozenset(want)


def test_empty_set_always_colorable():
    for word in SMALL_WORDS:
        witness = find_coloring(polygon_gluing(word), ColorSet.empty(2))
        assert witness is not None
        assert not witness.assignment.any()


def test_coloring_group_excluding_cell():
    for name in ("tetrahedron", "cube", "octahedron"):
        system = platonic(name)
        whole = coloring_group(system)
        for face in cells(system, 2):
            relaxed = coloring_group_excluding_cell(system, face)
            assert whole.masks <= relaxed.masks
            assert relaxed.masks == whole.masks


@pytest.mark.parametrize("flags", [(999,), (-1,), (0, 1), ()])
def test_excluding_cell_rejects_flags_that_are_not_one_face(flags):
    with pytest.raises(BadParameters):
        coloring_group_excluding_cell(platonic("cube"), Cell(2, flags))


def test_excluding_cell_can_grow():
    # a one-face map loses every constraint when that face is removed
    system = polygon_gluing("abABcdCD")
    whole = coloring_group(system)
    (face,) = cells(system, 2)
    relaxed = coloring_group_excluding_cell(system, face)
    assert whole.masks < relaxed.masks
    assert relaxed.masks == frozenset(range(8))


def test_cycle_consistent():
    system = platonic("cube")
    face_word = (0, 1) * 4
    assert cycle_consistent(system, 0, face_word, ColorSet.of((2,), 2))
    assert cycle_consistent(system, 0, face_word, ColorSet.of((0,), 2))


def test_is_pseudo_orientable_definition():
    for word in SMALL_WORDS:
        system = polygon_gluing(word)
        for subset in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
            want = find_coloring(
                system, ColorSet.of(subset, 2).complement()) is not None
            assert is_pseudo_orientable(system, subset) == want


def test_direct_pso_agrees_with_colorability():
    maps = [polygon_gluing(w) for w in SMALL_WORDS]
    maps += [platonic(n) for n in ("tetrahedron", "cube", "octahedron")]
    maps += [tri_torus(2, 2), grid_map(3, 3, 0), crosscap_map(3)]
    complements = {"full": (), "face": (2,), "vertex": (0,), "edge": (1,)}
    for system in maps:
        for kind, omitted in complements.items():
            want = find_coloring(
                system, ColorSet.full(2) ^ ColorSet.of(omitted, 2)) is not None
            witness = direct_pso(system, kind)
            assert (witness is not None) == want
            if witness is not None:
                dim = PSO_KINDS[kind][0]
                assert witness.kind == kind
                assert witness.cell_dimension == dim
                assert len(witness.arrows) == len(cells(system, dim))


def test_direct_pso_rejects_unknown_kind():
    with pytest.raises(BadParameters):
        direct_pso(platonic("cube"), "sideways")


def test_direct_pso_deterministic():
    system = tri_torus(2, 3)
    first = direct_pso(system, "full")
    second = direct_pso(system, "full")
    assert np.array_equal(first.arrows, second.arrows)


def brute_force_cell_bipartition(system, i):
    from mapforge import cell_labels
    labels, count = cell_labels(system, i)
    conn = system.connections[i]
    for bits in range(1 << count):
        side = [(bits >> c) & 1 for c in range(count)]
        if all(side[labels[f]] != side[labels[conn[f]]]
               for f in range(system.flag_count)):
            return True
    return False


def test_i_face_bipartite_matches_brute_force():
    for word in SMALL_WORDS + ("abABcdCD",):
        system = polygon_gluing(word)
        for i in range(3):
            assert i_face_bipartite(system, i) == \
                brute_force_cell_bipartition(system, i)


def test_bridge_between_colorings_and_bipartiteness():
    rng = np.random.default_rng(5)
    from mapforge import random_surgery
    pool = [platonic("cube"), tri_torus(2, 2), crosscap_map(2)]
    for base in pool:
        system = base
        for _ in range(4):
            system = random_surgery(system, rng)
            for i in range(3):
                colorable = find_coloring(system, ColorSet.of((i,), 2)) is not None
                assert colorable == i_face_bipartite(system, i)


def test_coloring_values_are_read_only():
    witness = find_coloring(platonic("cube"), ColorSet.full(2))
    assert isinstance(witness, Coloring)
    with pytest.raises(ValueError):
        witness.assignment[0] = 1


def test_arrow_assignment_read_only():
    witness = direct_pso(platonic("cube"), "full")
    assert isinstance(witness, ArrowAssignment)
    with pytest.raises(ValueError):
        witness.arrows[0] = 1


def test_rank_one_colorings():
    square = validate(1, 8, ([1, 0, 3, 2, 5, 4, 7, 6], [7, 2, 1, 4, 3, 6, 5, 0]))
    group = coloring_group(square)
    assert group.masks == frozenset({0, 1, 2, 3})
