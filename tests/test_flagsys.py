import ast
import pathlib

import numpy as np
import pytest

import mapforge.flagsys as flagsys
from cases import relabeled
from mapforge import (
    Cell,
    FlagSystem,
    SurfaceSignature,
    apply_word,
    cell_labels,
    cells,
    check_projection,
    crosscap_map,
    deck_transformations,
    euler_characteristic,
    i_double,
    is_isomorphic,
    platonic,
    surface_signature,
    validate,
)
from mapforge.errors import (
    BadParameters,
    Disconnected,
    FixedPoint,
    NonCommuting,
    NotDisjoint,
    NotInvolution,
    OutOfRange,
    RankNotTwo,
)

# one vertex, one edge, one face on the projective plane
CROSSCAP = ([1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1])
# two vertices joined by a single edge, on the sphere
DIGON = ([1, 0, 3, 2], [3, 2, 1, 0], [3, 2, 1, 0])


def test_validate_accepts_small_systems():
    system = validate(2, 4, CROSSCAP)
    assert system.rank == 2
    assert system.flag_count == 4
    assert all(conn.flags.writeable is False for conn in system.connections)


def test_validate_out_of_range():
    with pytest.raises(OutOfRange) as info:
        validate(2, 4, ([1, 0, 3, 99], [3, 2, 1, 0], [2, 3, 0, 1]))
    assert info.value.value == 99
    with pytest.raises(OutOfRange) as info:
        validate(2, 4, ([1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, -10**20]))
    assert (info.value.i, info.value.f, info.value.value) == (2, 3, -10**20)


@pytest.mark.parametrize("bad", [
    [1.9, 0.2], [1.0, 0.0], ["1", "0"], [True, False], np.array([1, 0], dtype=object) + 0.5,
    [1.5, 2**70],
])
def test_validate_refuses_entries_that_are_not_integers(bad):
    with pytest.raises(BadParameters, match="connection r1 has entries that are not integers"):
        validate(1, 2, [[1, 0], bad])


def test_validate_checks_lengths_before_entries():
    for bad, size in ((1.5, 1), ([0.5, 1.5, 2.5], 3), ([], 0)):
        with pytest.raises(BadParameters, match=f"connection r1 has length {size}, expected 2"):
            validate(1, 2, [[1, 0], bad])


@pytest.mark.parametrize("huge", [2**63, 2**64 + 1, -2**63 - 1])
def test_validate_reports_huge_integers_as_out_of_range(huge):
    for conn in ([1, huge], np.array([1, huge], dtype=object)):
        with pytest.raises(OutOfRange) as info:
            validate(1, 2, [[1, 0], conn])
        assert (info.value.i, info.value.f, info.value.value) == (1, 1, huge)
    with pytest.raises(OutOfRange) as info:
        validate(1, 2, [[1, 0], np.array([1, 2**63], dtype=np.uint64)])
    assert info.value.value == 2**63


def test_validate_keeps_intp_and_converts_other_integers():
    conns = [np.array(c, dtype=np.intp) for c in CROSSCAP]
    assert all(a is b for a, b in zip(validate(2, 4, conns).connections, conns))
    for dtype in (np.int8, np.uint16, np.int32):
        system = validate(2, 4, [np.array(c, dtype=dtype) for c in CROSSCAP])
        assert system == validate(2, 4, CROSSCAP)
        assert all(c.dtype == np.intp for c in system.connections)


def test_validate_not_involution():
    with pytest.raises(NotInvolution):
        validate(2, 4, ([1, 2, 3, 0], [3, 2, 1, 0], [2, 3, 0, 1]))


def test_validate_fixed_point():
    with pytest.raises(FixedPoint) as info:
        validate(2, 4, ([0, 1, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]))
    assert info.value.i == 0


def test_validate_non_commuting():
    r0 = [1, 0, 3, 2, 5, 4]
    r1 = [5, 4, 3, 2, 1, 0]
    r2 = [2, 4, 0, 5, 1, 3]
    with pytest.raises(NonCommuting):
        validate(2, 6, (r0, r1, r2))


def test_validate_not_disjoint():
    r0 = [1, 0, 3, 2]
    with pytest.raises(NotDisjoint):
        validate(2, 4, (r0, [3, 2, 1, 0], r0))


@pytest.mark.parametrize("dim", [-1, 3, 5])
def test_a_cell_dimension_out_of_range_raises_and_is_not_cached(dim):
    cube = platonic("cube")
    for ask in (cell_labels, cells, lambda system, d: cell_labels(system, omit=d)):
        with pytest.raises(BadParameters, match=rf"cell dimension {dim} out of range 0\.\.2"):
            ask(cube, dim)
    assert flagsys._kept(cube, flagsys._labels, dim) is None


def test_cell_labels_by_keyword_reads_the_same_kept_result():
    cube = platonic("cube")
    for dim in range(3):
        assert flagsys._kept(cube, flagsys._labels, dim) is None
        kept = cell_labels(cube, omit=dim)
        assert cell_labels(cube, dim) is kept and cell_labels(cube, omit=dim) is kept
        assert flagsys._kept(cube, flagsys._labels, dim) is kept


def test_validate_disconnected():
    double = [np.concatenate([np.array(c), np.array(c) + 4]) for c in CROSSCAP]
    with pytest.raises(Disconnected) as info:
        validate(2, 8, double)
    assert info.value.component_count == 2


def test_wrong_connection_count():
    with pytest.raises(BadParameters):
        validate(2, 4, CROSSCAP[:2])


def test_cells_and_degrees():
    system = validate(2, 4, DIGON)
    vertices = cells(system, 0)
    edges = cells(system, 1)
    faces = cells(system, 2)
    assert [v.degree for v in vertices] == [1, 1]
    assert len(edges) == 1 and edges[0].degree == 2
    assert len(faces) == 1 and faces[0].degree == 2
    assert euler_characteristic(system) == 2
    assert surface_signature(system) == SurfaceSignature(True, 0)


def test_cells_numbered_by_smallest_flag():
    cube = platonic("cube")
    for dim in range(3):
        reps = [c.flags[0] for c in cells(cube, dim)]
        assert reps == sorted(reps)
        labels, count = cell_labels(cube, dim)
        assert count == len(reps)
        assert all(labels[c.flags[0]] == k for k, c in enumerate(cells(cube, dim)))


def test_every_edge_has_four_flags():
    for name in ("cube", "dodecahedron"):
        for edge in cells(platonic(name), 1):
            assert len(edge.flags) == 4


def test_crosscap_signature():
    system = validate(2, 4, CROSSCAP)
    assert euler_characteristic(system) == 1
    assert surface_signature(system) == SurfaceSignature(False, 1)
    assert is_isomorphic(system, crosscap_map(1)) is not None


def test_euler_requires_rank_two():
    square = validate(1, 8, ([1, 0, 3, 2, 5, 4, 7, 6], [7, 2, 1, 4, 3, 6, 5, 0]))
    with pytest.raises(RankNotTwo):
        euler_characteristic(square)
    with pytest.raises(RankNotTwo):
        surface_signature(square)


def test_surface_signature_parse_and_str():
    assert str(SurfaceSignature(True, 0)) == "o0"
    assert str(SurfaceSignature(False, 3)) == "n3"
    assert SurfaceSignature.parse("o2") == SurfaceSignature(True, 2)
    assert SurfaceSignature.parse("n1") == SurfaceSignature(False, 1)
    for bad in ("x2", "o", "n0", "o-1", ""):
        with pytest.raises(BadParameters):
            SurfaceSignature.parse(bad)


def test_signature_euler_characteristic():
    assert SurfaceSignature(True, 2).euler_characteristic == -2
    assert SurfaceSignature(False, 2).euler_characteristic == 0


def test_apply_word():
    system = validate(2, 4, CROSSCAP)
    assert apply_word(system, 0, (0,)) == 1
    assert apply_word(system, 0, (0, 1, 0)) == apply_word(
        system, apply_word(system, 0, (0, 1)), (0,))
    assert apply_word(system, 2, ()) == 2


def test_is_isomorphic_relabeling():
    rng = np.random.default_rng(11)
    cube = platonic("cube")
    for _ in range(5):
        shuffled = relabeled(cube, rng.permutation(cube.flag_count))
        mapping = is_isomorphic(cube, shuffled)
        assert mapping is not None
        for i in range(3):
            assert np.array_equal(
                shuffled.connections[i][mapping], mapping[cube.connections[i]])


def test_is_isomorphic_symmetric_and_negative():
    tetra = platonic("tetrahedron")
    octa = platonic("octahedron")
    assert is_isomorphic(tetra, tetra) is not None
    assert is_isomorphic(tetra, octa) is None
    assert is_isomorphic(octa, tetra) is None
    assert is_isomorphic(validate(2, 4, DIGON), validate(2, 4, CROSSCAP)) is None


def test_deck_transformations_of_regular_map():
    decks = deck_transformations(platonic("tetrahedron"))
    assert len(decks) == 24
    identity = np.arange(24)
    assert any(np.array_equal(d, identity) for d in decks)
    for d in decks:
        assert sorted(d) == list(range(24))


def test_deck_contains_sheet_swap_of_double():
    tetra = platonic("tetrahedron")
    cover = i_double(tetra, (1,)).system
    swap = np.arange(cover.flag_count) ^ 1
    decks = deck_transformations(cover)
    assert any(np.array_equal(d, swap) for d in decks)


def test_check_projection():
    tetra = platonic("tetrahedron")
    result = i_double(tetra, (1,))
    ok, sheets = check_projection(result.system, tetra, result.projection)
    assert ok and sheets == 2
    ok, sheets = check_projection(tetra, tetra, np.arange(24))
    assert ok and sheets == 1
    bad = np.array(result.projection)
    bad[0] = (bad[0] + 1) % 24
    ok, sheets = check_projection(result.system, tetra, bad)
    assert not ok and sheets is None
    phi = result.projection
    for other in (phi + 0.3, phi + 0.0, phi.astype(str), list(phi[:-1]) + [2**70]):
        assert check_projection(result.system, tetra, other) == (False, None)
    assert check_projection(result.system, tetra, phi.astype(np.uint8)) == (True, 2)


def test_cell_value_semantics():
    cell = Cell(dimension=1, flags=(0, 1, 5, 4))
    assert cell.degree == 2
    assert cell == Cell(dimension=1, flags=(0, 1, 5, 4))


def test_systems_hash_and_compare():
    a = validate(2, 4, CROSSCAP)
    b = validate(2, 4, CROSSCAP)
    assert a == b and hash(a) == hash(b)
    assert a != validate(2, 4, DIGON)


def test_flagsys_imports_nothing_from_the_package_but_errors():
    """flagsys lies below every other module, so the package has no import cycle."""
    tree = ast.parse(pathlib.Path(flagsys.__file__).read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    absolute += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level]
    assert relative == {"errors"}
    assert not [name for name in absolute if name.split(".")[0] == "mapforge"]
