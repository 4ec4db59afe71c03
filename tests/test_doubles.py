import numpy as np
import pytest

import mapforge.flagsys as flagsys
import orbit_reference
from cases import CORPUS, color_sets
from mapforge import (
    ColorSet,
    DoubleResult,
    RotationSystem,
    cells,
    check_projection,
    coloring_group,
    crosscap_map,
    cube_maniplex,
    deck_transformations,
    find_coloring,
    from_rotation_system,
    grid_map,
    i_double,
    is_isomorphic,
    platonic,
    polygon_gluing,
    quotient,
    recognize_i_double,
    sherk_double,
    subgroup_closure,
    surface_signature,
    tri_torus,
)
from mapforge.errors import (
    BadParameters,
    ConnectionCollision,
    HasFixedPoint,
    NotDeck,
    NotInvolution,
    RankMismatch,
    RankNotTwo,
    VertexBipartite,
)
from mapforge.doubles import _i_doubles

POOL = lambda: [
    platonic("tetrahedron"), platonic("cube"), platonic("octahedron"),
    polygon_gluing("abAB"), polygon_gluing("aa"), polygon_gluing("abcaCB"),
    grid_map(3, 3, 0), tri_torus(2, 2), crosscap_map(2),
]


def cycle_map(k):
    """k vertices in a cycle; every vertex has degree 2."""
    rotations = tuple(
        (2 * ((v - 1) % k) + 1, 2 * v) for v in range(k))
    pairs = tuple((2 * i, 2 * i + 1, 1) for i in range(k))
    return from_rotation_system(RotationSystem(rotations=rotations,
                                               edge_pairs=pairs))


def test_double_result_shape():
    tetra = platonic("tetrahedron")
    result = i_double(tetra, (1,))
    assert isinstance(result, DoubleResult)
    assert not result.split
    assert result.system.flag_count == 48
    assert len(result.projection) == 48
    assert not result.projection.flags.writeable


def test_split_iff_already_colorable():
    for system in POOL():
        group = coloring_group(system)
        for mask in range(8):
            member = ColorSet(2, mask)
            result = i_double(system, member)
            assert result.split == (member in group)
            ok, sheets = check_projection(result.system, system, result.projection)
            assert ok
            assert sheets == (1 if result.split else 2)
            if result.split:
                assert result.system.flag_count == system.flag_count


def test_double_makes_one_kernel_pass_and_its_group_none(monkeypatch):
    """The split comes from the lift's connectivity, not from the cached
    T(M), so double-split and dubgp stay a second route to the group; the
    same pass leaves the double's parity potentials, so its group costs
    no further pass."""
    calls = []
    kernel = flagsys._orbits

    def counting(n, edges, flips=None):
        calls.append(n)
        return kernel(n, edges, flips)

    monkeypatch.setattr(flagsys, "_orbits", counting)
    for system in POOL():
        for mask in range(8):
            calls.clear()
            result = i_double(system, ColorSet(2, mask))
            assert calls == [2 * system.flag_count]
            if not result.split:
                coloring_group(result.system)
                assert calls == [2 * system.flag_count]
        assert flagsys._kept(system, flagsys._parity) is None


def _same_doubles(got, want, where):
    for cs, a, b in zip(color_sets(where.rank), got, want):
        assert a.split == b.split, (where, str(cs))
        assert np.array_equal(a.projection, b.projection), (where, str(cs))
        assert a.system == b.system, (where, str(cs))


def test_batched_lift_matches_the_one_set_reference():
    for name, system in CORPUS + [("cube-maniplex 5", cube_maniplex(5))]:
        sets = color_sets(system.rank)
        got = _i_doubles(system, sets)
        assert len(got) == len(sets)
        _same_doubles(got, [orbit_reference.i_double(system, cs) for cs in sets], system)
        for cs, result in zip(sets, got):
            if result.split:
                assert result.system is system, (name, str(cs))
                continue
            double = result.system
            letters = [(None, c) for c in double.connections]
            fresh = flagsys._orbits(double.flag_count, letters, [1 << j for j in range(double.rank + 1)])[1]
            seeded = flagsys._kept(double, flagsys._pot)
            assert seeded.dtype == fresh.dtype and np.array_equal(seeded, fresh), (name, str(cs))


@pytest.mark.parametrize("per_pass", [1, 2, 3, 5])
def test_batched_lift_in_chunks_matches_one_pass(monkeypatch, per_pass):
    systems = [platonic("cube"), polygon_gluing("abcaCB"), cube_maniplex(4)]
    whole = [_i_doubles(system, color_sets(system.rank)) for system in systems]
    calls = []
    kernel = flagsys._orbits

    def counting(n, edges, flips=None):
        calls.append(n)
        return kernel(n, edges, flips)

    monkeypatch.setattr(flagsys, "_orbits", counting)
    for system, want in zip(systems, whole):
        n2 = 2 * system.flag_count
        monkeypatch.setattr(flagsys, "_FILL", per_pass * n2 + n2 - 1)
        calls.clear()
        got = _i_doubles(system, color_sets(system.rank))
        sets = len(want)
        assert calls == [n2 * min(per_pass, sets - start) for start in range(0, sets, per_pass)]
        _same_doubles(got, want, system)
        for a, b in zip(got, want):
            if not a.split:
                assert np.array_equal(flagsys._kept(a.system, flagsys._pot),
                                      flagsys._kept(b.system, flagsys._pot))


def test_no_color_sets_make_no_doubles_and_no_pass(monkeypatch):
    def unused(n, edges, flips=None):
        raise AssertionError("a kernel pass over no doubles")

    cube = platonic("cube")
    monkeypatch.setattr(flagsys, "_orbits", unused)
    assert _i_doubles(cube, []) == []


def test_split_double_is_isomorphic_to_base():
    cube = platonic("cube")
    result = i_double(cube, (0,))
    assert result.split
    assert is_isomorphic(result.system, cube) is not None


def test_connected_double_is_colorable_by_sheets():
    tetra = platonic("tetrahedron")
    result = i_double(tetra, (0, 1))
    witness = find_coloring(result.system, ColorSet.of((0, 1), 2))
    assert witness is not None
    sheets = witness.assignment
    # flags covering the same base flag always land on opposite sheets
    proj = result.projection
    for f in range(result.system.flag_count):
        partners = np.flatnonzero(proj == proj[f])
        assert len(partners) == 2
        a, b = partners
        assert sheets[a] != sheets[b]


def test_tetrahedron_edge_double():
    result = i_double(platonic("tetrahedron"), (1,))
    cover = result.system
    assert cover.flag_count == 48
    assert len(cells(cover, 0)) == 4
    assert len(cells(cover, 1)) == 12
    assert len(cells(cover, 2)) == 4
    assert all(f.degree == 6 for f in cells(cover, 2))
    assert all(v.degree == 6 for v in cells(cover, 0))
    signature = surface_signature(cover)
    assert signature.orientable and signature.genus == 3


def test_shift_rule():
    tetra = platonic("tetrahedron")
    left = i_double(tetra, (0, 2)).system
    right = i_double(tetra, (1,)).system
    assert is_isomorphic(left, right) is not None


def test_shift_rule_exhaustive_on_small_maps():
    for system in (polygon_gluing("aa"), polygon_gluing("abAB")):
        group = coloring_group(system)
        for shift in group.members:
            for mask in range(8):
                member = ColorSet(2, mask)
                left = i_double(system, member).system
                right = i_double(system, member ^ shift).system
                assert is_isomorphic(left, right) is not None


def test_group_growth_law():
    for system in POOL():
        group = coloring_group(system)
        for mask in range(8):
            grown = coloring_group(i_double(system, ColorSet(2, mask)).system)
            want = subgroup_closure(2, list(group.masks) + [mask])
            assert grown.masks == want.masks


def test_saturation():
    for system in POOL()[:5]:
        grown = system
        for i in (2, 1, 0):
            grown = i_double(grown, (i,)).system
        assert len(coloring_group(grown).masks) == 8


def test_sherk_double_counts():
    for m, n in ((2, 2), (2, 3), (3, 3)):
        base = tri_torus(m, n)
        d = m * n
        cover = sherk_double(base)
        assert len(cells(cover, 0)) == 2 * d
        assert len(cells(cover, 1)) == 6 * d
        assert len(cells(cover, 2)) == 2 * d
        assert all(f.degree == 6 for f in cells(cover, 2))
        signature = surface_signature(cover)
        assert signature.orientable
        assert signature.euler_characteristic == -2 * d


def test_sherk_rejects_vertex_bipartite():
    with pytest.raises(VertexBipartite):
        sherk_double(platonic("cube"))


def test_sherk_rejects_higher_rank():
    with pytest.raises(RankNotTwo):
        sherk_double(cube_maniplex(4))


def test_quotient_round_trip():
    for system in POOL():
        group = coloring_group(system)
        for mask in (1, 2, 4, 7):
            member = ColorSet(2, mask)
            if member in group:
                continue
            result = i_double(system, member)
            swap = np.arange(result.system.flag_count) ^ 1
            base, projection = quotient(result.system, swap)
            assert is_isomorphic(base, system) is not None
            ok, sheets = check_projection(result.system, base, projection)
            assert ok and sheets == 2


def test_quotient_rejects_non_deck():
    tetra = platonic("tetrahedron")
    with pytest.raises(NotDeck):
        quotient(tetra, np.roll(np.arange(24), 1))


def test_quotient_rejects_non_involution():
    tetra = platonic("tetrahedron")
    identity = np.arange(24)
    deck = next(d for d in deck_transformations(tetra)
                if (d[d] != identity).any())
    with pytest.raises(NotInvolution):
        quotient(tetra, deck)


def test_quotient_rejects_fixed_points():
    tetra = platonic("tetrahedron")
    with pytest.raises(HasFixedPoint):
        quotient(tetra, np.arange(24))


def test_quotient_rejects_connection_collision():
    system = cycle_map(3)
    with pytest.raises(ConnectionCollision):
        quotient(system, np.array(system.connections[2]))


def test_quotient_rejects_bad_shape():
    with pytest.raises(BadParameters):
        quotient(platonic("tetrahedron"), np.arange(10))


@pytest.mark.parametrize("entry", [48, 999, -1, 10**30])
def test_quotient_rejects_entries_out_of_range(entry):
    cover = i_double(platonic("tetrahedron"), (1,)).system
    swap = [f ^ 1 for f in range(48)]
    swap[3] = entry
    with pytest.raises(BadParameters):
        quotient(cover, swap)


def test_quotient_refuses_entries_that_are_not_integers():
    cover = i_double(platonic("tetrahedron"), (1,)).system
    swap = np.arange(48) ^ 1
    for u in (swap + 0.4, swap + 0.0, swap.astype(str), swap % 2 == 0,
              swap.tolist()[:-1] + [2**63]):
        with pytest.raises(BadParameters, match="deck map entries must be integers in 0..47"):
            quotient(cover, u)


def test_recognize_round_trip():
    for system in POOL():
        group = coloring_group(system)
        for mask in range(1, 8):
            member = ColorSet(2, mask)
            if member in group:
                continue
            cover = i_double(system, member).system
            found = recognize_i_double(cover, member)
            assert found is not None
            deck, base, projection = found
            assert is_isomorphic(base, system) is not None
            ok, sheets = check_projection(cover, base, projection)
            assert ok and sheets == 2
            assert (deck[deck] == np.arange(cover.flag_count)).all()


def test_recognize_needs_colorability():
    tetra = platonic("tetrahedron")
    assert recognize_i_double(tetra, (1,)) is None


def test_recognize_rejects_regular_sphere_map():
    # the tetrahedron is fully-colorable only by the empty set; it is not
    # a double of anything by the full set
    assert recognize_i_double(platonic("tetrahedron"), (0, 1, 2)) is None


def test_minimality_of_the_double():
    rng = np.random.default_rng(23)
    for system in POOL():
        group = coloring_group(system)
        outside = [ColorSet(2, m) for m in range(8)
                   if ColorSet(2, m) not in group]
        if not outside:
            continue
        member = outside[int(rng.integers(len(outside)))]
        double = i_double(system, member)
        again = i_double(double.system, ColorSet(2, int(rng.integers(8))))
        composite = double.projection[again.projection]
        witness = find_coloring(again.system, member)
        assert witness is not None
        bits = witness.assignment.astype(np.intp)
        ok = any(
            check_projection(again.system, double.system,
                             2 * composite + sheet)[0]
            for sheet in (bits, 1 - bits))
        assert ok


def test_double_works_at_higher_rank():
    maniplex = cube_maniplex(4)
    group = coloring_group(maniplex)
    member = ColorSet.of((1,), 3)
    assert member not in group
    result = i_double(maniplex, member)
    assert not result.split
    assert result.system.flag_count == 2 * maniplex.flag_count
    grown = coloring_group(result.system)
    assert grown.masks == subgroup_closure(
        3, list(group.masks) + [member.mask]).masks


def test_wrong_rank_color_set_is_a_rank_mismatch():
    cube = platonic("cube")
    wrong = ColorSet.of((0,), 3)
    with pytest.raises(RankMismatch):
        i_double(cube, wrong)
    with pytest.raises(RankMismatch):
        recognize_i_double(i_double(cube, (0, 1, 2)).system, wrong)
