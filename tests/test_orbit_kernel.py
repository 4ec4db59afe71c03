"""The orbit kernel against the pure-Python reference in orbit_reference.

Maps: the default corpus, every I-double of every corpus map, and a
seeded random relabeling of each corpus map.  Every public function
built on the kernel must agree with its reference body exactly.
"""

import math

import numpy as np
import pytest

import orbit_reference as ref
from cases import CORPUS, DOUBLES, color_sets, relabeled
from mapforge import (
    ColorSet,
    cell_labels,
    cells,
    coloring_group,
    coloring_group_excluding_cell,
    crosscap_map,
    cube_maniplex,
    direct_pso,
    find_coloring,
    grid_map,
    i_double,
    i_face_bipartite,
    strip_map,
    validate,
)
from mapforge.coloring import PSO_KINDS, _cell_pass, _cell_route, _orthogonal_group
from mapforge.errors import Disconnected
from mapforge.flagsys import _orbits

_rng = np.random.default_rng(20261017)
RELABELED = [(f"{name} relabeled", relabeled(system, _rng.permutation(system.flag_count)))
             for name, system in CORPUS]
MAPS = CORPUS + DOUBLES + RELABELED
RANK2 = [(name, system) for name, system in MAPS if system.rank == 2]


def test_map_families_cover_the_corpus():
    assert len(CORPUS) == 53
    assert len(DOUBLES) == sum(1 << (s.rank + 1) for _, s in CORPUS)


def test_cell_labels_match_reference():
    for name, system in MAPS:
        for omit in range(system.rank + 1):
            labels, count = cell_labels(system, omit)
            want, want_count = ref.cell_labels(system, omit)
            assert count == want_count, name
            assert np.array_equal(labels, want), name


def test_cells_are_buckets_of_labels():
    for name, system in CORPUS + RELABELED:
        for i in range(system.rank + 1):
            labels, count = ref.cell_labels(system, i)
            want = [tuple(np.nonzero(labels == c)[0].tolist()) for c in range(count)]
            assert [c.flags for c in cells(system, i)] == want, name


def test_find_coloring_matches_reference():
    for name, system in MAPS:
        for cs in color_sets(system.rank):
            got = find_coloring(system, cs)
            want = ref.find_coloring(system, cs)
            if want is None:
                assert got is None, (name, str(cs))
            else:
                assert got is not None, (name, str(cs))
                assert got.assignment.tobytes() == want.tobytes(), (name, str(cs))


def test_coloring_group_matches_reference():
    for name, system in MAPS:
        assert coloring_group(system).masks == ref.coloring_group(system).masks, name


def test_coloring_group_excluding_cell_matches_reference():
    for name, system in CORPUS + RELABELED:
        if system.rank != 2:
            continue
        faces = cells(system, 2)
        for face in {faces[0], faces[-1], max(faces, key=lambda c: c.degree)}:
            got = coloring_group_excluding_cell(system, face)
            assert got.masks == ref.coloring_group_excluding_cell(system, face).masks, name


_CUBE5 = cube_maniplex(5)
# rank 4; a sweep of all 28 connected I-doubles takes about 40 s in pure Python
RANK4 = [("cube-maniplex 5", _CUBE5)] + [
    (f"cube-maniplex 5 / {cs}-double", i_double(_CUBE5, cs).system)
    for cs in (ColorSet.of((1,), 4), ColorSet.of((4,), 4), ColorSet.of((0, 2), 4))]


def test_cell_route_matches_reference():
    """At every d, the group orthogonal to the route's cycle basis is the
    group the one-color-set-at-a-time reference finds on the d-cells, and
    the route numbers the cells as cell_labels does."""
    for name, system in MAPS + RANK4:
        for d in range(system.rank + 1):
            labels, relation, bits, basis = _cell_route(system, d)[:4]
            want = ref.cell_route_group(system, d)
            assert _orthogonal_group(system.rank, basis) == want, (name, d)
            assert np.array_equal(labels, cell_labels(system, d)[0]), (name, d)
            assert relation.shape == labels.shape and bits.size == labels.max() + 1


def test_direct_pso_arrows_match_reference_byte_for_byte():
    for name, system in RANK2:
        for kind in PSO_KINDS:
            got = direct_pso(system, kind)
            want = ref.direct_pso(system, kind)
            if want is None:
                assert got is None, (name, kind)
            else:
                assert got.arrows.tobytes() == want.tobytes(), (name, kind)


def test_i_face_bipartite_matches_reference():
    for name, system in MAPS:
        for i in range(system.rank + 1):
            assert i_face_bipartite(system, i) == ref.i_face_bipartite(system, i), (name, i)


def test_i_double_matches_reference():
    for name, system in CORPUS + RELABELED:
        for cs in color_sets(system.rank):
            got = i_double(system, cs)
            want = ref.i_double(system, cs)
            assert got.split == want.split, (name, str(cs))
            assert np.array_equal(got.projection, want.projection), (name, str(cs))
            assert got.system == want.system, (name, str(cs))


def disjoint_union(*systems):
    offsets = np.cumsum([0] + [s.flag_count for s in systems])
    rank = systems[0].rank
    conns = [np.concatenate([s.connections[j] + off for s, off in zip(systems, offsets)])
             for j in range(rank + 1)]
    return int(offsets[-1]), conns


@pytest.mark.parametrize("parts", [2, 3])
def test_validate_counts_components_like_reference(parts):
    rank2 = [system for _, system in CORPUS if system.rank == 2]
    for k in range(0, len(rank2) - parts + 1, parts):
        n, conns = disjoint_union(*rank2[k:k + parts])
        want = ref.component_count(n, conns)
        assert want == parts
        with pytest.raises(Disconnected) as info:
            validate(2, n, conns)
        assert info.value.component_count == want


def _round_bound(n):
    return 2 * math.ceil(math.log2(n)) + 2


@pytest.mark.parametrize("system", [
    grid_map(2, 600, 0),
    crosscap_map(26),
    strip_map(24, range(11), 0),
], ids=["grid 2 600 0", "crosscap 26", "strip 24 0..10 0"])
def test_adversarial_numbering(system):
    """Long thin maps with random flag numbers: exact results, few rounds."""
    rng = np.random.default_rng(7)
    for shuffled in [relabeled(system, rng.permutation(system.flag_count)) for _ in range(2)]:
        n = shuffled.flag_count
        letters = [(None, c) for c in shuffled.connections]
        for subset in ([0, 1, 2], [0, 1], [1, 2], [0, 2]):
            _, _, rounds = _orbits(n, [letters[j] for j in subset])
            assert rounds <= _round_bound(n), (subset, rounds)
        _, _, rounds = _orbits(n, letters, [1, 2, 4])
        assert rounds <= _round_bound(n)
        for omit in range(3):
            labels, _ = cell_labels(shuffled, omit)
            assert np.array_equal(labels, ref.cell_labels(shuffled, omit)[0])
        assert coloring_group(shuffled).masks == ref.coloring_group(shuffled).masks
        for kind in PSO_KINDS:
            got, want = direct_pso(shuffled, kind), ref.direct_pso(shuffled, kind)
            assert (got is None) == (want is None), kind
            if want is not None:
                assert got.arrows.tobytes() == want.tobytes(), kind


def test_star_with_hub_numbered_last_takes_two_rounds():
    """Hooking onto the smallest neighbouring root, not any one, keeps a
    hub from dragging its leaves in one at a time."""
    n = 1000
    leaves = np.arange(n - 1)
    hub = np.full(n - 1, n - 1)
    root, pot, rounds = _orbits(n, [(np.concatenate([leaves, hub]),
                                     np.concatenate([hub, leaves]))], [1])
    assert not root.any()
    assert pot.tolist() == [0] * (n - 1) + [1]
    assert rounds == 2


def test_kernel_potentials_hold_64_bit_masks():
    """Masks up to bit 63 survive hooking and jumping (rank-63 colour sets)."""
    src = np.array([0, 1, 1, 2, 3, 4])
    dst = np.array([1, 0, 2, 1, 4, 3])
    flips = np.array([1 << 63, 1 << 63, 1 << 40, 1 << 40, 7, 7], dtype=np.uint64)
    root, pot, _ = _orbits(5, [(src, dst)], [flips])
    assert root.tolist() == [0, 0, 0, 3, 3]
    assert pot.dtype == np.uint64
    assert pot.tolist() == [0, 1 << 63, (1 << 63) | (1 << 40), 0, 7]


def test_group_orthogonal_to_cycles_at_rank_63():
    from mapforge.coloring import _orthogonal_group

    pair = (1 << 5) | (1 << 9)
    cycles = [1 << j for j in range(64) if j not in (5, 9)] + [pair, pair ^ (1 << 63)]
    assert _orthogonal_group(63, cycles).masks == {0, pair}


# --- the kernel against its previous body ---------------------------------


def _same_orbits(n, edges, flips=None):
    """_orbits and ref.orbits return bit-identical (root, pot, rounds)."""
    root, pot, rounds = _orbits(n, edges, flips)
    want_root, want_pot, want_rounds = ref.orbits(n, edges, flips)
    assert np.array_equal(root, want_root)
    assert rounds == want_rounds
    if want_pot is None:
        assert pot is None
    else:
        assert pot.dtype == want_pot.dtype
        assert np.array_equal(pot, want_pot)


def test_kernel_matches_previous_kernel_on_every_letter_subset():
    for name, system in CORPUS + RELABELED:
        n = system.flag_count
        letters = [(None, c) for c in system.connections]
        for mask in range(1 << (system.rank + 1)):
            subset = [j for j in range(system.rank + 1) if mask >> j & 1]
            _same_orbits(n, [letters[j] for j in subset])
            _same_orbits(n, [letters[j] for j in subset], [1 << j for j in subset])


def test_kernel_matches_previous_kernel_on_cell_graphs():
    """Groups whose src is an array: the second pass of every cell route."""
    for name, system in CORPUS + RELABELED:
        for d in range(system.rank + 1):
            labels, count, relation, _ = _cell_pass(system, d)
            edges = [(labels, labels[system.connections[d]])]
            _same_orbits(count, edges)
            _same_orbits(count, edges, [relation])


def test_kernel_matches_previous_kernel_with_array_flips():
    """Per-edge masks, equal on both directions, on the first group too."""
    rng = np.random.default_rng(18)
    for name, system in CORPUS + RELABELED:
        letters = [(None, c) for c in system.connections]
        flips = []
        for c in system.connections:
            w = rng.integers(0, 1 << 12, system.flag_count).astype(np.uint16)
            flips.append(w ^ w[c])
        _same_orbits(system.flag_count, letters, flips)
        _same_orbits(system.flag_count, letters[::-1], [1] + flips[1:])


def test_kernel_matches_previous_kernel_on_degenerate_input():
    _same_orbits(5, [])
    _same_orbits(5, [], [])
    _same_orbits(1, [])
    _same_orbits(1, [(None, np.array([0]))])
    _same_orbits(1, [(None, np.array([0]))], [1])
    # an involution with fixed points, then a second group
    first = np.array([0, 2, 1, 3, 5, 4])
    second = np.array([1, 0, 2, 4, 3, 5])
    _same_orbits(6, [(None, first), (None, second)])
    _same_orbits(6, [(None, first), (None, second)], [3, 4])


def test_kernel_matches_previous_kernel_on_unions_of_connected_blocks():
    """Several connected blocks never reach one root, so no sweep stops
    the pass early; the blocks are stacked in both orders."""
    for rank in (2, 3):
        systems = [system for _, system in CORPUS if system.rank == rank][:5]
        for blocks in (systems, systems[::-1]):
            starts = np.cumsum([0] + [s.flag_count for s in blocks])
            letters = [(None, np.concatenate([c + a for c, a in zip(group, starts)]))
                       for group in zip(*(s.connections for s in blocks))]
            _same_orbits(int(starts[-1]), letters)
            _same_orbits(int(starts[-1]), letters, [1 << j for j in range(rank + 1)])
