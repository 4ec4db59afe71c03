"""Batched edge insertion and connected_sum against surgery_reference.

Maps: every rank-2 map of the default corpus (surgeried variants
included) and a seeded random relabeling of each.  make_property must
produce byte-identical systems to the old one-surgery-at-a-time loop,
and one k-edge insertion must equal k single-edge insertions.  The
connected sum of every ordered pair of corpus maps, at the first and
last flag of each, must equal the reference or raise the same error.
"""

import numpy as np
import pytest

import mapforge.construct as construct
import surgery_reference as ref
from cases import CORPUS as _CORPUS, relabeled
from mapforge import (
    MAKE_GOALS,
    cells,
    connected_sum,
    double_edge,
    edge_of,
    make_property,
    subdivide_edge,
    tri_torus,
    validate,
)
from mapforge.construct import _edge_flags, _insert_edges
from mapforge.errors import FaceSelfAdjacent, FaceSizeMismatch


def same_bytes(a, b):
    return a.rank == b.rank and [c.dtype for c in a.connections] == \
        [c.dtype for c in b.connections] and \
        [c.tobytes() for c in a.connections] == [c.tobytes() for c in b.connections]


CORPUS = [(name, system) for name, system in _CORPUS if system.rank == 2]
_rng = np.random.default_rng(20261018)
MAPS = CORPUS + [(f"{name} relabeled", relabeled(system, _rng.permutation(system.flag_count)))
                 for name, system in CORPUS]
IDS = [name for name, _ in MAPS]


def test_map_families_cover_the_corpus():
    assert len(CORPUS) == 52
    assert sum(name.endswith(" +3s") for name, _ in CORPUS) == 26


@pytest.mark.parametrize("goal", MAKE_GOALS)
def test_make_property_matches_the_per_edge_loop(goal):
    most = 0
    for name, system in MAPS:
        want, surgeries = ref.make_property_counted(system, goal)
        got = make_property(system, goal)
        assert same_bytes(got, want), f"{goal} on {name}"
        if want is system:
            assert got is system, f"{goal} on {name}"
        most = max(most, surgeries)
    assert most > 1


@pytest.mark.parametrize("name,system", MAPS, ids=IDS)
def test_single_edge_surgeries_match_the_reference(name, system):
    for flag in range(0, system.flag_count, 7):
        edge = edge_of(system, flag)
        assert same_bytes(subdivide_edge(system, edge), ref.subdivide_edge(system, edge))
        assert same_bytes(double_edge(system, edge), ref.double_edge(system, edge))


@pytest.mark.parametrize("name,system", MAPS, ids=IDS)
def test_batched_insertion_equals_sequential_insertions(name, system):
    rng = np.random.default_rng(system.flag_count)
    edges = _edge_flags(system)
    chosen = rng.permutation(edges)[: max(1, edges.size // 2)]
    for letter, op in ((0, ref.subdivide_edge), (2, ref.double_edge)):
        one_by_one = by_reference = system
        for f in chosen.tolist():
            one_by_one = _insert_edges(one_by_one, [f], letter)
            by_reference = op(by_reference, edge_of(by_reference, f))
        batched = _insert_edges(system, chosen, letter)
        assert same_bytes(batched, one_by_one)
        assert same_bytes(batched, by_reference)


def test_edge_flags_are_the_smallest_flag_of_each_edge():
    for _, system in MAPS:
        want = [e.flags[0] for e in cells(system, 1)]
        assert _edge_flags(system).tolist() == want


def _sum_or_error(op, first, second, flag_a, flag_b):
    try:
        return op(first, second, flag_a, flag_b)
    except Exception as exc:
        return type(exc)


def test_connected_sum_matches_the_reference():
    sums, errors = 0, set()
    for first in (system for _, system in CORPUS):
        for second in (system for _, system in CORPUS):
            for flag_a in (0, first.flag_count - 1):
                for flag_b in (0, second.flag_count - 1):
                    want = _sum_or_error(ref.connected_sum, first, second, flag_a, flag_b)
                    got = _sum_or_error(connected_sum, first, second, flag_a, flag_b)
                    if isinstance(want, type):
                        assert got is want
                        errors.add(want)
                    else:
                        assert not isinstance(got, type) and same_bytes(got, want)
                        sums += 1
    assert sums == 989
    assert errors == {FaceSelfAdjacent, FaceSizeMismatch}


def test_make_property_assembles_without_validate(monkeypatch):
    """A batched insertion provably keeps the axioms, so its output is
    assembled, not validated; it must still pass validate."""
    system = tri_torus(16, 16)
    calls = []

    def counting_validate(*args):
        calls.append(args[1])
        return validate(*args)

    monkeypatch.setattr(construct, "validate", counting_validate)
    adjusted = make_property(system, "vertex_bipartite")
    assert adjusted.flag_count > system.flag_count
    assert calls == []
    assert validate(2, adjusted.flag_count, adjusted.connections) == adjusted
