"""The cell route behind direct_pso, i_face_bipartite and make_property.

pso-oracle compares the route's group with coloring_group at every rank
and every dimension, so a route that drops either pass's constraints
must fail it; the route must also stay independent of the parity pass.
"""

import numpy as np
import pytest

from mapforge import (
    CorpusSpec,
    cube_maniplex,
    direct_pso,
    i_face_bipartite,
    invoke_generator,
    make_property,
    platonic,
    run_verify,
    tri_torus,
    validate,
)
from mapforge import coloring, corpus
from mapforge.construct import MAKE_GOALS
from mapforge.flagsys import _cycle_basis, _kept, _orbits, _parity, _root_labels


def _twin(system):
    """An equal system sharing no arrays and no caches with `system`."""
    return validate(system.rank, system.flag_count,
                    [conn.copy() for conn in system.connections])


def _pso_oracle(system):
    """The pso-oracle check's failure message, or None when it passes."""
    return corpus.PROPERTY_CHECKS["pso-oracle"](system, np.random.default_rng(0))


def _mutant_route(first_basis: bool, dim_bit: bool):
    """coloring._cell_route, uncached, with one of its parts left out."""
    def route(system, dim):
        letters = [(None, c) for j, c in enumerate(system.connections) if j != dim]
        flips = [1 << j for j in range(system.rank + 1) if j != dim]
        root, ref, _ = _orbits(system.flag_count, letters, flips)
        basis = _cycle_basis(ref, letters, flips)
        ref = ref.astype(np.min_scalar_type(1 << system.rank), copy=False)
        labels, count = _root_labels(root)
        cross = system.connections[dim]
        edges = [(labels, labels[cross])]
        relations = [(dim_bit << dim) ^ ref ^ ref[cross]]
        _, bits, _ = _orbits(count, edges, relations)
        basis = (basis if first_basis else []) + _cycle_basis(bits, edges, relations)
        return labels, relations[0], bits, basis
    return route


MUTANTS = {
    "first-pass basis dropped": _mutant_route(first_basis=False, dim_bit=True),
    "dim bit dropped from the relation": _mutant_route(first_basis=True, dim_bit=False),
}
SYSTEMS = {
    "tri-torus 1 1": tri_torus(1, 1),  # rank 2, with triangles
    "cube-maniplex 4": cube_maniplex(4),  # rank 3
}


@pytest.mark.parametrize("system_name", SYSTEMS)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_pso_oracle_catches_a_broken_route(monkeypatch, mutant, system_name):
    system = SYSTEMS[system_name]
    assert _pso_oracle(_twin(system)) is None
    # the unmutated pieces of the mutant rebuild the real route
    whole = _mutant_route(first_basis=True, dim_bit=True)
    for d in range(system.rank + 1):
        want = coloring._cell_route(system, d)
        got = whole(system, d)
        assert (got[1] == want[1]).all() and (got[2] == want[2]).all() and got[3] == want[3]
    monkeypatch.setattr(coloring, "_cell_route", MUTANTS[mutant])
    monkeypatch.setattr(corpus, "_cell_route", MUTANTS[mutant])
    assert _pso_oracle(_twin(system)) is not None


@pytest.mark.parametrize("kind,name", [("full", "cube"), ("face", "octahedron"),
                                       ("vertex", "cube"), ("edge", "polygon abAB")])
def test_pso_oracle_catches_a_flipped_arrow(monkeypatch, kind, name):
    """One flipped arrow keeps the arrow count and the existence of arrows,
    but its cell's flags no longer make a coloring with their neighbours."""
    system = invoke_generator(name)
    assert _pso_oracle(system) is None
    real = corpus.direct_pso

    def flipped(system, wanted):
        witness = real(system, wanted)
        if wanted != kind:
            return witness
        arrows = witness.arrows.copy()
        arrows[0] ^= 1
        return coloring.ArrowAssignment(wanted, witness.cell_dimension, arrows)

    monkeypatch.setattr(corpus, "direct_pso", flipped)
    detail = _pso_oracle(system)
    assert detail is not None and detail.startswith(f"{kind}: arrows and cell sides"), detail


def test_route_makes_room_for_the_top_letter():
    """At rank 8 the masks of letters 0..7 fit a uint8 and 1 << 8 does not.
    Flags are the bit vectors of length 9, and r_j flips bit j."""
    ids = np.arange(1 << 9)
    system = validate(8, ids.size, [ids ^ (1 << j) for j in range(9)])
    group = coloring.coloring_group(system)
    for d in range(9):
        assert coloring._orthogonal_group(8, coloring._cell_route(system, d)[3]) == group, d


def test_verify_passes_at_ranks_3_and_4():
    spec = CorpusSpec(generators=("cube-maniplex 4", "cube-maniplex 5"))
    lines = []
    assert run_verify(spec, emit=lines.append)
    assert lines[-1] == "maps=2 cells=36 failures=0"


def test_route_users_never_read_the_parity_pass():
    """direct_pso, i_face_bipartite and make_property stay a second route
    to find_coloring and coloring_group, and read neither's kept result."""
    system = platonic("cube")

    def parity_kept(fresh):
        return _kept(fresh, _parity) is not None or _kept(fresh, coloring.coloring_group) is not None

    for kind in coloring.PSO_KINDS:
        fresh = _twin(system)
        direct_pso(fresh, kind)
        assert not parity_kept(fresh), kind
    for i in range(3):
        fresh = _twin(system)
        i_face_bipartite(fresh, i)
        assert not parity_kept(fresh), i
    for goal in MAKE_GOALS:
        fresh = _twin(system)
        make_property(fresh, goal)
        assert not parity_kept(fresh), goal
        # make_property reads pass one of the route only
        assert all(_kept(fresh, coloring._cell_route, d) is None for d in range(3)), goal
