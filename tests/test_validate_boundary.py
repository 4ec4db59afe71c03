"""Derived systems are assembled, not validated, and still meet every axiom.

dual, medial, the edge insertions and the I-double build their outputs
through flagsys._assemble, and so do opposite and petrie up to rank 3,
because each of them provably keeps the axioms.  The oracle here runs
the full validate over every such output on every corpus map and every
I-double of it.  connected_sum and i_double keep one connectivity pass,
and opposite and petrie above rank 3 keep validate: the guard tests show
the failures those checks still catch.
"""

import numpy as np
import pytest

import mapforge.construct as construct
import mapforge.doubles as doubles
import mapforge.flagsys as flagsys
import mapforge.operators as operators
from cases import CORPUS, color_sets
from mapforge import (
    MAKE_GOALS,
    RotationSystem,
    connected_sum,
    double_edge,
    dual,
    edge_of,
    from_rotation_system,
    i_double,
    make_property,
    medial,
    opposite,
    petrie,
    subdivide_edge,
    triple_edge,
    validate,
    write_flag_file,
)
from mapforge.cli import main
from mapforge.errors import (
    FaceSelfAdjacent,
    FaceSizeMismatch,
    LoopEdge,
    NotDisjoint,
    ValidationError,
)


def assert_valid(system, label):
    """system equals validate's result on its own arrays, which are frozen intp."""
    for conn in system.connections:
        assert conn.dtype == np.intp and not conn.flags.writeable, label
    assert validate(system.rank, system.flag_count, system.connections) == system, label


def derived(system):
    """Every assembled output of one system, as (label, output) pairs."""
    yield "dual", dual(system)
    if system.rank >= 2:
        yield "opposite", opposite(system)
        yield "petrie", petrie(system)
    for cs in color_sets(system.rank):
        yield f"{cs}-double", i_double(system, cs).system
    if system.rank != 2:
        return
    yield "medial", medial(system)
    for goal in MAKE_GOALS:
        yield goal, make_property(system, goal)
    for flag in range(0, system.flag_count, 9):
        edge = edge_of(system, flag)
        yield f"subdivide at {flag}", subdivide_edge(system, edge)
        yield f"double at {flag}", double_edge(system, edge)
        try:
            yield f"triple at {flag}", triple_edge(system, edge)
        except LoopEdge:
            pass
    for flag_b in (0, system.flag_count // 2, system.flag_count - 1):
        try:
            yield f"sum with itself at 0, {flag_b}", connected_sum(system, system, 0, flag_b)
        except (FaceSelfAdjacent, FaceSizeMismatch):
            pass


@pytest.mark.parametrize("name,system", CORPUS, ids=[name for name, _ in CORPUS])
def test_every_derived_output_passes_validate(name, system):
    """The map and each of its I-doubles, through every assembling construction."""
    bases = [system] + [d.system for d in (i_double(system, cs) for cs in color_sets(system.rank))
                        if not d.split]
    count = 0
    for base in bases:
        for label, out in derived(base):
            assert_valid(out, f"{label} of a {base.flag_count}-flag system from {name}")
            count += 1
    assert count >= len(bases) * 2


def test_operators_and_surgeries_make_no_validate_call(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[:2])
        return validate(*args)

    for module in (flagsys, operators, construct, doubles):
        monkeypatch.setattr(module, "validate", counting)
    for _, system in CORPUS:
        for _, out in derived(system):
            assert out.flag_count >= system.flag_count // 2
    assert calls == []


def figure_eight():
    """One vertex and two loops on the sphere: the two loop faces have
    degree 1 and the outer face, of degree 2, meets itself at the vertex."""
    return from_rotation_system(RotationSystem(((0, 1, 2, 3),), ((0, 1, 1), (2, 3, 1))))


def _outer_face(system):
    labels, _ = flagsys.cell_labels(system, 2)
    return np.flatnonzero(labels == np.argmax(np.bincount(labels)))


def test_connected_sum_still_refuses_a_disconnected_result():
    """Removing a face that passes its vertex twice leaves two pieces;
    sewing two such faces can keep them apart, so the sum is not a theorem
    and connected_sum keeps its connectivity pass.  Both inputs are valid,
    so the refusal is a precondition error, not a ValidationError."""
    system = figure_eight()
    assert validate(2, system.flag_count, system.connections) == system
    outer = _outer_face(system)
    assert outer.size == 4
    for flag_a in outer.tolist():
        for flag_b in outer.tolist():
            with pytest.raises(FaceSelfAdjacent, match="at a vertex, so the sum has 2 components"):
                connected_sum(system, system, flag_a, flag_b)
    assert not issubclass(FaceSelfAdjacent, ValidationError)


def test_sum_of_faces_meeting_themselves_at_a_vertex_exits_1(tmp_path, capsys):
    path = tmp_path / "eight.flags"
    system = figure_eight()
    write_flag_file(system, str(path))
    flag = int(_outer_face(system)[0])
    assert main(["sum", str(path), str(path), "--flags", f"{flag},{flag}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: a chosen face meets itself at a vertex, so the sum has 2 components;"
        " cannot splice there"]


def cayley_z2_4():
    """The 16-flag Cayley system of Z2^4 on e0, e1, e2, e3 and r4 = e0 + e2.

    It is a valid rank-4 system, but r0·r2 = r4, so opposite makes r2
    equal r4, and petrie's r4·r2 = r0 makes r2 equal r0."""
    ids = np.arange(16)
    return validate(4, 16, [ids ^ g for g in (1, 2, 4, 8, 5)])


@pytest.mark.parametrize("op,pair", [(opposite, (2, 4)), (petrie, (0, 2))])
def test_rank_4_opposite_and_petrie_still_validate(op, pair):
    with pytest.raises(NotDisjoint) as info:
        op(cayley_z2_4())
    assert (info.value.i, info.value.j) == pair


@pytest.mark.parametrize("verb,pair", [("opp", "r2 and r4"), ("petrie", "r0 and r2")])
def test_rank_4_opposite_and_petrie_exit_2(verb, pair, tmp_path, capsys):
    path = tmp_path / "z2-4.flags"
    write_flag_file(cayley_z2_4(), str(path))
    assert main([verb, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: connections {pair} agree at flag 0"]
