"""validate's connectivity pass is the first kernel pass its verb reads.

info, tgroup and color parse their file with the parity pass, whose
potentials the store keeps as flagsys._pot; pso --kind K on a rank-2 file
parses it with the cell route of K's cells, kept as coloring._cell_route.
Every other caller keeps the plain pass and seeds nothing.  Outputs,
errors and exit codes are those of a plain pass.
"""

import functools
import io
import sys

import numpy as np
import pytest

import mapforge.cli as cli
import mapforge.coloring as coloring
import mapforge.flagsys as flagsys
from cases import same_result
from mapforge import cube_maniplex, parse_flag_text, platonic, tri_torus, write_flag_text
from mapforge.coloring import PSO_KINDS
from mapforge.errors import ValidationError

READERS = [["info", "-"], ["tgroup", "-"], ["color", "-", "-I", "0"]] + [
    ["pso", "-", "--kind", kind] for kind in PSO_KINDS]
VERBS = [["validate", "-"]] + READERS

TEXTS = {
    "tri-torus 60 60": write_flag_text(tri_torus(60, 60)),
    "cube": write_flag_text(platonic("cube")),
    "cube-maniplex 4": write_flag_text(cube_maniplex(4)),
}

# _orbits calls per verb on a parsed connected rank-2 map: validate's pass,
# then what the verb reads that validate did not keep
PASSES = {"validate": 1, "info": 3, "tgroup": 1, "color": 1, "pso": 2, "double": 2, "dual": 1}


@pytest.fixture
def run(monkeypatch, capsys):
    def _run(argv, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err
    return _run


def _union_text(*systems):
    """A flag file of the disjoint union of systems of one rank."""
    starts = np.cumsum([0] + [s.flag_count for s in systems])
    conns = [np.concatenate([c + a for c, a in zip(group, starts)])
             for group in zip(*(s.connections for s in systems))]
    return write_flag_text(flagsys._assemble(systems[0].rank, conns))


@pytest.mark.parametrize("name", ["tri-torus 60 60", "cube"])
def test_each_verb_makes_its_pinned_kernel_passes(run, monkeypatch, name):
    calls = []
    kernel = flagsys._orbits

    def counting(n, edges, flips=None):
        calls.append(n)
        return kernel(n, edges, flips)

    for module in (flagsys, coloring):
        monkeypatch.setattr(module, "_orbits", counting)
    for argv in VERBS + [["double", "-", "-I", "0"], ["dual", "-"]]:
        calls.clear()
        code, _, err = run(argv, TEXTS[name])
        assert code in (0, 1) and "error" not in err, argv
        assert len(calls) == PASSES[argv[0]], argv


@pytest.mark.parametrize("systems", [
    (platonic("cube"), platonic("cube")),
    (platonic("cube"), platonic("tetrahedron"), platonic("octahedron")),
    (cube_maniplex(4), cube_maniplex(4)),
], ids=["rank 2, two parts", "rank 2, three parts", "rank 3, two parts"])
def test_a_disconnected_file_fails_alike_through_every_verb(run, systems):
    text = _union_text(*systems)
    want = f"error: flag graph is disconnected ({len(systems)} components)\n"
    for argv in VERBS:
        assert run(argv, text) == (2, "", want), argv


def _damaged():
    """A cube file with a fixed point, and one whose r1 and r2 rows are
    swapped, so that r0 and the new r2 do not commute."""
    rank, flags, r0, r1, r2 = TEXTS["cube"].splitlines()
    images = r2.split()
    fixed = " ".join(images[:1] + ["0"] + images[2:])
    return {
        "fixed point": "\n".join([rank, flags, r0, r1, fixed, ""]),
        "non-commuting": "\n".join([rank, flags, r0, "r1:" + r2[3:], "r2:" + r1[3:], ""]),
    }


@pytest.mark.parametrize("what", list(_damaged()))
def test_a_damaged_file_gives_the_same_first_error_through_every_verb(run, what):
    text = _damaged()[what]
    with pytest.raises(ValidationError) as caught:
        parse_flag_text(text)
    for argv in VERBS:
        assert run(argv, text) == (2, "", f"error: {caught.value}\n"), argv


@pytest.mark.parametrize("text", [
    "rank 1\nflags 4\nr0: 1 0 3 2\nr1: 3 2 1 0\n", TEXTS["cube-maniplex 4"]], ids=["rank 1", "rank 3"])
def test_pso_at_another_rank_exits_1_without_a_traceback(run, text):
    for kind in PSO_KINDS:
        code, out, err = run(["pso", "-", "--kind", kind], text)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("name", list(TEXTS))
def test_seeded_passes_equal_their_readers_own(name):
    text = TEXTS[name]
    assert flagsys._kept(parse_flag_text(text), flagsys._pot) is None
    system = parse_flag_text(text, _first=flagsys._parity_roots)
    assert same_result(flagsys._kept(system, flagsys._pot), flagsys._pot.__wrapped__(system))
    for kind, (dim, *_) in PSO_KINDS.items():
        system = parse_flag_text(text, _first=functools.partial(coloring._pso_roots, kind=kind))
        kept = flagsys._kept(system, coloring._cell_route, dim)
        if system.rank != 2:
            assert kept is None
            continue
        assert same_result(kept, coloring._cell_route.__wrapped__(system, dim))
