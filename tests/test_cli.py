import argparse
import importlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cli_reference
import mapforge.cli as cli
import mapforge.coloring as coloring
import mapforge.flagsys as flagsys
from cases import CORPUS, color_sets
from mapforge import (
    PROPERTY_CHECKS,
    CorpusSpec,
    build_corpus,
    cells,
    coloring_group,
    cube_maniplex,
    direct_pso,
    euler_characteristic,
    find_coloring,
    i_double,
    is_isomorphic,
    parse_flag_text,
    platonic,
    polygon_gluing,
    surface_signature,
    tri_torus,
    validate,
    write_flag_file,
    write_flag_text,
)
from mapforge.cli import main
from mapforge.coloring import PSO_KINDS


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err
    return _run


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cube.flags"
    write_flag_file(platonic("cube"), str(path))
    return str(path)


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.flags"
    write_flag_file(platonic("tetrahedron"), str(path))
    return str(path)


def test_validate_ok(run, cube_file):
    code, out, _ = run("validate", cube_file)
    assert code == 0
    assert out == "ok=true\nrank=2\nflags=48\n"


def test_validate_json(run, cube_file):
    code, out, _ = run("validate", cube_file, "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "rank": 2, "flags": 48}


def test_validate_rejects_broken_file(run, tmp_path):
    bad = tmp_path / "bad.flags"
    bad.write_text("rank 2\nflags 4\nr0: 1 0 3 2\nr1: 3 2 1 0\nr2: 0 1 2 3\n")
    code, out, err = run("validate", str(bad))
    assert code == 2
    assert err.startswith("error:")

    ungrammatical = tmp_path / "junk.flags"
    ungrammatical.write_text("not a flag file\n")
    code, _, err = run("validate", str(ungrammatical))
    assert code == 2
    assert "line 1" in err


def test_validate_missing_file(run):
    code, _, err = run("validate", "/no/such/file.flags")
    assert code == 2
    assert "cannot read" in err


def test_info_cube(run, cube_file):
    code, out, _ = run("info", cube_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank=2"
    assert lines[1] == "flags=48"
    assert lines[2] == "V=8 E=12 F=6 chi=2 surface=o0 T=e,0,12,012"
    assert lines[3] == "vertex_degrees=3:8"
    assert lines[4] == "face_degrees=4:6"


def test_info_genus_two(run, tmp_path):
    path = tmp_path / "g2.flags"
    write_flag_file(polygon_gluing("abABcdCD"), str(path))
    code, out, _ = run("info", str(path))
    assert code == 0
    assert "V=1 E=4 F=1 chi=-2 surface=o2 T=e,1,02,012" in out.splitlines()


def test_info_json(run, cube_file):
    code, out, _ = run("info", cube_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["V"] == 8 and data["chi"] == 2
    assert data["surface"] == "o0"
    assert data["T"] == "e,0,12,012"


def test_info_higher_rank(run, tmp_path):
    path = tmp_path / "c4.flags"
    code = main(["gen", "cube-maniplex", "4", "-o", str(path)])
    assert code == 0
    code, out, _ = run("info", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "rank=3" in lines
    assert "flags=384" in lines
    assert "cells0=16" in lines
    assert "T=e,0,123,0123" in lines


def _expected_degrees(system, i):
    degrees = sorted(c.degree for c in cells(system, i))
    return ",".join(f"{d}:{degrees.count(d)}" for d in sorted(set(degrees)))


@pytest.mark.parametrize("name,system", build_corpus(CorpusSpec()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_info_on_the_default_corpus(run, tmp_path, name, system):
    """Counts and degree summaries from the public cells(), chi from
    euler_characteristic: surgeried maps carry bigons and degree-2
    vertices, and cube-maniplex 4 is rank 3."""
    path = tmp_path / "map.flags"
    write_flag_file(system, str(path))
    counts = [len(cells(system, i)) for i in range(system.rank + 1)]
    group = str(coloring_group(system))
    code, out, _ = run("info", str(path))
    assert code == 0
    if system.rank != 2:
        assert out.splitlines() == (
            [f"rank={system.rank}", f"flags={system.flag_count}"]
            + [f"cells{i}={c}" for i, c in enumerate(counts)] + [f"T={group}"])
        code, out, _ = run("info", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"rank": system.rank, "flags": system.flag_count,
                                   **{f"cells{i}": c for i, c in enumerate(counts)},
                                   "T": group}
        return
    chi = euler_characteristic(system)
    surface = str(surface_signature(system))
    vertex_degrees = _expected_degrees(system, 0)
    face_degrees = _expected_degrees(system, 2)
    assert out.splitlines() == [
        "rank=2", f"flags={system.flag_count}",
        f"V={counts[0]} E={counts[1]} F={counts[2]} chi={chi} surface={surface} T={group}",
        f"vertex_degrees={vertex_degrees}", f"face_degrees={face_degrees}"]
    code, out, _ = run("info", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {
        "rank": 2, "flags": system.flag_count,
        "V": counts[0], "E": counts[1], "F": counts[2],
        "chi": chi, "surface": surface, "T": group,
        "vertex_degrees": vertex_degrees, "face_degrees": face_degrees}


def test_info_makes_one_parity_pass_and_one_label_pass_per_dimension(
        run, cube_file, monkeypatch):
    """surface_signature reuses info's labels and coloring_group's parity
    pass, and edges are counted as flags // 4: 2 label passes plus 1
    parity pass on a parsed rank-2 map."""
    system = platonic("cube")
    monkeypatch.setattr(cli, "_read_system", lambda path, first=None: system)
    calls = []
    kernel = flagsys._orbits

    def counting(n, edges, flips=None):
        calls.append(n)
        return kernel(n, edges, flips)

    for module in (flagsys, coloring):
        monkeypatch.setattr(module, "_orbits", counting)
    code, out, _ = run("info", cube_file)
    assert code == 0
    assert "V=8 E=12 F=6 chi=2 surface=o0 T=e,0,12,012" in out
    assert len(calls) <= 3


# info lines of a few corpus maps, recorded with one label pass per
# dimension, so they also check the rank-2 edge count flags // 4
INFO_PINS = {
    "polygon aa": ["rank=2", "flags=4", "V=1 E=1 F=1 chi=1 surface=n1 T=e,01,02,12",
                   "vertex_degrees=2:1", "face_degrees=2:1"],
    "crosscap 3 +3s": ["rank=2", "flags=24", "V=3 E=6 F=2 chi=-1 surface=n3 T=e",
                       "vertex_degrees=2:2,8:1", "face_degrees=3:1,9:1"],
    "strip 2 1 0 +3s": ["rank=2", "flags=24", "V=4 E=6 F=1 chi=-1 surface=n3 T=e",
                        "vertex_degrees=2:3,6:1", "face_degrees=12:1"],
    "grid 5 7 3 +3s": ["rank=2", "flags=296", "V=34 E=74 F=37 chi=-3 surface=n5 T=e",
                       "vertex_degrees=2:2,4:29,6:2,16:1", "face_degrees=2:2,4:31,5:4"],
    "tri-torus 2 3 +3s": ["rank=2", "flags=92", "V=6 E=23 F=17 chi=0 surface=o1 T=e,012",
                          "vertex_degrees=6:2,7:1,8:1,9:1,10:1", "face_degrees=2:5,3:12"],
    "icosahedron +3s": ["rank=2", "flags=136", "V=13 E=34 F=23 chi=2 surface=o0 T=e,012",
                        "vertex_degrees=2:1,5:9,6:1,7:1,8:1", "face_degrees=2:3,3:18,4:2"],
    "polygon abABcdCD +3s": ["rank=2", "flags=28", "V=3 E=7 F=2 chi=-2 surface=o2 T=e,012",
                             "vertex_degrees=2:2,10:1", "face_degrees=2:1,12:1"],
    "cube-maniplex 4": ["rank=3", "flags=384", "cells0=16", "cells1=32", "cells2=24",
                        "cells3=8", "T=e,0,123,0123"],
}


@pytest.mark.parametrize("name", INFO_PINS)
def test_info_lines_of_corpus_maps_are_pinned(run, tmp_path, name):
    path = tmp_path / "map.flags"
    write_flag_file(dict(CORPUS)[name], str(path))
    code, out, _ = run("info", str(path))
    assert code == 0
    assert out.splitlines() == INFO_PINS[name]


def test_info_reads_stdin(run, monkeypatch):
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(write_flag_text(platonic("cube"))))
    code, out, _ = run("info", "-")
    assert code == 0
    assert "V=8 E=12 F=6" in out


def test_color_found(run, cube_file):
    code, out, _ = run("color", cube_file, "-I", "0")
    assert code == 0
    line = out.strip()
    assert len(line) == 48 and set(line) <= {"0", "1"}


def test_color_absent(run, tetra_file):
    code, out, _ = run("color", tetra_file, "-I", "1")
    assert code == 1
    assert out == "colorable=false\n"


def test_color_json(run, cube_file):
    code, out, _ = run("color", cube_file, "-I", "12", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["colorable"] is True
    assert len(data["assignment"]) == 48


def test_tgroup(run, cube_file):
    code, out, _ = run("tgroup", cube_file)
    assert code == 0
    assert out == "T=e,0,12,012\nsize=4\n"


def test_pso(run, cube_file):
    code, out, _ = run("pso", cube_file, "--kind", "full")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pseudo_orientable=true"
    arrows = lines[3].removeprefix("arrows=")
    assert len(arrows) == 6 and set(arrows) <= {"+", "-"}

    code, out, _ = run("pso", cube_file, "--kind", "face")
    assert code == 1
    assert "pseudo_orientable=false" in out


def test_dual_pipeline(run, cube_file, tmp_path):
    out_path = tmp_path / "dual.flags"
    assert main(["dual", cube_file, "-o", str(out_path)]) == 0
    octa = tmp_path / "octa.flags"
    assert main(["gen", "octahedron", "-o", str(octa)]) == 0
    code, out, _ = run("iso", str(out_path), str(octa))
    assert code == 0
    assert out.splitlines()[0] == "isomorphic=true"


def test_medial_of_tetrahedron(run, tetra_file, tmp_path):
    med = tmp_path / "med.flags"
    assert main(["medial", tetra_file, "-o", str(med)]) == 0
    octa = tmp_path / "octa.flags"
    assert main(["gen", "octahedron", "-o", str(octa)]) == 0
    assert main(["iso", str(med), str(octa)]) == 0


def test_petrie(run, tetra_file):
    code, out, _ = run("petrie", tetra_file)
    assert code == 0
    system = parse_flag_text(out)
    assert len(cells(system, 2)) == 3
    assert all(f.degree == 4 for f in cells(system, 2))
    assert str(surface_signature(system)) == "n1"


def test_iso_negative(run, cube_file, tetra_file):
    code, out, _ = run("iso", cube_file, tetra_file)
    assert code == 1
    assert out == "isomorphic=false\n"


def test_double_sidecar_stderr(run, cube_file):
    code, out, err = run("double", cube_file, "-I", "1")
    assert code == 0
    assert parse_flag_text(out).flag_count == 96
    lines = err.splitlines()
    assert lines[0] == "split: false"
    assert lines[1].startswith("projection: ")
    assert len(lines[1].split()) == 97


def test_double_split_case(run, cube_file, tmp_path):
    sidecar = tmp_path / "side.txt"
    code, out, _ = run("double", cube_file, "-I", "0",
                       "--sidecar", str(sidecar))
    assert code == 0
    assert parse_flag_text(out).flag_count == 48
    assert sidecar.read_text().splitlines()[0] == "split: true"


def test_sherk(run, tmp_path):
    base = tmp_path / "tri.flags"
    write_flag_file(tri_torus(2, 2), str(base))
    code, out, err = run("sherk", str(base))
    assert code == 0
    assert parse_flag_text(out).flag_count == 96
    assert "split: false" in err


def test_sherk_rejects_bipartite(run, cube_file):
    code, _, err = run("sherk", cube_file)
    assert code == 1
    assert err.startswith("error:")


def test_sherk_rejects_higher_rank(run, tmp_path):
    path = tmp_path / "maniplex.flags"
    write_flag_file(cube_maniplex(4), str(path))
    code, out, err = run("sherk", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: sherk_double requires a rank-2 system, got rank 3\n"


def test_recognize_double_round_trip(run, tetra_file, tmp_path):
    cover_path = tmp_path / "cover.flags"
    assert main(["double", tetra_file, "-I", "1", "-o", str(cover_path),
                 "--sidecar", str(tmp_path / "s.txt")]) == 0
    code, out, err = run("recognize-double", str(cover_path), "-I", "1")
    assert code == 0
    base = parse_flag_text(out)
    assert is_isomorphic(base, platonic("tetrahedron")) is not None
    assert err.splitlines()[0] == "found: true"
    assert err.splitlines()[1].startswith("deck: ")
    assert err.splitlines()[2].startswith("projection: ")


def test_recognize_double_negative(run, tetra_file):
    code, _, err = run("recognize-double", tetra_file, "-I", "1")
    assert code == 1
    assert "found: false" in err


def test_quotient_round_trip(run, tetra_file, tmp_path):
    cover = i_double(platonic("tetrahedron"), (1,))
    cover_path = tmp_path / "cover.flags"
    write_flag_file(cover.system, str(cover_path))
    swap = np.arange(48) ^ 1
    code, out, err = run("quotient", str(cover_path),
                         "--u", " ".join(str(x) for x in swap))
    assert code == 0
    assert is_isomorphic(parse_flag_text(out),
                         platonic("tetrahedron")) is not None
    assert err.startswith("projection: ")


def test_quotient_u_file(run, tmp_path, tetra_file):
    cover = i_double(platonic("tetrahedron"), (1,))
    cover_path = tmp_path / "cover.flags"
    write_flag_file(cover.system, str(cover_path))
    u_path = tmp_path / "u.txt"
    u_path.write_text(" ".join(str(x ^ 1) for x in range(48)))
    code, out, _ = run("quotient", str(cover_path), "--u-file", str(u_path))
    assert code == 0


def _usage_error(capsys, argv):
    """Run ``main(argv)``, expecting argparse's exit 2; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    return err


def test_quotient_needs_deck(run, capsys, cube_file):
    err = _usage_error(capsys, ["quotient", cube_file])
    assert err.startswith("usage: mapforge quotient")
    assert "one of the arguments --u --u-file is required" in err

    code, _, err = run("quotient", cube_file, "--u", "0 1 2")
    assert code == 1

    code, _, err = run("quotient", cube_file, "--u", "zero one")
    assert code == 1


@pytest.mark.parametrize("deck", [["--u-file", "/nonexistent", "--u", "1"],
                                  ["--u", "1", "--u-file", "/nonexistent"]])
def test_quotient_takes_one_deck_source(capsys, cube_file, deck):
    err = _usage_error(capsys, ["quotient", cube_file, *deck])
    assert err.startswith("usage: mapforge quotient")
    assert "not allowed with argument" in err


@pytest.mark.parametrize("entry", ["999", "-1", "1000000000000000000000000000000"])
def test_quotient_deck_entry_out_of_range(run, tmp_path, entry):
    cover_path = tmp_path / "cover.flags"
    write_flag_file(i_double(platonic("tetrahedron"), (1,)).system, str(cover_path))
    swap = [str(f ^ 1) for f in range(48)]
    swap[3] = entry
    code, out, err = run("quotient", str(cover_path), "--u", " ".join(swap))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("content", [None, b"1 0 3 2\xff\n"])
def test_unreadable_u_file_is_malformed(run, tmp_path, cube_file, content):
    u_path = tmp_path / "u.txt"
    if content is not None:
        u_path.write_bytes(content)
    code, out, err = run("quotient", cube_file, "--u-file", str(u_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_sum(run, tetra_file):
    code, out, _ = run("sum", tetra_file, tetra_file, "--flags", "0,0")
    assert code == 0
    joined = parse_flag_text(out)
    assert joined.flag_count == 36

    code, _, err = run("sum", tetra_file, tetra_file, "--flags", "0")
    assert code == 1


def test_sum_degree_mismatch(run, tetra_file, cube_file):
    code, _, err = run("sum", tetra_file, cube_file, "--flags", "0,0")
    assert code == 1
    assert "face degrees differ" in err


def test_surgeries(run, cube_file):
    for verb, flags in (("subdivide", 52), ("double-edge", 52),
                        ("triple-edge", 56)):
        code, out, _ = run(verb, cube_file, "--edge", "0")
        assert code == 0
        assert parse_flag_text(out).flag_count == flags
    code, _, err = run("subdivide", cube_file, "--edge", "99")
    assert code == 1


SQUARE = ([1, 0, 3, 2, 5, 4, 7, 6], [7, 2, 1, 4, 3, 6, 5, 0])


@pytest.mark.parametrize("verb", ["subdivide", "double-edge", "triple-edge"])
@pytest.mark.parametrize("rank", [1, 3])
def test_edge_surgeries_refuse_other_ranks(run, tmp_path, verb, rank):
    system = validate(1, 8, SQUARE) if rank == 1 else cube_maniplex(4)
    path = tmp_path / "system.flags"
    write_flag_file(system, str(path))
    code, out, err = run(verb, str(path), "--edge", "0")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "rank-2" in err


def test_tri_torus_names_itself_in_its_error(run):
    code, out, err = run("gen", "tri-torus", "1", "0")
    assert code == 1
    assert out == ""
    assert err == "error: tri-torus dimensions must be positive, got 1x0\n"


def test_gen_unknown_name(run):
    code, _, err = run("gen", "moebius")
    assert code == 1
    assert "error:" in err


def test_build_group(run, tmp_path):
    out_path = tmp_path / "built.flags"
    assert main(["build-group", "--group", "e,1", "--surface", "n5",
                 "-o", str(out_path)]) == 0
    code, out, _ = run("info", str(out_path))
    assert code == 0
    assert "surface=n5 T=e,1" in out


def test_build_group_exceptional(run):
    code, _, err = run("build-group", "--group", "e,02", "--surface", "n1")
    assert code == 1
    assert "error:" in err


HUGE = "100000000000000000000"


@pytest.mark.parametrize("argv", [
    ("gen", "tri-torus", HUGE, "2"),
    ("gen", "grid", HUGE, "3", "1"),
    ("gen", "crosscap", HUGE),
    ("gen", "cube-maniplex", HUGE),
    ("gen", "tri-torus", "1000", "834"),  # 10,008,000 flags
    ("gen", "cube-maniplex", "8"),  # 10,321,920 flags
    ("build-group", "--group", "e,0", "--surface", "n99999999999999999999999"),
    ("build-group", "--group", "e,012", "--surface", "o99999999999999999999999"),
], ids=lambda argv: " ".join(argv).replace(HUGE, "1e20"))
def test_maps_over_the_size_limit_are_refused_before_allocating(run, argv):
    tracemalloc.start()
    try:
        code, out, err = run(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "limit of 10000000 flags" in err
    assert peak < 1_000_000


VERIFY_SPEC = {"generators": ["tetrahedron", "crosscap 2"],
               "surgery_depth": 1, "operations": ["axioms", "tgroup"]}


def test_verify_small_corpus(run, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(VERIFY_SPEC))
    code, out, _ = run("verify", "--corpus", str(spec_path))
    assert code == 0
    lines = out.splitlines()
    assert "axioms pass=4 fail=0" in lines
    assert "tgroup pass=4 fail=0" in lines
    assert lines[-1] == "maps=4 cells=8 failures=0"


def test_verify_operations_flag(run, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"generators": ["tetrahedron"],
                                     "surgery_depth": 0}))
    code, out, _ = run("verify", "--corpus", str(spec_path),
                       "--operations", "axioms")
    assert code == 0
    assert out.splitlines()[-1] == "maps=1 cells=1 failures=0"

    code, _, err = run("verify", "--corpus", str(spec_path),
                       "--operations", "nonsense")
    assert code == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_rejects_worker_counts_below_one(run, workers):
    code, out, err = run("verify", "--workers", workers)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "--workers" in err


def test_verify_corrupted_corpus_map(run, tmp_path):
    broken = tmp_path / "broken.flags"
    broken.write_text("rank 2\nflags 4\nr0: 1 0 3 2\nr1: 3 2 1 0\nr2: 0 1 2 3\n")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"generators": [f"file {broken}"],
                                     "surgery_depth": 0}))
    code, out, _ = run("verify", "--corpus", str(spec_path))
    assert code == 1
    assert out.startswith("FAIL corpus generation")


@pytest.mark.parametrize("verb", ["validate", "validate-stdin", "verify-spec",
                                  "verify-generator"])
def test_non_utf8_input_is_malformed(run, tmp_path, monkeypatch, verb):
    flags = tmp_path / "bad.flags"
    flags.write_bytes(b"rank 2\nflags 4\xff\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(flags.read_bytes()), encoding="utf-8"))
    spec = tmp_path / "spec.json"
    if verb == "verify-spec":
        spec.write_bytes(b'{"generators": ["tetra\xffhedron"]}')
    else:
        spec.write_text(json.dumps({"generators": [f"file {flags}"]}))
    argv = {"validate": ["validate", str(flags)],
            "validate-stdin": ["validate", "-"]}.get(
        verb, ["verify", "--corpus", str(spec)])
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.fixture
def crashing_spec(tmp_path, monkeypatch):
    """A two-map spec whose axioms check raises on the tetrahedron."""
    def crashing(system, rng):
        if system.flag_count == 24:
            raise RuntimeError("boom")
        return None

    monkeypatch.setitem(PROPERTY_CHECKS, "axioms", crashing)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"generators": ["tetrahedron", "cube"],
                                     "surgery_depth": 0,
                                     "operations": ["axioms", "tgroup"]}))
    return str(spec_path)


def test_verify_records_a_crashing_check_as_a_failing_cell(run, crashing_spec):
    code, out, _ = run("verify", "--corpus", crashing_spec)
    assert code == 1
    assert out.splitlines() == [
        "FAIL axioms [tetrahedron]: RuntimeError: boom",
        "axioms pass=1 fail=1",
        "tgroup pass=2 fail=0",
        "maps=2 cells=4 failures=1",
    ]


def test_verify_dump_into_a_regular_file_is_malformed(run, tmp_path, crashing_spec):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, out, err = run("verify", "--corpus", crashing_spec, "--dump", str(blocker))
    assert code == 2
    assert out.splitlines() == ["FAIL axioms [tetrahedron]: RuntimeError: boom"]
    assert err.startswith(f"error: cannot write {blocker}{os.sep}") and err.count("\n") == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("target", ["-o", "--sidecar"])
def test_unwritable_output_path_is_malformed(run, cube_file, tmp_path, target):
    missing = str(tmp_path / "missing" / "out")
    outputs = {"-o": missing, "--sidecar": str(tmp_path / "sidecar.txt")}
    outputs[target] = missing
    code, _, err = run("double", cube_file, "-I", "0",
                       "-o", outputs["-o"], "--sidecar", outputs["--sidecar"])
    assert code == 2
    assert err.startswith(f"error: cannot write {missing}: ") and err.count("\n") == 1
    assert not os.path.exists(os.path.dirname(missing))


def test_unwritable_transform_output_is_malformed(run, cube_file, tmp_path):
    missing = str(tmp_path / "missing" / "dual.flags")
    code, out, err = run("dual", cube_file, "-o", missing)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {missing}: ") and err.count("\n") == 1


def test_verify_malformed_corpus_json(run, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{oops")
    code, _, err = run("verify", "--corpus", str(spec_path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("env_seed,spec", [
    ("abc", {"generators": ["tetrahedron"]}),
    (None, {"seed": "x", "generators": ["tetrahedron"]}),
    (None, {"seed": [1], "generators": ["tetrahedron"]}),
    (None, {"surgery_depth": -5, "generators": ["tetrahedron"]}),
    (None, {"generators": ["tetrahedron", "nonsense 3"]}),
], ids=["env-seed-abc", "seed-string", "seed-list", "negative-depth", "unknown-generator"])
def test_verify_malformed_spec_values(run, tmp_path, monkeypatch, env_seed, spec):
    if env_seed is not None:
        monkeypatch.setenv("MAPFORGE_SEED", env_seed)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run("verify", "--corpus", str(spec_path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_verify_seed_precedence(run, tmp_path, monkeypatch):
    captured = []

    def fake_run_verify(spec, workers=None, dump_dir=None):
        captured.append(spec.seed)
        return True

    monkeypatch.setattr(cli, "run_verify", fake_run_verify)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 11, "generators": ["cube"]}))

    assert main(["verify", "--corpus", str(spec_path)]) == 0
    monkeypatch.setenv("MAPFORGE_SEED", "22")
    assert main(["verify", "--corpus", str(spec_path)]) == 0
    assert main(["verify", "--corpus", str(spec_path), "--seed", "33"]) == 0
    assert captured == [11, 22, 33]


def test_script_pipeline():
    script = [sys.executable, "-m", "mapforge"]
    gen = subprocess.run(script + ["gen", "cube"],
                         capture_output=True, text=True, check=True)
    dualed = subprocess.run(script + ["dual", "-"], input=gen.stdout,
                            capture_output=True, text=True, check=True)
    info = subprocess.run(script + ["info", "-"], input=dualed.stdout,
                          capture_output=True, text=True, check=True)
    assert "V=6 E=12 F=8 chi=2 surface=o0 T=e,2,01,012" in info.stdout


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mapforge"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


# --- one parser per process ------------------------------------------

VERBS = ("validate", "info", "color", "tgroup", "pso", "dual", "petrie", "opp",
         "medial", "double", "sherk", "recognize-double", "quotient", "sum",
         "subdivide", "double-edge", "triple-edge", "gen", "build-group", "iso",
         "verify")


def test_importing_builds_no_parser():
    probe = "import mapforge, mapforge.cli as cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "0\n"


def test_main_builds_the_parser_once(monkeypatch, capsys, cube_file):
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "mapforge":  # the verbs' subparsers are "mapforge <verb>"
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            for verb in ("validate", "info", "tgroup", "dual", "petrie"):
                assert main([verb, cube_file]) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def test_options_do_not_leak_into_the_next_call(run, cube_file, tmp_path):
    code, out, _ = run("info", cube_file, "--json")
    assert code == 0 and json.loads(out)["flags"] == 48
    code, out, _ = run("info", cube_file)
    assert code == 0 and out.startswith("rank=2\nflags=48\n")

    cover, sidecar = tmp_path / "cover.flags", tmp_path / "side.txt"
    code, out, err = run("double", cube_file, "-I", "1",
                         "-o", str(cover), "--sidecar", str(sidecar))
    assert (code, out, err) == (0, "", "")
    code, out, err = run("double", cube_file, "-I", "1")
    assert code == 0
    assert out == cover.read_text()
    assert err == sidecar.read_text()


@pytest.mark.parametrize("verb, name, extra", [
    ("dual", "dual", ()), ("petrie", "petrie", ()), ("opp", "opposite", ()),
    ("medial", "medial", ()), ("subdivide", "subdivide_edge", ("--edge", "0")),
    ("double-edge", "double_edge", ("--edge", "0")),
    ("triple-edge", "triple_edge", ("--edge", "0")),
])
def test_verbs_call_what_the_module_binds_now(run, monkeypatch, cube_file, verb, name, extra):
    first = run(verb, cube_file, *extra)  # builds the parser before the spy goes in
    assert first[0] == 0
    real, calls = getattr(cli, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, spy)
    assert run(verb, cube_file, *extra) == first
    assert len(calls) == 1


@pytest.mark.parametrize("verb", (None,) + VERBS)
def test_help_is_the_same_on_every_call(capsys, verb):
    argv = ["--help"] if verb is None else [verb, "--help"]
    cli._parser.cache_clear()
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: mapforge" + ("" if verb is None else f" {verb} "))
    if verb is None:
        assert "{" + ",".join(VERBS) + "}" in texts[0]


def _parse(parser, argv, capsys):
    """The namespace `parser` makes of argv, or its exit code and output."""
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        out, err = capsys.readouterr()
        return exc.code, out, err
    return vars(namespace)


@pytest.mark.parametrize("verb", (None,) + VERBS)
def test_help_matches_the_hand_written_parser(capsys, verb):
    argv = ["--help"] if verb is None else [verb, "--help"]
    want = _parse(cli_reference._parser(), argv, capsys)
    assert want[0] == 0 and want[1].startswith("usage: mapforge")
    assert _parse(cli._parser(), argv, capsys) == want


PARSE_CASES = [
    [], ["frobnicate"], ["validate"], ["validate", "a.flags"], ["validate", "-", "--json"],
    ["info", "a.flags", "--json"], ["info", "a.flags", "--bogus"],
    ["color", "a.flags", "-I", "02"], ["color", "a.flags", "-I", "e", "--json"],
    ["color", "a.flags"], ["color", "a.flags", "-o", "b.flags", "-I", "0"],
    ["tgroup", "-"], ["tgroup", "-", "--sidecar", "s.txt"],
    ["pso", "a.flags", "--kind", "face"], ["pso", "-", "--kind", "vertex", "--json"],
    ["pso", "a.flags", "--kind", "edge"], ["pso", "a.flags"],
    ["dual", "a.flags"], ["petrie", "-", "-o", "b.flags"], ["opp", "a.flags", "--output", "b"],
    ["medial", "a.flags", "--json"],
    ["double", "a.flags", "-I", "0", "--sidecar", "s.txt"], ["double", "a.flags", "-o", "b"],
    ["sherk", "a.flags", "-o", "b.flags"], ["sherk", "-", "--sidecar", "-"],
    ["recognize-double", "a.flags", "-I", "1", "-o", "b.flags"], ["recognize-double", "-"],
    ["quotient", "a.flags", "--u", "1,0"], ["quotient", "a.flags", "--u", "1 0", "-o", "b"],
    ["quotient", "a.flags", "--u-file", "u.txt", "--sidecar", "s.txt"],
    ["quotient", "a.flags", "--u", "1,0", "--u-file", "u.txt"], ["quotient", "a.flags"],
    ["sum", "a.flags", "b.flags", "--flags", "0,0"],
    ["sum", "a.flags", "b.flags", "--flags", "1,2", "-o", "c.flags"],
    ["sum", "a.flags", "--flags", "0,0"], ["sum", "a.flags", "b.flags"],
    ["subdivide", "a.flags", "--edge", "3"], ["double-edge", "-", "--edge", "0", "-o", "b"],
    ["triple-edge", "a.flags", "--edge", "x"], ["triple-edge", "a.flags"],
    ["gen", "cube"], ["gen", "grid", "3", "3", "0", "-o", "g.flags"], ["gen", "grid", "3", "-1"],
    ["gen"],
    ["build-group", "--group", "e,0", "--surface", "o1"],
    ["build-group", "--surface", "n2", "--group", "e", "-o", "m.flags"],
    ["build-group", "--group", "e"],
    ["iso", "a.flags", "b.flags"], ["iso", "a.flags", "b.flags", "--json"], ["iso", "a.flags"],
    ["verify"], ["verify", "--seed", "3", "--workers", "2", "--operations", "axioms,tgroup",
                 "--dump", "out", "--corpus", "spec.json"],
    ["verify", "--seed", "x"], ["verify", "a.flags"],
]


def test_every_verb_is_in_the_parse_cases():
    assert {argv[0] for argv in PARSE_CASES if argv} >= set(VERBS)


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parse_matches_the_hand_written_parser(capsys, argv):
    assert _parse(cli._parser(), argv, capsys) == _parse(cli_reference._parser(), argv, capsys)


def test_color_and_pso_text_is_the_per_element_text(run, tmp_path):
    """The translated bytes equal the old one-character-per-element joins."""
    big = tri_torus(60, 60)
    for name, system in CORPUS + [("tri-torus 60 60", big)]:
        for cs in color_sets(system.rank):
            witness = find_coloring(system, cs)
            if witness is not None:
                want = "".join(str(int(b)) for b in witness.assignment)
                assert cli._bit_text(witness.assignment, b"01") == want, (name, str(cs))
        for kind in PSO_KINDS if system.rank == 2 else ():
            witness = direct_pso(system, kind)
            if witness is not None:
                want = "".join("+" if not b else "-" for b in witness.arrows)
                assert cli._bit_text(witness.arrows, b"+-") == want, (name, kind)
    path = str(tmp_path / "big.flags")
    write_flag_file(big, path)
    code, out, _ = run("color", path, "-I", "012")  # orientable
    assert code == 0
    assert out == "".join(str(int(b)) for b in find_coloring(big, (0, 1, 2)).assignment) + "\n"
    code, out, _ = run("pso", path, "--kind", "face")
    assert code == 0
    arrows = direct_pso(big, "face").arrows
    assert out.splitlines()[-1] == "arrows=" + "".join("+" if not b else "-" for b in arrows)
