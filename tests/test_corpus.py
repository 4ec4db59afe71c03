import collections
import gc
import json
import multiprocessing
import weakref

import numpy as np
import pytest

import mapforge.corpus as corpus
from mapforge import (
    ColorSet,
    ColoringGroup,
    CorpusSpec,
    DEFAULT_GENERATORS,
    PROPERTY_CHECKS,
    all_subgroups,
    build_corpus,
    coloring_group,
    cube_maniplex,
    invoke_generator,
    is_isomorphic,
    platonic,
    random_surgery,
    run_verify,
    surface_signature,
    tri_torus,
    write_flag_file,
)
from mapforge.errors import BadParameters, FlagFileError, UnknownName


def test_invoke_generator_names():
    assert is_isomorphic(invoke_generator("cube"), platonic("cube")) is not None
    assert is_isomorphic(invoke_generator("tri-torus 2 2"), tri_torus(2, 2)) is not None
    assert invoke_generator("grid 3 3 0").flag_count == 72
    assert invoke_generator("polygon abAB").flag_count == 8
    assert invoke_generator("crosscap 2").flag_count == 8
    assert invoke_generator("strip 2 0 0").flag_count == 20
    assert invoke_generator("cube-maniplex 4").rank == 3


def test_invoke_generator_file(tmp_path):
    path = tmp_path / "map.flags"
    write_flag_file(platonic("tetrahedron"), str(path))
    loaded = invoke_generator(f"file {path}")
    assert is_isomorphic(loaded, platonic("tetrahedron")) is not None


GENERATOR_OPTIONS = ("cube, dodecahedron, icosahedron, octahedron, tetrahedron, tri-torus, "
                     "grid, strip, polygon, crosscap, cube-maniplex, file")
GENERATOR_ERRORS = [
    ("", BadParameters, "empty generator invocation"),
    ("   ", BadParameters, "empty generator invocation"),
    ("moebius", UnknownName, f"unknown name 'moebius' (expected one of {GENERATOR_OPTIONS})"),
    ("cube 1", BadParameters, "cube takes 0 argument(s), got 1"),
    ("tetrahedron 2 3", BadParameters, "tetrahedron takes 0 argument(s), got 2"),
    ("tri-torus 2", BadParameters, "tri-torus takes 2 argument(s), got 1"),
    ("tri-torus 2 2 2", BadParameters, "tri-torus takes 2 argument(s), got 3"),
    ("grid 3 3", BadParameters, "grid takes 3 argument(s), got 2"),
    ("grid 1 2 3 4", BadParameters, "grid takes 3 argument(s), got 4"),
    ("crosscap", BadParameters, "crosscap takes 1 argument(s), got 0"),
    ("crosscap 1 2", BadParameters, "crosscap takes 1 argument(s), got 2"),
    ("cube-maniplex", BadParameters, "cube-maniplex takes 1 argument(s), got 0"),
    ("cube-maniplex 3 4", BadParameters, "cube-maniplex takes 1 argument(s), got 2"),
    ("tri-torus a b", BadParameters, "tri-torus: arguments must be integers: ['a', 'b']"),
    ("tri-torus 1.5 2", BadParameters, "tri-torus: arguments must be integers: ['1.5', '2']"),
    ("grid a 2 3", BadParameters, "grid: arguments must be integers: ['a', '2', '3']"),
    ("crosscap two", BadParameters, "crosscap: arguments must be integers: ['two']"),
    ("cube-maniplex x", BadParameters, "cube-maniplex: arguments must be integers: ['x']"),
    ("strip", BadParameters, "strip takes h and parity, then optional swap rows"),
    ("strip 1", BadParameters, "strip takes h and parity, then optional swap rows"),
    ("strip x", BadParameters, "strip takes h and parity, then optional swap rows"),
    ("strip 1 x", BadParameters, "strip: arguments must be integers: ['1', 'x']"),
    ("polygon", BadParameters, "polygon takes one gluing word"),
    ("polygon a b", BadParameters, "polygon takes one gluing word"),
    ("file", BadParameters, "file takes one path"),
    ("file a b", BadParameters, "file takes one path"),
    # the builders' own errors, raised after every argument parsed
    ("tri-torus 0 3", BadParameters, "tri-torus dimensions must be positive, got 0x3"),
    ("grid 3 3 -1", BadParameters, "twist count -1 out of range 0..3"),
    ("strip 2 0 1", BadParameters, "swaps must lie in 0..0, got [1]"),
    ("crosscap 0", BadParameters, "need at least one crosscap, got 0"),
    ("cube-maniplex 1", BadParameters, "cube dimension must be >= 2, got 1"),
]


def test_invoke_generator_errors():
    for text, kind, message in GENERATOR_ERRORS:
        with pytest.raises(kind) as exc:
            invoke_generator(text)
        assert type(exc.value) is kind and str(exc.value) == message, text
    with pytest.raises(FlagFileError):
        invoke_generator("file /nonexistent/map.flags")


@pytest.mark.parametrize("name, text", [
    ("platonic", "cube"), ("tri_torus", "tri-torus 2 3"), ("grid_map", "grid 3 5 1"),
    ("strip_map", "strip 2 1 0"), ("polygon_gluing", "polygon abAB"),
    ("crosscap_map", "crosscap 3"), ("cube_maniplex", "cube-maniplex 3"),
    ("read_flag_file", "file"),
])
def test_generators_call_what_the_module_binds_now(monkeypatch, tmp_path, name, text):
    if text == "file":
        path = tmp_path / "map.flags"
        write_flag_file(platonic("tetrahedron"), str(path))
        text = f"file {path}"
    first = invoke_generator(text)  # a first call, before the spy goes in
    real, calls = getattr(corpus, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(corpus, name, spy)
    assert invoke_generator(text) == first
    assert len(calls) == 1


def test_random_surgery_preserves_surface():
    rng = np.random.default_rng(99)
    for name in ("cube", "polygon abAB", "crosscap 3", "grid 3 3 0"):
        system = invoke_generator(name)
        before = surface_signature(system)
        for _ in range(6):
            system = random_surgery(system, rng)
            assert surface_signature(system) == before


def test_spec_defaults_and_check_ids():
    spec = CorpusSpec()
    assert spec.seed == 1729
    assert spec.generators == DEFAULT_GENERATORS
    assert spec.check_ids() == tuple(PROPERTY_CHECKS)
    narrowed = CorpusSpec(operations=("axioms", "tgroup"))
    assert narrowed.check_ids() == ("axioms", "tgroup")
    with pytest.raises(UnknownName):
        CorpusSpec(operations=("axioms", "nonsense"))


def test_spec_from_json():
    spec = CorpusSpec.from_json(json.dumps({
        "seed": 7,
        "generators": ["cube", "crosscap 2"],
        "surgery_depth": 1,
        "operations": ["axioms"],
    }))
    assert spec.seed == 7
    assert spec.generators == ("cube", "crosscap 2")
    assert spec.surgery_depth == 1
    assert spec.operations == ("axioms",)

    with pytest.raises(BadParameters):
        CorpusSpec.from_json("{not json")
    with pytest.raises(BadParameters):
        CorpusSpec.from_json("[1, 2]")
    with pytest.raises(BadParameters):
        CorpusSpec.from_json('{"seeds": 3}')
    with pytest.raises(BadParameters):
        CorpusSpec.from_json('{"generators": "cube"}')
    with pytest.raises(BadParameters):
        CorpusSpec.from_json('{"generators": [3]}')
    with pytest.raises(UnknownName):
        CorpusSpec.from_json('{"operations": ["nonsense"]}')


def test_build_corpus_is_deterministic():
    first = build_corpus(CorpusSpec())
    second = build_corpus(CorpusSpec())
    assert len(first) >= 50
    assert [name for name, _ in first] == [name for name, _ in second]
    for (_, a), (_, b) in zip(first, second):
        assert a.flag_count == b.flag_count
        assert all((x == y).all() for x, y in zip(a.connections, b.connections))
    ranks = [system.rank for _, system in first]
    assert ranks.count(3) == 1
    assert ranks.count(2) == len(first) - 1
    # each rank-2 base map is followed by its surgeried variant
    names = [name for name, _ in first]
    assert "cube" in names and "cube +3s" in names


def test_build_corpus_seed_changes_variants():
    a = build_corpus(CorpusSpec(seed=1))
    b = build_corpus(CorpusSpec(seed=2))
    flags_a = [s.flag_count for n, s in a if n.endswith("+3s")]
    flags_b = [s.flag_count for n, s in b if n.endswith("+3s")]
    assert flags_a != flags_b


SMALL_SPEC = CorpusSpec(generators=("tetrahedron", "polygon abAB",
                                    "crosscap 2", "grid 3 3 0"),
                        surgery_depth=1)


def test_run_verify_all_pass():
    lines = []
    ok = run_verify(SMALL_SPEC, emit=lines.append)
    assert ok
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1] == "maps=8 cells=144 failures=0"
    for check_id in PROPERTY_CHECKS:
        assert f"{check_id} pass=8 fail=0" in lines


def test_transfers_check_covers_every_rank(monkeypatch):
    """The opposite/petrie half of the transfers check runs at rank 3 too."""
    import mapforge.corpus as corpus

    system = cube_maniplex(4)
    assert PROPERTY_CHECKS["transfers"](system, None) is None

    def rank2_rule(cs):
        return cs ^ ColorSet.of((0,), cs.rank) if 2 in cs else cs

    monkeypatch.setattr(corpus, "petrie_color_set", rank2_rule)
    assert PROPERTY_CHECKS["transfers"](system, None).startswith("petrie transfer fails")


def _rank2_parity_rule(system, group):
    """parity-necessity as it stood when it ran at rank 2 only."""
    from mapforge.flagsys import _has_odd_cell, cell_labels

    for dim, where, needs_even in (
            (2, "face", ((0,), (1,), (0, 2), (1, 2))),
            (0, "vertex", ((1,), (2,), (0, 1), (0, 2)))):
        if _has_odd_cell(cell_labels(system, dim)[0]):
            for indices in needs_even:
                member = ColorSet.of(indices, 2)
                if member in group:
                    return f"{member} present despite an odd {where}"
    return None


def test_parity_necessity_keeps_the_rank_2_rule_and_messages(monkeypatch):
    """At rank 2 the every-rank rule is the old face and vertex rule, with
    the same first offending member, on every group a map could report."""
    import mapforge.corpus as corpus

    groups = all_subgroups(2)
    rank2 = [system for _, system in build_corpus(CorpusSpec()) if system.rank == 2]
    assert all(PROPERTY_CHECKS["parity-necessity"](system, None) is None for system in rank2)
    failures = 0
    for system in rank2:
        for group in groups:
            monkeypatch.setattr(corpus, "coloring_group", lambda s, group=group: group)
            want = _rank2_parity_rule(system, group)
            assert PROPERTY_CHECKS["parity-necessity"](system, None) == want
            failures += want is not None
    assert failures > len(rank2)


def test_parity_necessity_is_tight_on_the_4_cube(monkeypatch):
    """On cube-maniplex 4 the <r1, r2> and <r2, r3> orbits have odd
    half-length 3, so 1, 2 and 3 go together and 0 is free: the rule
    allows exactly T = {e, 0, 123, 0123}, which is the cube's group."""
    import mapforge.corpus as corpus

    system = cube_maniplex(4)
    odd = corpus._odd_letter_pairs(system)
    assert odd == [1, 2]
    allowed = {m for m in range(16) if all((m >> i & 1) == (m >> (i + 1) & 1) for i in odd)}
    assert allowed == {0b0000, 0b0001, 0b1110, 0b1111}
    assert set(coloring_group(system).masks) == allowed
    assert PROPERTY_CHECKS["parity-necessity"](system, None) is None
    full = ColoringGroup.of(3, range(16))
    monkeypatch.setattr(corpus, "coloring_group", lambda s: full)
    assert PROPERTY_CHECKS["parity-necessity"](system, None) == \
        "1 present despite an odd <r1, r2> orbit"


@pytest.mark.parametrize("name,goal", [
    ("tetrahedron", "vertex_bipartite"), ("cube", "face_bipartite"), ("tetrahedron", "vpso"),
    ("cube", "fpso"), ("cube", "odd_face"), ("octahedron", "odd_vertex")])
def test_make_property_check_sees_each_unmet_goal(monkeypatch, name, goal):
    """The make-property check fails when make_property returns a map
    that lacks the goal unchanged."""
    import mapforge.corpus as corpus

    system = platonic(name)
    assert PROPERTY_CHECKS["make-property"](system, None) is None
    real = corpus.make_property
    monkeypatch.setattr(corpus, "make_property",
                        lambda s, wanted: s if wanted == goal else real(s, wanted))
    detail = PROPERTY_CHECKS["make-property"](system, None)
    assert detail == f"make_property({goal}) postcondition fails"


def test_run_verify_workers_match_sequential():
    sequential, parallel = [], []
    assert run_verify(SMALL_SPEC, emit=sequential.append)
    assert run_verify(SMALL_SPEC, workers=2, emit=parallel.append)
    assert sequential == parallel


class _InlinePool:
    """A ProcessPoolExecutor stand-in that records its size and runs tasks here."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("spec, workers, sizes", [
    (SMALL_SPEC, 5000, [8]),
    (SMALL_SPEC, 3, [3]),
    (CorpusSpec(generators=("tetrahedron",), surgery_depth=0), 5000, []),
], ids=["above-the-map-count", "below-it", "one-map"])
def test_run_verify_starts_at_most_one_process_a_map(monkeypatch, spec, workers, sizes):
    monkeypatch.setattr(corpus, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    serial, pooled = [], []
    assert run_verify(spec, emit=serial.append)
    assert run_verify(spec, workers=workers, emit=pooled.append)
    assert _InlinePool.sizes == sizes
    assert serial == pooled


def test_run_verify_reports_failures_and_dumps(tmp_path, monkeypatch):
    def broken(system, rng):
        if system.flag_count == 24:
            return "synthetic failure"
        return None

    monkeypatch.setitem(PROPERTY_CHECKS, "axioms", broken)
    lines = []
    spec = CorpusSpec(generators=("tetrahedron", "cube"), surgery_depth=0,
                      operations=("axioms", "tgroup"))
    ok = run_verify(spec, dump_dir=str(tmp_path), emit=lines.append)
    assert not ok
    assert lines[0] == "FAIL axioms [tetrahedron]: synthetic failure"
    assert "axioms pass=1 fail=1" in lines
    assert "tgroup pass=2 fail=0" in lines
    assert lines[-1] == "maps=2 cells=4 failures=1"
    dumped = list(tmp_path.iterdir())
    assert len(dumped) == 1
    assert dumped[0].name == "0000-axioms-tetrahedron.flags"
    reloaded = invoke_generator(f"file {dumped[0]}")
    assert reloaded.flag_count == 24


def _patch_batches(monkeypatch, spy):
    """Route every lift, the public i_double's and the memo's batches, through spy."""
    import mapforge.corpus as corpus
    import mapforge.doubles as doubles

    real = doubles._i_doubles

    def batched(system, color_sets):
        results = real(system, color_sets)
        spy(system, color_sets, results)
        return results

    monkeypatch.setattr(doubles, "_i_doubles", batched)
    monkeypatch.setattr(corpus, "_i_doubles", batched)


def test_run_verify_builds_each_double_once(monkeypatch):
    """The cover checks of one map share each (system, color set) double."""
    built, held, batches = collections.Counter(), [], []

    def counting(system, color_sets, results):
        held.append(system)  # no id is reused while the count runs
        batches.append(len(color_sets))
        for member in color_sets:
            built[id(system), member.mask] += 1

    _patch_batches(monkeypatch, counting)
    assert run_verify(SMALL_SPEC, emit=lambda line: None)
    assert built and max(built.values()) == 1
    # one call builds every double of each map under test; a double's own
    # doubles (saturation's chain, minimality's redouble) come one at a time
    assert batches.count(8) == len(build_corpus(SMALL_SPEC))
    assert set(batches) == {1, 8}
    # outside run_verify every request is a fresh double
    system = platonic("cube")
    for check_id in ("dubgp", "double-split"):
        PROPERTY_CHECKS[check_id](system, None)
    assert built[id(system), 0] == 2


def test_no_double_outlives_its_map(monkeypatch):
    import mapforge.corpus as corpus

    doubles = []

    def watched(system, color_sets, results):
        doubles.extend(weakref.ref(result) for result in results)

    _patch_batches(monkeypatch, watched)
    assert run_verify(SMALL_SPEC, emit=lambda line: None)
    gc.collect()
    assert doubles and all(ref() is None for ref in doubles)
    assert corpus._doubles is None and corpus._map is None

    doubles.clear()
    assert PROPERTY_CHECKS["dubgp"](platonic("cube"), None) is None
    gc.collect()
    assert len(doubles) == 8 and all(ref() is None for ref in doubles)


def test_cell_generators_are_built_on_first_draw(monkeypatch):
    """Each cell draws the stream of default_rng((seed, index)), and a cell
    that draws nothing builds no generator."""
    import mapforge.corpus as corpus

    system, ids = invoke_generator("polygon abAB"), tuple(PROPERTY_CHECKS)
    want = [PROPERTY_CHECKS[check_id](system, np.random.default_rng((7, index)))
            for index, check_id in enumerate(ids, 36)]
    seeds, real = [], np.random.default_rng

    def counting(seed):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    assert corpus._run_map(7, 36, system, ids) == want
    drawing = ("shift", "minimality", "recognition", "surgery-chi", "relabel")
    assert sorted(seeds) == sorted((7, 36 + ids.index(check_id)) for check_id in drawing)


def test_a_raising_check_fails_its_cell_and_the_map_goes_on(monkeypatch):
    import mapforge.corpus as corpus

    def raising(system, rng):
        corpus._double(system, ColorSet.full(system.rank))  # leave a double behind
        if system.flag_count == 24:
            raise RuntimeError("synthetic")
        return None

    seen = []
    recognition = PROPERTY_CHECKS["recognition"]

    def watched(system, rng):
        seen.append(system.flag_count)
        return recognition(system, rng)

    monkeypatch.setitem(PROPERTY_CHECKS, "double-split", raising)
    monkeypatch.setitem(PROPERTY_CHECKS, "recognition", watched)
    lines = []
    assert not run_verify(SMALL_SPEC, emit=lines.append)
    assert lines[0] == "FAIL double-split [tetrahedron]: RuntimeError: synthetic"
    assert "double-split pass=7 fail=1" in lines
    assert "recognition pass=8 fail=0" in lines and seen[0] == 24 and len(seen) == 8
    assert lines[-1] == "maps=8 cells=144 failures=1"
    assert corpus._doubles is None


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers see a patched check registry")
def test_workers_report_failures_and_dumps_like_serial(tmp_path, monkeypatch):
    def broken(system, rng):
        if system.flag_count == 8:
            raise ValueError("synthetic error")
        return "synthetic failure" if system.flag_count > 40 else None

    monkeypatch.setitem(PROPERTY_CHECKS, "shift", broken)
    reports = {}
    for workers in (None, 2):
        out = tmp_path / f"workers-{workers}"
        lines = []
        assert not run_verify(SMALL_SPEC, workers=workers, dump_dir=str(out),
                              emit=lines.append)
        reports[workers] = ([line.replace(str(out), "<dump>") for line in lines],
                            {p.name: p.read_text() for p in out.iterdir()})
    serial, parallel = reports[None], reports[2]
    assert serial == parallel
    lines, dumps = serial
    assert "FAIL shift [polygon abAB]: ValueError: synthetic error" in lines
    assert "shift pass=4 fail=4" in lines and lines[-1] == "maps=8 cells=144 failures=4"
    assert sorted(dumps) == ["0047-shift-polygon_abAB.flags", "0083-shift-crosscap_2.flags",
                             "0119-shift-grid_3_3_0.flags", "0137-shift-grid_3_3_0_1s.flags"]
