"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mf():
    return workloads.import_mapforge()


@pytest.fixture(scope="module")
def expected():
    return checks.load_expected()


# --- self-time arithmetic -----------------------------------------------------


def test_self_times_on_nested_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b holds d [6, 8].
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
        ["d", 6.0, 8.0, 3, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 2.0])


def test_self_times_count_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 2.0, 6.0, 0, None],
        ["b", 4.0, 8.0, 0, None],      # overlaps a on [4, 6]
        ["c", 9.0, 12.0, 0, None],     # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_counts_nested_surgeries_once():
    spans = [
        ["construct.triple_edge", 0.0, 10.0, -1, None],
        ["construct.double_edge", 1.0, 4.0, 0, None],
        ["flagsys.validate", 2.0, 3.0, 1, 100],
        ["construct.double_edge", 5.0, 9.0, 0, None],
        ["flagsys.validate", 6.0, 8.0, 3, 104],
    ]
    m = tracing.layer_metrics(spans, cycles=2)
    assert m["construct.surgery.calls"] == 0.5
    assert m["construct.validations_per_surgery"] == 2.0
    assert m["flagsys.validate.flags"] == 102.0
    assert m["construct.surgery.self_s"] == pytest.approx((3.0 + 2.0 + 2.0) / 2)


def test_clock_times_a_call_that_raises_and_stops_its_timer():
    clock = speed.Clock()

    def busy_then_fail():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        raise KeyError("done")

    with pytest.raises(KeyError):
        clock.run(busy_then_fail)
    assert 0.2 < clock.wall <= 0.3   # calibrations inside the call are left out
    assert clock.scaled > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_clock_nests():
    clock = speed.Clock()

    def busy(seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass

    def outer():
        busy(0.15)
        clock.run(busy, 0.15)
        inner = clock.wall
        busy(0.15)
        return inner

    inner = clock.run(outer)
    assert 0.1 < inner <= 0.15
    assert 0.35 < clock.wall <= 0.45
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- output checks ---------------------------------------------------------------


def test_corrupted_t_line_is_flagged(expected):
    pipeline = workloads.PipelineScale(expected, speed.Clock())
    pin = expected["pipeline"]["tri-torus 10 10"]["info"]
    good = pin["out"]
    assert "T=e,2,01,012" in good
    assert pipeline.check("tri-torus 10 10", "info", pin, 0, good, "", None)
    bad = good.replace("T=e,2,01,012", "T=e,2,01,02")
    assert not pipeline.check("tri-torus 10 10", "info", pin, 0, bad, "", None)
    assert not pipeline.check("tri-torus 10 10", "info", pin, 1, good, "", None)


def test_invalid_iso_mapping_is_flagged(mf):
    system = mf.construct.tri_torus(3, 3)
    perm = np.random.default_rng(5).permutation(system.flag_count)
    other = workloads.relabel(mf, system, perm)
    source, target = workloads.conns_of(system), workloads.conns_of(other)
    mapping = np.asarray(mf.flagsys.is_isomorphic(system, other))
    assert checks.is_isomorphism(source, target, mapping)
    swapped = mapping.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert not checks.is_isomorphism(source, target, swapped)
    assert not checks.is_isomorphism(source, target, np.zeros_like(mapping))


def test_iso_unit_counts_a_bad_mapping_as_failed(mf, expected, monkeypatch):
    surgery = workloads.SurgerySearch(expected, speed.Clock())
    surgery.mf = mf
    surgery.iso_base = mf.construct.tri_torus(3, 3)
    rng = np.random.default_rng(1)
    surgery.iso_copies = [workloads.relabel(mf, surgery.iso_base, rng.permutation(108))
                          for _ in range(2)]
    assert surgery.run("iso", tracing.NullTracer()).failed == 0
    monkeypatch.setattr(mf.flagsys, "is_isomorphic",
                        lambda a, b: np.arange(a.flag_count))
    sample = surgery.run("iso", tracing.NullTracer())
    assert (sample.attempted, sample.failed) == (2, 2)


def test_arrow_witness_rejects_a_flipped_arrow(mf):
    system = mf.construct.platonic("cube")
    witness = mf.coloring.direct_pso(system, "full")
    arrows = "".join("+" if not b else "-" for b in witness.arrows)
    conns = workloads.conns_of(system)
    assert checks.is_arrow_witness(conns, "full", arrows)
    flipped = ("-" if arrows[0] == "+" else "+") + arrows[1:]
    assert not checks.is_arrow_witness(conns, "full", flipped)


def test_recognized_double_witness(mf):
    base = mf.construct.platonic("tetrahedron")
    cover = mf.doubles.i_double(base, (0,)).system
    u, found, phi = mf.doubles.recognize_i_double(cover, (0,))
    conns = workloads.conns_of(cover)
    assert checks.is_recognized_double(conns, {0}, u, workloads.conns_of(found), phi)
    assert not checks.is_recognized_double(conns, {0}, np.arange(len(u)),
                                           workloads.conns_of(found), phi)


# --- wrappers never leak -----------------------------------------------------------


def _snapshot():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "mapforge" or name.startswith("mapforge.")}


def test_traced_run_restores_every_attribute(mf, expected):
    before = _snapshot()
    checks_before = dict(mf.corpus.PROPERTY_CHECKS)
    original_validate = mf.flagsys.validate
    tracer = tracing.Tracer()
    pipeline = workloads.PipelineScale(expected, speed.Clock())
    pipeline.mf = mf
    pipeline.witnessed = set()
    cube = mf.fileio.write_flag_text(mf.construct.platonic("cube"))
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, vars(mf)):
            assert mf.flagsys.validate is not original_validate
            assert mf.package.validate is mf.flagsys.validate
            assert mf.fileio.validate is mf.flagsys.validate
            spec = mf.corpus.CorpusSpec(generators=("tetrahedron",))
            mf.corpus.run_verify(spec, emit=lambda line: None)
            pipeline.chain("cube", cube, 2, tracer, workloads.Sample("cube"))
            raise RuntimeError("leave the block by an exception")
    assert _snapshot() == before
    assert mf.corpus.PROPERTY_CHECKS == checks_before
    names = {span[0] for span in tracer.spans}
    assert {"corpus.run_verify", "corpus.check.dubgp", "cli.info",
            "fileio.parse_flag_text", "flagsys.validate"} <= names


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: (m["unit"], m["better"]) for m in json.load(fh)["per_layer"]}
    produced = set(tracing.layer_metrics([], 1))
    produced |= set(tracing.check_metrics([], workloads.CHECK_IDS, 1))
    produced |= set(tracing.verb_metrics([], 1))
    produced.add("trace.overhead")
    assert produced == set(declared)
    for name, (unit, better) in declared.items():
        assert (unit, better) == (tracing.unit_of(name), tracing.better(name))
