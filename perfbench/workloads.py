"""The three workloads: inputs made from a seed, timed units of work, checks.

A workload is set up once per run (import, input generation, warm-up)
and then runs units from its ``cycle()`` in order.  A unit calls into
mapforge, times each call (an operation) on its own with ``speed.Clock``,
checks every output and returns a ``Sample``.  Each workload fills the
four end-to-end parts ``part_a_s``..``part_d_s`` with its own pieces (see
``PARTS``): a part's value is the median over the run's units of the
part's speed-scaled seconds in that unit, or of the geometric mean of
its wall and scaled seconds for a part listed in ``NUMPY_PARTS``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import io
import os
import sys
import time
import traceback
import types

import numpy as np

import checks
import speed
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Corpus seed of the verify workload at benchmark seed 0: CorpusSpec's
# default.  Benchmark seed s repeats the pass on corpus seed 1729 + s.
VERIFY_SEED_BASE = 1729


class MissingProgram(RuntimeError):
    """The checkout holds no mapforge sources to benchmark."""


def import_mapforge() -> types.SimpleNamespace:
    """Import mapforge afresh from this checkout's ``src/``; return its layers."""
    if not os.path.isfile(os.path.join(SRC, "mapforge", "__init__.py")):
        raise MissingProgram(f"no mapforge package under {SRC}")
    if SRC in sys.path:
        sys.path.remove(SRC)
    sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "mapforge" or n.startswith("mapforge.")]:
        del sys.modules[name]
    package = importlib.import_module("mapforge")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "mapforge"):
        raise MissingProgram(f"mapforge imported from {package.__file__}, not {SRC}")
    layers = {layer: importlib.import_module(f"mapforge.{layer}") for layer in tracing.LAYERS}
    return types.SimpleNamespace(package=package, errors=package.errors, **layers)


def relabel(mf, system, perm):
    """The same map with flag f renamed perm[f]."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return mf.flagsys.validate(system.rank, system.flag_count,
                               [perm[c[inverse]] for c in system.connections])


def conns_of(system):
    return [np.asarray(c) for c in system.connections]


@dataclasses.dataclass
class Sample:
    key: str
    wall: float = 0.0                       # seconds inside mapforge calls
    scaled: float = 0.0                     # the same, speed-scaled
    # (parts the operation counts toward, wall seconds, scaled seconds)
    ops: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = dataclasses.field(default_factory=list)
    extra: dict = dataclasses.field(default_factory=dict)

    def op(self, parts, clock: speed.Clock) -> None:
        """Record the operation ``clock`` timed last."""
        self.ops.append((parts, clock.wall, clock.scaled))
        self.wall += clock.wall
        self.scaled += clock.scaled

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Workload:
    name = ""
    PARTS: dict[str, str] = {}
    # Parts whose time is spent in numpy passes over large arrays rather
    # than in Python loops.  The machine's slow mode slows them about 1.2x
    # while it slows the speed kernel 1.7x, so full scaling overcorrects
    # and wall time undercorrects; they get half the correction (in logs).
    NUMPY_PARTS: frozenset[str] = frozenset()

    def __init__(self, expected: dict, clock: speed.Clock):
        self.expected = expected
        self.clock = clock

    def setup(self, mf, seed: int) -> None:
        raise NotImplementedError

    def cycle(self) -> list[str]:
        raise NotImplementedError

    def run(self, key: str, tracer) -> Sample:
        raise NotImplementedError

    def part_values(self, samples, wall: bool = False) -> dict[str, float]:
        """Median over units of each part's seconds in the unit: wall time
        if ``wall``, else speed-scaled, half-scaled for ``NUMPY_PARTS``."""
        out = {}
        for part in self.PARTS:
            per_unit = []
            for s in samples:
                mine = [op for op in s.ops if part in op[0]]
                if not mine:
                    continue
                walls = sum(op[1] for op in mine)
                scaled = sum(op[2] for op in mine)
                if wall:
                    per_unit.append(walls)
                elif part in self.NUMPY_PARTS:
                    per_unit.append(float(np.sqrt(walls * scaled)))
                else:
                    per_unit.append(scaled)
            out[part] = float(np.median(per_unit)) if per_unit else 0.0
        return out

    def report(self, samples) -> list[tuple[str, float, str, str]]:
        return []


# --- verify-corpus ---------------------------------------------------------


class VerifyCorpus(Workload):
    name = "verify-corpus"
    FAMILIES = {
        "part_a_s": ("axioms", "roundtrip", "tgroup", "bridges", "pso-oracle",
                     "parity-necessity"),
        "part_b_s": ("involutions", "transfers", "medial-table"),
        "part_c_s": ("dubgp", "double-split", "shift", "saturation", "minimality",
                     "recognition"),
        "part_d_s": ("surgery-chi", "make-property", "relabel"),
    }
    PARTS = {
        "part_a_s": "structure checks (axioms..parity-necessity), s per corpus pass",
        "part_b_s": "operator checks (involutions, transfers, medial-table), s per pass",
        "part_c_s": "cover checks (dubgp..recognition), s per pass",
        "part_d_s": "surgery and search checks (surgery-chi, make-property, relabel), s per pass",
    }

    def setup(self, mf, seed):
        self.mf = mf
        self.corpus_seed = VERIFY_SEED_BASE + seed
        self.family_of = {c: part for part, ids in self.FAMILIES.items() for c in ids}
        missing = set(mf.corpus.PROPERTY_CHECKS) ^ set(self.family_of)
        if missing:
            raise RuntimeError(f"checks without a family: {sorted(missing)}")
        warm = mf.corpus.CorpusSpec(seed=VERIFY_SEED_BASE,
                                    generators=("tetrahedron", "cube-maniplex 3"))
        mf.corpus.run_verify(warm, emit=lambda line: None)

    def cycle(self):
        return ["pass"]

    def run(self, key, tracer):
        sample = Sample(key)
        checks_table = self.mf.corpus.PROPERTY_CHECKS
        cells: list[tuple[str, bool]] = []
        originals = dict(checks_table)
        clock = self.clock

        def timed(check_id, func):
            def cell(system, rng):
                ok = False
                try:
                    detail = clock.run(func, system, rng)
                    ok = detail is None
                    return detail
                finally:
                    sample.op((self.family_of[check_id],), clock)
                    cells.append((check_id, ok))
            return cell

        lines: list[str] = []
        spec = self.mf.corpus.CorpusSpec(seed=self.corpus_seed)
        for check_id, func in originals.items():
            checks_table[check_id] = timed(check_id, func)
        t0 = time.perf_counter()
        try:
            self.mf.corpus.run_verify(spec, workers=None, emit=lines.append)
            raised = None
        except Exception:  # an exception escaping run_verify fails the pass
            raised = traceback.format_exc(limit=3)
        finally:
            sample.extra["pass_s"] = time.perf_counter() - t0
            checks_table.update(originals)

        for check_id, ok in cells:
            sample.outcome(ok, f"verify seed {spec.seed}: cell {check_id} failed")
        summary_ok = raised is None and "\n".join(lines) == self.expected["verify_summary"]
        if not summary_ok and sample.failed == 0:
            sample.attempted += 1
            sample.failed += 1
            sample.failures.append(f"verify seed {spec.seed}: report differs from the pin"
                                   + (f"\n{raised}" if raised else ""))
        sample.extra["failures_line"] = lines[-1] if lines else ""
        sample.extra["seed"] = spec.seed
        return sample

    def report(self, samples):
        cell_s = [wall for s in samples for _parts, wall, _scaled in s.ops]
        wall = sum(s.extra["pass_s"] for s in samples)
        n = len(cell_s)
        out = [("verify.cells_per_s", n / wall if wall else 0.0, "1/s",
                f"{n} cells in {len(samples)} passes, wall")]
        if cell_s:
            p50, p99 = np.percentile(cell_s, [50, 99])
            out.append(("verify.cell_p50_ms", p50 * 1e3, "ms", f"{n} cells, wall"))
            out.append(("verify.cell_p99_ms", p99 * 1e3, "ms",
                        f"{n} cells, {int(n * 0.01)} beyond, wall"))
        lines = sorted({f"corpus seed {s.extra['seed']}: {s.extra['failures_line']}"
                        for s in samples})
        out.append(("verify.failing_cells", float(sum(s.failed for s in samples)), "count",
                    f"{len(samples)} passes; " + "; ".join(lines)))
        return out


# --- pipeline-scale --------------------------------------------------------


class PipelineScale(Workload):
    name = "pipeline-scale"
    TIERS = {
        "n1e3": ("tri-torus 10 10", "grid 10 12 3", "cube-maniplex 4"),
        "n1e4": ("tri-torus 30 30", "grid 2 600 0", "cube-maniplex 5"),
        "n4e4": ("tri-torus 60 60",),
    }
    TIER_PART = {"n1e3": "part_a_s", "n1e4": "part_b_s", "n4e4": "part_c_s"}
    LONG_THIN = "grid 2 600 0"
    PARTS = {
        "part_a_s": "tier n1e3 (tri-torus 10 10, grid 10 12 3, cube-maniplex 4), verb s per tier pass",
        "part_b_s": "tier n1e4 (tri-torus 30 30, grid 2 600 0, cube-maniplex 5), verb s per tier pass",
        "part_c_s": "tier n4e4 (tri-torus 60 60), verb s per tier pass",
        "part_d_s": "the long thin grid 2 600 0 alone (inside n1e4), verb s per pass",
    }
    PSO_KINDS = ("full", "face", "vertex", "edge")

    @classmethod
    def steps(cls, rank):
        """(step id, verb, argv, id of the step whose output is stdin or None)."""
        out = [
            ("validate", "validate", ["validate", "-"], None),
            ("info", "info", ["info", "-"], None),
            ("double", "double", ["double", "-", "-I", "0"], None),
            ("double|info", "info", ["info", "-"], "double"),
            ("dual", "dual", ["dual", "-"], None),
            ("dual|tgroup", "tgroup", ["tgroup", "-"], "dual"),
            ("petrie", "petrie", ["petrie", "-"], None),
        ]
        if rank == 2:
            out += [("medial", "medial", ["medial", "-"], None),
                    ("medial|tgroup", "tgroup", ["tgroup", "-"], "medial")]
            out += [(f"pso {k}", "pso", ["pso", "-", "--kind", k], None)
                    for k in cls.PSO_KINDS]
        return out

    def setup(self, mf, seed):
        self.mf = mf
        rng = np.random.default_rng(seed)
        self.order = {tier: [maps[i] for i in rng.permutation(len(maps))]
                      for tier, maps in self.TIERS.items()}
        self.inputs = {}
        for maps in self.TIERS.values():
            for text in maps:
                system = mf.corpus.invoke_generator(text)
                self.inputs[text] = (mf.fileio.write_flag_text(system), system.rank,
                                     conns_of(system))
        self.witnessed: set[tuple[str, str, str]] = set()
        cube = mf.fileio.write_flag_text(mf.construct.platonic("cube"))
        self.chain("cube", cube, 2, tracing.NullTracer(), Sample("warm-up"))

    def cycle(self):
        # Largest first; the small tiers fill what time is left.
        return ["n4e4", "n1e4", "n1e3", "n1e3"]

    def run_cli(self, tracer, verb, argv, text):
        stdin, stdout, stderr = io.StringIO(text), io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = stdin, stdout, stderr
        try:
            code = self.clock.run(tracer.call, f"cli.{verb}", self.mf.cli.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback from a verb is a failed operation
            code = "raised"
            stderr.write(traceback.format_exc(limit=3))
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, stdout.getvalue(), stderr.getvalue()

    def chain(self, name, text, rank, tracer, sample, conns=None, parts=()):
        """Run every verb on one map; return the input flags it handled."""
        pins = self.expected["pipeline"].get(name)
        outputs = {None: text}
        flags = 0
        for step, verb, argv, source in self.steps(rank):
            stdin = outputs.get(source, "")
            code, out, err = self.run_cli(tracer, verb, argv, stdin)
            sample.op(parts, self.clock)
            flags += _flag_count(stdin)
            outputs[step] = out
            if pins is not None:
                ok = self.check(name, step, pins[step], code, out, err, conns)
                sample.outcome(ok, f"{name}: {' '.join(argv)} (exit {code})\n{err[-300:]}")
        return flags

    @staticmethod
    def pin_of(step, code, out, err):
        """What must stay byte-identical: for a successful pso, all but the arrows."""
        if step.startswith("pso ") and code == 0:
            out = "\n".join(out.splitlines()[:-1])
        return {"code": code, "out": checks.text_pin(out), "err": checks.text_pin(err)}

    def check(self, name, step, pin, code, out, err, conns):
        if self.pin_of(step, code, out, err) != pin:
            return False
        if step.startswith("pso ") and code == 0:
            arrows = out.splitlines()[-1].partition("arrows=")[2]
            key = (name, step, hashlib.sha256(arrows.encode()).hexdigest())
            if key not in self.witnessed:
                if not checks.is_arrow_witness(conns, step.split()[1], arrows):
                    return False
                self.witnessed.add(key)
        return True

    def run(self, key, tracer):
        sample = Sample(key)
        flags = 0
        for name in self.order[key]:
            text, rank, conns = self.inputs[name]
            parts = (self.TIER_PART[key],) + (("part_d_s",) if name == self.LONG_THIN else ())
            flags += self.chain(name, text, rank, tracer, sample, conns, parts)
        sample.extra["flags"] = flags
        return sample

    def report(self, samples):
        out = []
        for tier in self.TIERS:
            mine = [s for s in samples if s.key == tier]
            wall = sum(s.wall for s in mine)
            flags = sum(s.extra["flags"] for s in mine)
            out.append((f"pipeline.flags_per_s.{tier}", flags / wall if wall else 0.0,
                        "1/s", f"{flags} input flags over {len(mine)} tier passes"))
        return out


def _flag_count(text: str) -> int:
    head = text[:64].split()
    if len(head) >= 4 and head[2] == "flags":
        return int(head[3])
    return 0


# --- surgery-search ----------------------------------------------------------


class SurgerySearch(Workload):
    name = "surgery-search"
    PROPERTY_MAPS = ("tri-torus 16 16", "grid 20 22 3")
    ISO_MAP = "tri-torus 30 30"
    ISO_COPIES = 4
    DOUBLE_BASE = "tri-torus 14 14"
    SURFACES = tuple([f"n{k}" for k in range(1, 13)] + [f"o{g}" for g in range(8)])
    PARTS = {
        "part_a_s": "make_property, all six goals on tri-torus 16 16 and grid 20 22 3, s",
        "part_b_s": "build_map_with_group over every group and surface n1..n12, o0..o7, s",
        "part_c_s": "is_isomorphic of tri-torus 30 30 against four seeded relabelings, s",
        "part_d_s": "recognize_i_double on the {0}-double of tri-torus 14 14, s",
    }
    UNIT_PART = {"make_property": "part_a_s", "build_group": "part_b_s",
                 "iso": "part_c_s", "recognize": "part_d_s"}
    # Transport tables: is_isomorphic and deck_transformations gather over
    # whole (rows x flags) arrays.
    NUMPY_PARTS = frozenset({"part_c_s", "part_d_s"})

    def setup(self, mf, seed):
        self.mf = mf
        rng = np.random.default_rng(seed)
        gen = mf.corpus.invoke_generator
        self.property_maps = [(text, gen(text)) for text in self.PROPERTY_MAPS]
        parse_surface = mf.flagsys.SurfaceSignature.parse
        self.pairs = [(group, parse_surface(surface))
                      for group in mf.coloring.all_subgroups(2) for surface in self.SURFACES]
        self.iso_base = gen(self.ISO_MAP)
        self.iso_copies = [relabel(mf, self.iso_base, rng.permutation(self.iso_base.flag_count))
                           for _ in range(self.ISO_COPIES)]
        base = gen(self.DOUBLE_BASE)
        self.cover = mf.doubles.i_double(base, (0,)).system
        cube = mf.construct.platonic("cube")
        for goal in mf.construct.MAKE_GOALS:
            mf.construct.make_property(cube, goal)
        mf.construct.build_map_with_group(self.pairs[0][0], parse_surface("n3"))
        mf.flagsys.is_isomorphic(cube, cube)
        mf.doubles.recognize_i_double(mf.doubles.i_double(cube, (0, 1, 2)).system, (0, 1, 2))

    def cycle(self):
        return list(self.UNIT_PART)

    def run(self, key, tracer):
        sample = Sample(key)
        getattr(self, "_" + key)(sample, (self.UNIT_PART[key],))
        return sample

    def _make_property(self, sample, parts):
        pins = self.expected["make_property"]
        for text, system in self.property_maps:
            for goal in self.mf.construct.MAKE_GOALS:
                grown = self.clock.run(self.mf.construct.make_property, system, goal)
                sample.op(parts, self.clock)
                got = checks.system_pin(grown.rank, grown.connections)
                sample.outcome(got == pins.get(f"{text}|{goal}"),
                               f"make_property({text}, {goal}) differs from the pin")

    def _build_group(self, sample, parts):
        pins = self.expected["build"]
        for group, surface in self.pairs:
            try:
                built = self.clock.run(self.mf.construct.build_map_with_group, group, surface)
                got = None
            except self.mf.errors.MapforgeError as exc:
                got = "raise:" + type(exc).__name__
            sample.op(parts, self.clock)
            if got is None:
                got = checks.system_pin(built.rank, built.connections)
            sample.outcome(got == pins.get(f"{group}|{surface}"),
                           f"build_map_with_group({group}, {surface}) gave {got[:40]}")

    def _iso(self, sample, parts):
        source = conns_of(self.iso_base)
        for other in self.iso_copies:
            mapping = self.clock.run(self.mf.flagsys.is_isomorphic, self.iso_base, other)
            sample.op(parts, self.clock)
            ok = mapping is not None and checks.is_isomorphism(source, conns_of(other), mapping)
            sample.outcome(ok, "is_isomorphic missed or returned a bad mapping")

    def _recognize(self, sample, parts):
        found = self.clock.run(self.mf.doubles.recognize_i_double, self.cover, (0,))
        sample.op(parts, self.clock)
        ok = found is not None and checks.is_recognized_double(
            conns_of(self.cover), {0}, found[0], conns_of(found[1]), found[2])
        sample.outcome(ok, "recognize_i_double missed or returned a bad witness")

    def report(self, samples):
        names = {"part_a_s": "surgery.make_property_s", "part_b_s": "surgery.build_group_s",
                 "part_c_s": "search.iso_s", "part_d_s": "search.recognize_s"}
        values = self.part_values(samples, wall=True)
        return [(names[p], values[p], "s",
                 f"wall, median of {sum(self.UNIT_PART[s.key] == p for s in samples)}")
                for p in self.PARTS]


CHECK_IDS = [c for ids in VerifyCorpus.FAMILIES.values() for c in ids]
WORKLOADS = {w.name: w for w in (VerifyCorpus, PipelineScale, SurgerySearch)}
