"""Span recorder that times mapforge's layers from outside the package.

``installed(tracer, modules)`` replaces every public function of every
mapforge layer with a timing wrapper, in every module namespace that
binds it (the package itself included), and every ``PROPERTY_CHECKS``
entry.  Leaving the block puts the original objects back.  Spans live in
memory as ``[name, start, end, parent, value]`` lists; ``value`` is an
optional number a per-function observer derives from the call (flags
validated, bytes parsed, decks found, hit or miss).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types

# The package's layers in dependency order.  ``_uf`` is private to
# flagsys, coloring and doubles; ``errors`` does no work.
LAYERS = ("fileio", "flagsys", "coloring", "operators", "doubles",
          "construct", "corpus", "cli")

GENERATORS = ("from_rotation_system", "polygon_gluing", "platonic", "tri_torus",
              "grid_map", "strip_map", "crosscap_map", "cube_maniplex")
SURGERIES = ("subdivide_edge", "double_edge", "triple_edge")
MAP_OPERATORS = ("dual", "petrie", "opposite", "medial")

# Verbs the pipeline workload runs; each gets a ``cli.<verb>`` span.
CLI_VERBS = ("validate", "info", "double", "dual", "tgroup", "petrie", "medial", "pso")


def _flag_count(args, kwargs, result):
    return kwargs["flag_count"] if "flag_count" in kwargs else args[1]


def _found(args, kwargs, result):
    return 0 if result is None else 1


OBSERVERS = {
    "flagsys.validate": _flag_count,
    "fileio.parse_flag_text": lambda args, kwargs, result: len(args[0]),
    "flagsys.deck_transformations": lambda args, kwargs, result: len(result),
    "coloring.find_coloring": _found,
    "doubles.recognize_i_double": _found,
}


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, func, *args):
        return func(*args)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, func, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                record[4] = observe(args, kwargs, result)
            return result

        return wrapper

    def call(self, name, func, *args):
        return self.wrap(name, func)(*args)


def public_functions(module):
    """(name, function) for the functions a module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield name, obj


def _mapforge_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "mapforge" or n.startswith("mapforge.")) and m is not None]


@contextlib.contextmanager
def installed(tracer: Tracer, modules):
    """Wrap the layers' public functions for the duration of the block.

    ``modules`` maps a layer name to its imported module.  ``cli`` verbs
    are spanned by the caller around ``cli.main``; its ``cmd_*`` helpers
    are left alone.
    """
    wrappers = {}
    for layer in LAYERS:
        if layer == "cli":
            continue
        for name, func in public_functions(modules[layer]):
            qual = f"{layer}.{name}"
            wrappers[id(func)] = (func, tracer.wrap(qual, func, OBSERVERS.get(qual)))
    undo = []
    try:
        for module in _mapforge_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))
        checks = modules["corpus"].PROPERTY_CHECKS
        for check_id, func in list(checks.items()):
            checks[check_id] = tracer.wrap(f"corpus.check.{check_id}", func)
            undo.append((checks, check_id, func))
        yield tracer
    finally:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("hit_ratio", "overhead")):
        return "ratio"
    if metric.endswith("bytes_parsed"):
        return "bytes"
    return "count"


def better(metric: str) -> str:
    return "higher" if metric.endswith("hit_ratio") else "lower"


# --- span arithmetic ----------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_name, start, end, _parent, _value) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], cursor)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _inside(spans, names) -> list[bool]:
    """Per span: does some proper ancestor carry one of ``names``?"""
    flags: list[bool] = []
    for span in spans:
        parent = span[3]
        flags.append(parent >= 0 and (flags[parent] or spans[parent][0] in names))
    return flags


def layer_metrics(spans, cycles: int) -> dict[str, float]:
    """Per-layer figures per measured cycle, from one traced run's spans.

    Counts and times are divided by ``cycles``; ratios are not.
    """
    self_s = self_times(spans)
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    values: dict[str, float] = {}
    for span, s in zip(spans, self_s):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + s
        total[name] = total.get(name, 0.0) + span[2] - span[1]
        if span[4] is not None:
            values[name] = values.get(name, 0) + span[4]

    def group(prefix, names, table):
        return sum(table.get(f"{prefix}.{n}", 0) for n in names)

    surgeries = {f"construct.{n}" for n in SURGERIES}
    in_surgery = _inside(spans, surgeries)
    in_recognize = _inside(spans, {"doubles.recognize_i_double"})
    outer_surgeries = sum(1 for span, inside in zip(spans, in_surgery)
                          if span[0] in surgeries and not inside)
    surgery_validations = sum(1 for span, inside in zip(spans, in_surgery)
                              if span[0] == "flagsys.validate" and inside)
    decks_in_recognize = sum(span[4] for span, inside in zip(spans, in_recognize)
                             if span[0] == "flagsys.deck_transformations" and inside)

    def ratio(num, den):
        return num / den if den else 0.0

    per = max(cycles, 1)
    m = {
        "flagsys.validate.calls": calls.get("flagsys.validate", 0) / per,
        "flagsys.validate.flags": values.get("flagsys.validate", 0) / per,
        "flagsys.validate.self_s": own.get("flagsys.validate", 0.0) / per,
        "flagsys.cell_labels.calls": calls.get("flagsys.cell_labels", 0) / per,
        "flagsys.cell_labels.self_s": own.get("flagsys.cell_labels", 0.0) / per,
        "flagsys.surface_signature.self_s": own.get("flagsys.surface_signature", 0.0) / per,
        "coloring.find_coloring.calls": calls.get("coloring.find_coloring", 0) / per,
        "coloring.find_coloring.self_s": own.get("coloring.find_coloring", 0.0) / per,
        "coloring.find_coloring.hit_ratio": ratio(values.get("coloring.find_coloring", 0),
                                                  calls.get("coloring.find_coloring", 0)),
        "coloring.coloring_group.calls": calls.get("coloring.coloring_group", 0) / per,
        "coloring.coloring_group.self_s": own.get("coloring.coloring_group", 0.0) / per,
        "coloring.direct_pso.self_s": own.get("coloring.direct_pso", 0.0) / per,
        "coloring.i_face_bipartite.self_s": own.get("coloring.i_face_bipartite", 0.0) / per,
        "fileio.parse.calls": calls.get("fileio.parse_flag_text", 0) / per,
        "fileio.parse.self_s": own.get("fileio.parse_flag_text", 0.0) / per,
        "fileio.write.self_s": group("fileio", ("write_flag_text", "write_flag_file"), own) / per,
        "fileio.bytes_parsed": values.get("fileio.parse_flag_text", 0) / per,
        "operators.calls": group("operators", MAP_OPERATORS, calls) / per,
        "operators.self_s": group("operators", MAP_OPERATORS, own) / per,
        "doubles.i_double.calls": calls.get("doubles.i_double", 0) / per,
        "doubles.i_double.self_s": own.get("doubles.i_double", 0.0) / per,
        "doubles.quotient.self_s": own.get("doubles.quotient", 0.0) / per,
        "doubles.recognize.self_s": own.get("doubles.recognize_i_double", 0.0) / per,
        "doubles.recognize.decks_per_hit": ratio(decks_in_recognize,
                                                 values.get("doubles.recognize_i_double", 0)),
        "flagsys.is_isomorphic.self_s": own.get("flagsys.is_isomorphic", 0.0) / per,
        "flagsys.deck_transformations.self_s":
            own.get("flagsys.deck_transformations", 0.0) / per,
        "flagsys.deck_transformations.found":
            values.get("flagsys.deck_transformations", 0) / per,
        "construct.generators.self_s": group("construct", GENERATORS, own) / per,
        "construct.surgery.calls": outer_surgeries / per,
        "construct.surgery.self_s": group("construct", SURGERIES, own) / per,
        "construct.validations_per_surgery": ratio(surgery_validations, outer_surgeries),
        "construct.make_property.self_s": own.get("construct.make_property", 0.0) / per,
        "construct.build_map_with_group.self_s":
            own.get("construct.build_map_with_group", 0.0) / per,
        "corpus.build_corpus.s": total.get("corpus.build_corpus", 0.0) / per,
    }
    return m


def check_metrics(spans, check_ids, cycles: int) -> dict[str, float]:
    """Inclusive seconds per cycle spent in each verify property check."""
    total = {check_id: 0.0 for check_id in check_ids}
    for name, start, end, _parent, _value in spans:
        if name.startswith("corpus.check."):
            key = name[len("corpus.check."):]
            total[key] = total.get(key, 0.0) + end - start
    per = max(cycles, 1)
    return {f"corpus.check.{k}.total_s": v / per for k, v in total.items()}


def verb_metrics(spans, cycles: int) -> dict[str, float]:
    """Inclusive seconds per cycle spent in each CLI verb."""
    total = {verb: 0.0 for verb in CLI_VERBS}
    for name, start, end, _parent, _value in spans:
        if name.startswith("cli."):
            verb = name[len("cli."):]
            total[verb] = total.get(verb, 0.0) + end - start
    per = max(cycles, 1)
    return {f"cli.{v}.s": t / per for v, t in total.items()}
