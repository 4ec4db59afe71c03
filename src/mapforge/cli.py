"""Command-line surface: generate, transform, inspect and verify maps.

Every verb that takes a flag file accepts ``-`` for stdin, so verbs
compose in pipelines (``mapforge gen cube | mapforge medial | mapforge
info -``).  Reports are ``key=value`` lines unless ``--json`` is given.
Exit codes: 0 success, 1 property or precondition failure, 2 malformed
input: a flag file or stdin that is not UTF-8 or fails to parse or
validate; a ``quotient --u-file`` that cannot be read or is not UTF-8;
a ``quotient`` given both or neither of ``--u`` and ``--u-file``;
a ``verify`` spec that cannot be read or holds bad JSON, an unknown
field or an unknown generator; a seed (spec, ``MAPFORGE_SEED`` or
``--seed``) or depth that is not a non-negative integer; an unknown
``--operations`` id; a ``--workers`` count below 1; an output path
(``-o``, ``--sidecar``, ``verify --dump``) that cannot be written.

``main(argv)`` may be called repeatedly in one process: the first call
builds the parser and later calls reuse it.  ``_VERBS`` is the one list
of verbs, their help and their options.  It holds only the ``cmd_*``
commands, which look up their library functions in this module at call
time, so rebinding one here (a tracer, a test spy) takes effect on the
next call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .coloring import (
    PSO_KINDS, ColorSet, ColoringGroup, _pso_roots, coloring_group, direct_pso, find_coloring)
from .construct import (
    build_map_with_group, connected_sum, double_edge, edge_of, subdivide_edge, triple_edge)
from .corpus import CorpusSpec, invoke_generator, run_verify
from .doubles import i_double, quotient, recognize_i_double, sherk_double
from .errors import (
    BadParameters,
    FlagFileError,
    MapforgeError,
    UnknownName,
    ValidationError,
)
from .fileio import _read_text, _row, _write_text, parse_flag_text, write_flag_text
from .flagsys import (
    FlagSystem,
    _parity_roots,
    cell_labels,
    is_isomorphic,
    surface_signature,
    SurfaceSignature,
)
from .operators import dual, medial, opposite, petrie


def _read_system(path: str, first=None) -> FlagSystem:
    """The system in a flag file, or on stdin for "-".  `first`, when given, is
    the pass the verb reads next, which validate runs as its connectivity pass."""
    if path != "-":
        return parse_flag_text(_read_text(path), _first=first)
    try:
        text = sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise FlagFileError(None, None, f"stdin is not UTF-8 text: {exc}") from None
    return parse_flag_text(text, _first=first)


def _write_system(system: FlagSystem, path: str | None) -> None:
    text = write_flag_text(system)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _report(args, pairs) -> None:
    if getattr(args, "json", False):
        print(json.dumps(dict(pairs)))
    else:
        for key, value in pairs:
            if isinstance(value, bool):
                value = "true" if value else "false"
            print(f"{key}={value}")


def _sidecar_lines(args, lines) -> None:
    path = getattr(args, "sidecar", None)
    if path is None or path == "-":
        for line in lines:
            print(line, file=sys.stderr)
    else:
        _write_text(path, "\n".join(lines) + "\n")


def _bit_text(bits, symbols: bytes) -> str:
    """A 0/1 uint8 array as one character per entry, symbols[0] or symbols[1]."""
    return bits.tobytes().translate(bytes.maketrans(b"\0\1", symbols)).decode("ascii")


def _degree_summary(labels) -> str:
    degrees, counts = np.unique(np.bincount(labels) // 2, return_counts=True)
    return ",".join(f"{d}:{n}" for d, n in zip(degrees.tolist(), counts.tolist()))


# --- verbs -----------------------------------------------------------


def cmd_validate(args) -> int:
    system = _read_system(args.file)
    _report(args, [("ok", True), ("rank", system.rank), ("flags", system.flag_count)])
    return 0


def cmd_info(args) -> int:
    system = _read_system(args.file, _parity_roots)
    group = coloring_group(system)
    if system.rank != 2:
        pairs = [("rank", system.rank), ("flags", system.flag_count)]
        pairs += [(f"cells{i}", cell_labels(system, i)[1]) for i in range(system.rank + 1)]
        pairs.append(("T", str(group)))
        _report(args, pairs)
        return 0
    (vertices, nv), (faces, nf) = cell_labels(system, 0), cell_labels(system, 2)
    ne = system.flag_count // 4  # every rank-2 edge has four flags (see euler_characteristic)
    signature = surface_signature(system)
    chi = signature.euler_characteristic
    if args.json:
        print(json.dumps({
            "rank": 2, "flags": system.flag_count,
            "V": nv, "E": ne, "F": nf,
            "chi": chi, "surface": str(signature), "T": str(group),
            "vertex_degrees": _degree_summary(vertices),
            "face_degrees": _degree_summary(faces),
        }))
        return 0
    print("rank=2")
    print(f"flags={system.flag_count}")
    print(f"V={nv} E={ne} F={nf} chi={chi} surface={signature} T={group}")
    print(f"vertex_degrees={_degree_summary(vertices)}")
    print(f"face_degrees={_degree_summary(faces)}")
    return 0


def cmd_color(args) -> int:
    system = _read_system(args.file, _parity_roots)
    witness = find_coloring(system, ColorSet.parse(args.set, system.rank))
    if witness is None:
        _report(args, [("colorable", False)])
        return 1
    line = _bit_text(witness.assignment, b"01")
    if args.json:
        print(json.dumps({"colorable": True, "assignment": line}))
    else:
        print(line)
    return 0


def cmd_tgroup(args) -> int:
    system = _read_system(args.file, _parity_roots)
    group = coloring_group(system)
    _report(args, [("T", str(group)), ("size", len(group.masks))])
    return 0


def cmd_pso(args) -> int:
    system = _read_system(args.file, functools.partial(_pso_roots, kind=args.kind))
    witness = direct_pso(system, args.kind)
    if witness is None:
        _report(args, [("pseudo_orientable", False), ("kind", args.kind)])
        return 1
    arrows = _bit_text(witness.arrows, b"+-")
    _report(args, [("pseudo_orientable", True), ("kind", args.kind),
                   ("cell_dimension", witness.cell_dimension), ("arrows", arrows)])
    return 0


def cmd_transform(args) -> int:
    op = {"dual": dual, "petrie": petrie, "opp": opposite, "medial": medial}[args.verb]
    _write_system(op(_read_system(args.file)), args.output)
    return 0


def cmd_double(args) -> int:
    system = _read_system(args.file)
    result = i_double(system, ColorSet.parse(args.set, system.rank))
    _write_system(result.system, args.output)
    _sidecar_lines(args, [
        f"split: {'true' if result.split else 'false'}",
        f"projection: {_row(result.projection)}",
    ])
    return 0


def cmd_sherk(args) -> int:
    cover = sherk_double(_read_system(args.file))
    _write_system(cover, args.output)
    # the {0}-double numbers flag (f, i) as 2f+i
    _sidecar_lines(args, [
        "split: false",
        f"projection: {_row(np.arange(cover.flag_count) // 2)}",
    ])
    return 0


def cmd_recognize_double(args) -> int:
    system = _read_system(args.file)
    found = recognize_i_double(system, ColorSet.parse(args.set, system.rank))
    if found is None:
        _sidecar_lines(args, ["found: false"])
        return 1
    deck, base, projection = found
    _write_system(base, args.output)
    _sidecar_lines(args, [
        "found: true",
        f"deck: {_row(deck)}",
        f"projection: {_row(projection)}",
    ])
    return 0


def cmd_quotient(args) -> int:
    system = _read_system(args.file)
    if args.u is not None:
        tokens = args.u.replace(",", " ").split()
    else:
        tokens = _read_text(args.u_file).split()
    try:
        deck = [int(t) for t in tokens]
    except ValueError:
        raise BadParameters("deck permutation must be a list of integers") from None
    base, projection = quotient(system, deck)
    _write_system(base, args.output)
    _sidecar_lines(args, [f"projection: {_row(projection)}"])
    return 0


def cmd_sum(args) -> int:
    first = _read_system(args.file_a)
    second = _read_system(args.file_b)
    try:
        flag_a, flag_b = (int(t) for t in args.flags.split(","))
    except ValueError:
        raise BadParameters("--flags takes two comma-separated integers") from None
    _write_system(connected_sum(first, second, flag_a, flag_b), args.output)
    return 0


def cmd_surgery(args) -> int:
    op = {"subdivide": subdivide_edge, "double-edge": double_edge,
          "triple-edge": triple_edge}[args.verb]
    system = _read_system(args.file)
    _write_system(op(system, edge_of(system, args.edge)), args.output)
    return 0


def cmd_gen(args) -> int:
    _write_system(invoke_generator(" ".join([args.name] + args.params)), args.output)
    return 0


def cmd_build_group(args) -> int:
    group = ColoringGroup.parse(args.group, 2)
    surface = SurfaceSignature.parse(args.surface)
    _write_system(build_map_with_group(group, surface), args.output)
    return 0


def cmd_iso(args) -> int:
    mapping = is_isomorphic(_read_system(args.file_a), _read_system(args.file_b))
    if mapping is None:
        _report(args, [("isomorphic", False)])
        return 1
    _report(args, [("isomorphic", True), ("mapping", _row(mapping))])
    return 0


def _verify_spec(args) -> CorpusSpec:
    spec = CorpusSpec()
    if args.corpus is not None:
        spec = CorpusSpec.from_json(_read_text(args.corpus))
    env_seed = os.environ.get("MAPFORGE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise BadParameters(
                f"MAPFORGE_SEED must be an integer, got {env_seed!r}") from None
        spec = dataclasses.replace(spec, seed=seed)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    return spec


def cmd_verify(args) -> int:
    try:
        if args.workers is not None and args.workers < 1:
            raise BadParameters(f"--workers must be at least 1, got {args.workers}")
        spec = _verify_spec(args)
        if args.operations is not None:
            spec = dataclasses.replace(
                spec, operations=tuple(args.operations.split(",")))
    except (FlagFileError, BadParameters, UnknownName) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ok = run_verify(spec, workers=args.workers, dump_dir=args.dump)
    except ValidationError as exc:
        print(f"FAIL corpus generation: {exc}")
        return 1
    except (BadParameters, UnknownName) as exc:
        # the checks catch their own errors, so this is a bad generator line
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


# --- parser ----------------------------------------------------------


def _arg(*flags, **kwargs):
    """One option: the arguments of an ``add_argument`` call."""
    return flags, kwargs


_IN = (_arg("file", help="flag file, or - for stdin"),)
_IO = _IN + (_arg("-o", "--output", default="-", help="output flag file (default stdout)"),)
_OUT = _arg("-o", "--output", default="-")
_JSON = (_arg("--json", action="store_true", help="machine-readable report"),)
_SIDECAR = (_arg("--sidecar", default=None,
                 help="write the sidecar report to this file instead of stderr"),)
_SET = _arg("-I", dest="set", required=True)
_TWO_FILES = (_arg("file_a"), _arg("file_b"))

# verb -> (help, command, file arguments, own options, report option),
# added in that order; quotient's --u and --u-file go before its report.
_VERBS = {
    "validate": ("check a flag file against the axioms", cmd_validate, _IN, (), _JSON),
    "info": ("cell counts, surface, coloring group", cmd_info, _IN, (), _JSON),
    "color": ("find an I-coloring", cmd_color, _IN,
              (_arg("-I", dest="set", required=True, help="color set, e.g. 02 or e"),), _JSON),
    "tgroup": ("compute the coloring group", cmd_tgroup, _IN, (), _JSON),
    "pso": ("direct pseudo-orientation oracle", cmd_pso, _IN,
            (_arg("--kind", required=True, choices=tuple(PSO_KINDS)),), _JSON),
    **{name: (f"apply the {name} operator", cmd_transform, _IO, (), ())
       for name in ("dual", "petrie", "opp", "medial")},
    "double": ("two-sheet cover flipping across I", cmd_double, _IO, (_SET,), _SIDECAR),
    "sherk": ("vertex double of a non-vertex-bipartite map", cmd_sherk, _IO, (), _SIDECAR),
    "recognize-double": ("find a base whose I-double this map is", cmd_recognize_double,
                         _IO, (_SET,), _SIDECAR),
    "quotient": ("quotient by a deck involution", cmd_quotient, _IO, (), _SIDECAR),
    "sum": ("connected sum along same-degree faces", cmd_sum, (), _TWO_FILES + (
        _arg("--flags", required=True, help="fA,fB: one flag on the chosen face of each map"),
        _OUT), ()),
    **{name: (f"{name.replace('-', ' ')} surgery", cmd_surgery, _IO,
              (_arg("--edge", type=int, required=True, help="any flag on the target edge"),), ())
       for name in ("subdivide", "double-edge", "triple-edge")},
    "gen": ("generate a named map", cmd_gen, (),
            (_arg("name"), _arg("params", nargs="*", help="generator parameters"), _OUT), ()),
    "build-group": ("realize a coloring group on a surface", cmd_build_group, (), (
        _arg("--group", required=True, help="e.g. e,0,12,012"),
        _arg("--surface", required=True, help="o<g> or n<k>"),
        _OUT), ()),
    "iso": ("test two flag files for isomorphism", cmd_iso, (), _TWO_FILES, _JSON),
    "verify": ("run property checks over a corpus", cmd_verify, (), (
        _arg("--corpus", default=None, help="corpus spec JSON file"),
        _arg("--seed", type=int, default=None),
        _arg("--workers", type=int, default=None),
        _arg("--operations", default=None, help="comma-separated check ids (default: all)"),
        _arg("--dump", default=None, help="directory for flag files of failing cells")), ()),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapforge",
        description="Flag-system toolkit: maps, colorings, doubles, surgery.")
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, command, files, own, report) in _VERBS.items():
        sub = verbs.add_parser(verb, help=text)
        for flags, kwargs in files + own:
            sub.add_argument(*flags, **kwargs)
        if verb == "quotient":
            deck = sub.add_mutually_exclusive_group(required=True)
            deck.add_argument("--u", default=None,
                              help="deck permutation as whitespace/comma separated flags")
            deck.add_argument("--u-file", default=None,
                              help="file holding the deck permutation")
        for flags, kwargs in report:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(func=command)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except MapforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (FlagFileError, ValidationError)):
            return 2
        return 1
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
