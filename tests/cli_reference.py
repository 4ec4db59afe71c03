"""The hand-written argument parser of mapforge.cli, kept as an oracle.

These are ``_parser`` and its ``_add_io``, ``_add_json`` and
``_add_sidecar`` helpers as they were before the parser was built from
one table of verbs (``cli._VERBS``), one stanza per verb.  The tests
compare every ``--help`` text and the parse of a list of command lines,
errors included, between this parser and the table-driven one.
"""

from __future__ import annotations

import argparse
import functools

from mapforge.cli import (
    cmd_build_group,
    cmd_color,
    cmd_double,
    cmd_gen,
    cmd_info,
    cmd_iso,
    cmd_pso,
    cmd_quotient,
    cmd_recognize_double,
    cmd_sherk,
    cmd_sum,
    cmd_surgery,
    cmd_tgroup,
    cmd_transform,
    cmd_validate,
    cmd_verify,
)
from mapforge.coloring import PSO_KINDS

def _add_io(sub, output=True):
    sub.add_argument("file", help="flag file, or - for stdin")
    if output:
        sub.add_argument("-o", "--output", default="-",
                         help="output flag file (default stdout)")


def _add_json(sub):
    sub.add_argument("--json", action="store_true",
                     help="machine-readable report")


def _add_sidecar(sub):
    sub.add_argument("--sidecar", default=None,
                     help="write the sidecar report to this file instead of stderr")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapforge",
        description="Flag-system toolkit: maps, colorings, doubles, surgery.")
    verbs = parser.add_subparsers(dest="verb", required=True)

    sub = verbs.add_parser("validate", help="check a flag file against the axioms")
    _add_io(sub, output=False)
    _add_json(sub)
    sub.set_defaults(func=cmd_validate)

    sub = verbs.add_parser("info", help="cell counts, surface, coloring group")
    _add_io(sub, output=False)
    _add_json(sub)
    sub.set_defaults(func=cmd_info)

    sub = verbs.add_parser("color", help="find an I-coloring")
    _add_io(sub, output=False)
    sub.add_argument("-I", dest="set", required=True,
                     help="color set, e.g. 02 or e")
    _add_json(sub)
    sub.set_defaults(func=cmd_color)

    sub = verbs.add_parser("tgroup", help="compute the coloring group")
    _add_io(sub, output=False)
    _add_json(sub)
    sub.set_defaults(func=cmd_tgroup)

    sub = verbs.add_parser("pso", help="direct pseudo-orientation oracle")
    _add_io(sub, output=False)
    sub.add_argument("--kind", required=True, choices=tuple(PSO_KINDS))
    _add_json(sub)
    sub.set_defaults(func=cmd_pso)

    for name in ("dual", "petrie", "opp", "medial"):
        sub = verbs.add_parser(name, help=f"apply the {name} operator")
        _add_io(sub)
        sub.set_defaults(func=cmd_transform)

    sub = verbs.add_parser("double", help="two-sheet cover flipping across I")
    _add_io(sub)
    sub.add_argument("-I", dest="set", required=True)
    _add_sidecar(sub)
    sub.set_defaults(func=cmd_double)

    sub = verbs.add_parser("sherk", help="vertex double of a non-vertex-bipartite map")
    _add_io(sub)
    _add_sidecar(sub)
    sub.set_defaults(func=cmd_sherk)

    sub = verbs.add_parser("recognize-double",
                           help="find a base whose I-double this map is")
    _add_io(sub)
    sub.add_argument("-I", dest="set", required=True)
    _add_sidecar(sub)
    sub.set_defaults(func=cmd_recognize_double)

    sub = verbs.add_parser("quotient", help="quotient by a deck involution")
    _add_io(sub)
    deck = sub.add_mutually_exclusive_group(required=True)
    deck.add_argument("--u", default=None,
                      help="deck permutation as whitespace/comma separated flags")
    deck.add_argument("--u-file", default=None,
                      help="file holding the deck permutation")
    _add_sidecar(sub)
    sub.set_defaults(func=cmd_quotient)

    sub = verbs.add_parser("sum", help="connected sum along same-degree faces")
    sub.add_argument("file_a")
    sub.add_argument("file_b")
    sub.add_argument("--flags", required=True,
                     help="fA,fB: one flag on the chosen face of each map")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=cmd_sum)

    for name in ("subdivide", "double-edge", "triple-edge"):
        sub = verbs.add_parser(name, help=f"{name.replace('-', ' ')} surgery")
        _add_io(sub)
        sub.add_argument("--edge", type=int, required=True,
                         help="any flag on the target edge")
        sub.set_defaults(func=cmd_surgery)

    sub = verbs.add_parser("gen", help="generate a named map")
    sub.add_argument("name")
    sub.add_argument("params", nargs="*", help="generator parameters")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=cmd_gen)

    sub = verbs.add_parser("build-group",
                           help="realize a coloring group on a surface")
    sub.add_argument("--group", required=True, help="e.g. e,0,12,012")
    sub.add_argument("--surface", required=True, help="o<g> or n<k>")
    sub.add_argument("-o", "--output", default="-")
    sub.set_defaults(func=cmd_build_group)

    sub = verbs.add_parser("iso", help="test two flag files for isomorphism")
    sub.add_argument("file_a")
    sub.add_argument("file_b")
    _add_json(sub)
    sub.set_defaults(func=cmd_iso)

    sub = verbs.add_parser("verify", help="run property checks over a corpus")
    sub.add_argument("--corpus", default=None, help="corpus spec JSON file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--operations", default=None,
                     help="comma-separated check ids (default: all)")
    sub.add_argument("--dump", default=None,
                     help="directory for flag files of failing cells")
    sub.set_defaults(func=cmd_verify)

    return parser
