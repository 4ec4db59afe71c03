"""Reproducible map corpus and the property-check registry.

The verify harness generates a deterministic family of maps from a
CorpusSpec, runs every requested check on every map, and reports
pass/fail counts per check.  Checks are pure functions of a map plus a
seeded generator.  One task runs every check of one map, sharing that
map's I-doubles and keeping no other double, and tasks go to worker
processes one map each; output order is fixed by cell index either way.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import numbers
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .coloring import (
    PSO_KINDS,
    ColorSet,
    _cell_route,
    _orthogonal_group,
    coloring_group,
    direct_pso,
    find_coloring,
    i_face_bipartite,
    is_valid_coloring,
    subgroup_closure,
)
from .construct import (
    crosscap_map,
    cube_maniplex,
    double_edge,
    edge_of,
    grid_map,
    make_property,
    platonic,
    polygon_gluing,
    strip_map,
    subdivide_edge,
    tri_torus,
    triple_edge,
    MAKE_GOALS,
    PLATONIC_NAMES,
    _CONFLICT_GOALS,
    _ODD_GOALS,
)
from .doubles import _i_doubles, i_double, recognize_i_double
from .errors import (
    BadParameters,
    LoopEdge,
    UnknownName,
    ValidationError,
)
from .fileio import _write_text, parse_flag_text, read_flag_file, write_flag_text
from .flagsys import (
    _FILL,
    FlagSystem,
    _fill_caches,
    _has_odd_cell,
    _orbits,
    cell_labels,
    check_projection,
    euler_characteristic,
    is_isomorphic,
    surface_signature,
    validate,
)
from .operators import (
    dual,
    dual_color_set,
    medial,
    opposite,
    opposite_color_set,
    petrie,
    petrie_color_set,
)

DEFAULT_SEED = 1729

DEFAULT_GENERATORS = (
    "tetrahedron",
    "cube",
    "octahedron",
    "dodecahedron",
    "icosahedron",
    "polygon aA",
    "polygon aa",
    "polygon abAB",
    "polygon abABcdCD",
    "polygon aabb",
    "polygon abcaCB",
    "polygon aabcBC",
    "polygon aabbcc",
    "crosscap 1",
    "crosscap 2",
    "crosscap 3",
    "crosscap 4",
    "tri-torus 2 2",
    "tri-torus 2 3",
    "tri-torus 3 3",
    "grid 3 3 0",
    "grid 5 7 3",
    "grid 3 5 1",
    "strip 1 0",
    "strip 2 1 0",
    "cube-maniplex 3",
    "cube-maniplex 4",
)


# name -> (arity, builder).  The builders are lambdas that look their
# function up in this module when called, so rebinding one here (a
# tracer, a test's reference) takes effect.  A string arity names the
# one word taken as it is; strip's None is h, parity and any swap rows.
_GENERATORS = {
    **{name: (0, lambda name=name: platonic(name)) for name in PLATONIC_NAMES},
    "tri-torus": (2, lambda m, n: tri_torus(m, n)),
    "grid": (3, lambda m, n, k: grid_map(m, n, k)),
    "strip": (None, lambda h, parity, *swaps: strip_map(h, list(swaps), parity)),
    "polygon": ("one gluing word", lambda word: polygon_gluing(word)),
    "crosscap": (1, lambda k: crosscap_map(k)),
    "cube-maniplex": (1, lambda n: cube_maniplex(n)),
    "file": ("one path", lambda path: read_flag_file(path)),
}


def invoke_generator(text: str) -> FlagSystem:
    """Build a map from a one-line invocation such as ``grid 5 7 3``.

    ``_GENERATORS`` gives each name's arity and builder.  The arguments
    are parsed before the builder runs, so its own errors pass unchanged.
    """
    tokens = text.split()
    if not tokens:
        raise BadParameters("empty generator invocation")
    name, args = tokens[0], tokens[1:]
    if name not in _GENERATORS:
        raise UnknownName(name, tuple(_GENERATORS))
    arity, build = _GENERATORS[name]
    if isinstance(arity, str):
        if len(args) != 1:
            raise BadParameters(f"{name} takes {arity}")
        return build(args[0])
    if arity is None and len(args) < 2:
        raise BadParameters("strip takes h and parity, then optional swap rows")
    if arity is not None and len(args) != arity:
        raise BadParameters(f"{name} takes {arity} argument(s), got {len(args)}")
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise BadParameters(f"{name}: arguments must be integers: {args}") from None
    return build(*nums)


def random_surgery(system: FlagSystem, rng: np.random.Generator) -> FlagSystem:
    """One surgery at a random edge.  Preserves the underlying surface."""
    flag = int(rng.integers(system.flag_count))
    op = int(rng.integers(3))
    try:
        if op == 0:
            return double_edge(system, edge_of(system, flag))
        if op == 1:
            return triple_edge(system, edge_of(system, flag))
    except LoopEdge:
        pass
    return subdivide_edge(system, edge_of(system, flag))


@dataclasses.dataclass(frozen=True)
class CorpusSpec:
    """What to generate and which checks to run over it."""

    seed: int = DEFAULT_SEED
    generators: tuple[str, ...] = DEFAULT_GENERATORS
    surgery_depth: int = 3
    operations: tuple[str, ...] = ()

    def __post_init__(self):
        for key in ("seed", "surgery_depth"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < 0:
                raise BadParameters(f"{key} must be a non-negative integer, got {value!r}")
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "operations", tuple(self.operations))
        for op in self.operations:
            if op not in PROPERTY_CHECKS:
                raise UnknownName(op, tuple(PROPERTY_CHECKS))

    def check_ids(self) -> tuple[str, ...]:
        return self.operations or tuple(PROPERTY_CHECKS)

    @classmethod
    def from_json(cls, text: str) -> "CorpusSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BadParameters(f"corpus file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise BadParameters("corpus file must hold a JSON object")
        known = {"seed", "generators", "surgery_depth", "operations"}
        stray = sorted(set(data) - known)
        if stray:
            raise BadParameters(f"unknown corpus fields: {', '.join(stray)}")
        kwargs = {key: data[key] for key in ("seed", "surgery_depth") if key in data}
        for key in ("generators", "operations"):
            if key in data:
                value = data[key]
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise BadParameters(f"{key} must be a list of strings")
                kwargs[key] = tuple(value)
        return cls(**kwargs)


def build_corpus(spec: CorpusSpec) -> list[tuple[str, FlagSystem]]:
    """Generate the corpus: each base map plus one surgeried variant."""
    rng = np.random.default_rng(spec.seed)
    out = []
    for text in spec.generators:
        system = invoke_generator(text)
        out.append((text, system))
        if spec.surgery_depth > 0 and system.rank == 2:
            varied = system
            for _ in range(spec.surgery_depth):
                varied = random_surgery(varied, rng)
            out.append((f"{text} +{spec.surgery_depth}s", varied))
    return out


# --- property checks -------------------------------------------------
#
# Each check takes (system, rng) and returns None on success or a short
# failure description.  The registry key is the identifier the CLI and
# CorpusSpec.operations refer to.


def _all_color_sets(rank):
    return [ColorSet(rank, m) for m in range(1 << (rank + 1))]


def _pick(rng, options):
    """One seeded uniform draw from a sequence."""
    return options[int(rng.integers(len(options)))]


def _check_axioms(system, rng):
    try:
        validate(system.rank, system.flag_count, system.connections)
    except ValidationError as exc:
        return str(exc)
    return None


def _check_roundtrip(system, rng):
    back = parse_flag_text(write_flag_text(system))
    if back != system:
        return "write/parse round-trip changed the arrays"
    return None


def _check_tgroup(system, rng):
    group = coloring_group(system)
    size = len(group.masks)
    if size & (size - 1):
        return f"group size {size} is not a power of two"
    for member in group.members:
        witness = find_coloring(system, member)
        if witness is None:
            return f"member {member} has no coloring"
        if not is_valid_coloring(system, member, witness.assignment):
            return f"witness for {member} is not a valid coloring"
    return None


def _check_bridges(system, rng):
    for i in range(system.rank + 1):
        colorable = find_coloring(system, ColorSet.of((i,), system.rank)) is not None
        bipartite = i_face_bipartite(system, i)
        if colorable != bipartite:
            return f"i={i}: colorable={colorable} but cell bipartiteness={bipartite}"
    return None


def _check_pso_oracle(system, rng):
    group = coloring_group(system)
    for d in range(system.rank + 1):
        if _orthogonal_group(system.rank, _cell_route(system, d)[3]) != group:
            return f"d={d}: the cell route's group differs from T={group}"
    if system.rank != 2:
        return None
    for kind, (dim, inner, crossing, flip) in PSO_KINDS.items():
        # arrows exist exactly when these letters have a coloring
        colors = ColorSet.of(inner + (crossing,) * flip, 2)
        want = colors in group
        witness = direct_pso(system, kind)
        if (witness is not None) != want:
            return f"{kind}: arrows={'yes' if witness else 'no'} coloring={want}"
        if witness is None:
            continue
        labels, count = cell_labels(system, dim)
        if len(witness.arrows) != count:
            return f"{kind}: arrow count differs from cell count"
        # each flag's side of its cell, from a pass of its own, turned by its cell's arrow
        side = _orbits(system.flag_count, [(None, system.connections[j]) for j in inner], [1, 1])[1]
        if not is_valid_coloring(system, colors, side ^ witness.arrows[labels]):
            return f"{kind}: arrows and cell sides do not make a {colors}-coloring"
    return None


def _odd_letter_pairs(system):
    """Every i such that some <r_i, r_{i+1}> orbit has odd half-length.

    Such an orbit is a 2k-cycle alternating r_i and r_{i+1}, and an
    I-coloring changes colour k([i in I] + [i+1 in I]) times around it,
    so for odd k every I in T(M) holds both of i and i+1 or neither.  At
    rank 2 these orbits are the faces (i = 0) and the vertices (i = 1).
    """
    odd = []
    for i in range(system.rank):
        pair = [(None, system.connections[j]) for j in (i, i + 1)]
        if _has_odd_cell(_orbits(system.flag_count, pair)[0]):  # an orbit's flags share its root
            odd.append(i)
    return odd


def _check_parity_necessity(system, rng):
    group = coloring_group(system)
    for i in _odd_letter_pairs(system):
        pair = 3 << i
        bad = [m for m in group.masks if bin(m & pair).count("1") == 1]
        if bad:  # report {i} or {i+1} alone first, then order by the other letters
            member = ColorSet(system.rank, min(bad, key=lambda m: (m & ~pair, m)))
            where = ("face", "vertex")[i] if system.rank == 2 else f"<r{i}, r{i + 1}> orbit"
            return f"{member} present despite an odd {where}"
    return None


def _check_involutions(system, rng):
    if dual(dual(system)) != system:
        return "dual applied twice is not the identity"
    if system.rank >= 2:
        if opposite(opposite(system)) != system:
            return "opposite applied twice is not the identity"
        if petrie(petrie(system)) != system:
            return "petrie applied twice is not the identity"
    return None


def _check_transfers(system, rng):
    group = coloring_group(system)
    dual_group = coloring_group(dual(system))
    for member in _all_color_sets(system.rank):
        if (member in group) != (dual_color_set(member) in dual_group):
            return f"dual transfer fails at {member}"
    if system.rank < 2:
        return None
    opp_group = coloring_group(opposite(system))
    pet_group = coloring_group(petrie(system))
    for member in _all_color_sets(system.rank):
        if (member in group) != (opposite_color_set(member) in opp_group):
            return f"opposite transfer fails at {member}"
        if (member in group) != (petrie_color_set(member) in pet_group):
            return f"petrie transfer fails at {member}"
    full = ColorSet.full(system.rank)
    all_orientable = full in group and full in opp_group and full in pet_group
    if system.rank == 2 and (len(group.masks) == 8) != all_orientable:
        return ("full power-set group should hold exactly when the map, "
                "its opposite and its petrie are all orientable")
    return None


_MEDIAL_TABLE = (((1,), (0,)), ((0, 2), (1,)), ((0, 1, 2), (0, 1, 2)))


def _check_medial_table(system, rng):
    if system.rank != 2:
        return None
    med = medial(system)
    group = coloring_group(system)
    med_group = coloring_group(med)
    if find_coloring(med, ColorSet.of((2,), 2)) is None:
        return "medial is not face-bipartite"
    for src, dst in _MEDIAL_TABLE:
        if (ColorSet.of(src, 2) in group) != (ColorSet.of(dst, 2) in med_group):
            return f"medial table row {src} -> {dst} fails"
    if euler_characteristic(med) != euler_characteristic(system):
        return "medial changed the Euler characteristic"
    if cell_labels(med, 0)[1] != cell_labels(system, 1)[1]:
        return "medial vertex count differs from edge count"
    return None


# inside _run_map: the map under test, and once asked, its doubles by mask
_map = None
_doubles: list | None = None


def _double(system, member):
    """i_double, kept only for the map under test, whose first ask builds them all."""
    if system is not _map:
        return i_double(system, member)
    global _doubles
    _doubles = _doubles or _i_doubles(system, _all_color_sets(system.rank))
    return _doubles[member.mask]


def _check_dubgp(system, rng):
    group = coloring_group(system)
    for member in _all_color_sets(system.rank):
        grown = coloring_group(_double(system, member).system)
        want = subgroup_closure(system.rank, list(group.masks) + [member.mask])
        if grown.masks != want.masks:
            return f"double by {member}: group {grown} != closure {want}"
    return None


def _check_double_split(system, rng):
    group = coloring_group(system)
    for member in _all_color_sets(system.rank):
        result = _double(system, member)
        if result.split != (member in group):
            return f"split flag wrong for {member}"
        ok, _ = check_projection(result.system, system, result.projection)
        if not ok:
            return f"projection is not a covering for {member}"
        if result.split and result.system.flag_count != system.flag_count:
            return f"split double by {member} kept the wrong component"
    return None


def _check_shift(system, rng):
    group = coloring_group(system)
    nontrivial = [m for m in group.members if m.mask]
    if not nontrivial:
        return None
    shift_by = _pick(rng, nontrivial)
    member = _pick(rng, _all_color_sets(system.rank))
    left = _double(system, member).system
    right = _double(system, member ^ shift_by).system
    if is_isomorphic(left, right) is None:
        return f"doubles by {member} and {member ^ shift_by} are not isomorphic"
    return None


def _check_saturation(system, rng):
    grown = system
    for i in range(system.rank, -1, -1):
        grown = _double(grown, ColorSet.of((i,), system.rank)).system
    if len(coloring_group(grown).masks) != 1 << (system.rank + 1):
        return "chain of singleton doubles did not reach the full power set"
    return None


def _check_minimality(system, rng):
    group = coloring_group(system)
    outside = [m for m in _all_color_sets(system.rank) if m not in group]
    if not outside:
        return None
    member = _pick(rng, outside)
    double = _double(system, member)
    shift_by = _pick(rng, _all_color_sets(system.rank))
    redouble = _double(double.system, shift_by)
    composite = double.projection[redouble.projection]
    witness = find_coloring(redouble.system, member)
    if witness is None:
        return "iterated double lost the original colorability"
    bits = witness.assignment.astype(np.intp)
    for sheet in (bits, 1 - bits):
        ok, _ = check_projection(
            redouble.system, double.system, 2 * composite + sheet)
        if ok:
            return None
    return "no sheet assignment projects the iterated double onto the double"


def _check_recognition(system, rng):
    group = coloring_group(system)
    outside = [m for m in _all_color_sets(system.rank) if m not in group]
    if not outside:
        return None
    member = _pick(rng, outside)
    cover = _double(system, member).system
    found = recognize_i_double(cover, member)
    if found is None:
        return f"failed to recognize the {member}-double"
    _, base, projection = found
    if is_isomorphic(system, base) is None:  # system's search plan serves relabel too
        return f"recognized base of the {member}-double is not isomorphic"
    ok, _ = check_projection(cover, base, projection)
    if not ok:
        return "recognized projection is not a covering"
    return None


def _grow(system, build, items):
    """build(system, item) for each item, an exception standing in for its
    output, so that a check can report the first failure in item order.
    When system's fill, 2N label nodes and N parity nodes, takes at most
    half of one _union pass (flagsys._FILL nodes), every output is built
    first and one _fill_caches call fills them all with system.  A larger
    system's outputs are built one at a time as the check reaches them,
    each making its own passes: batched, they measured slower there."""
    def one(item):
        try:
            return build(system, item)
        except Exception as exc:
            return exc

    if 2 * 3 * system.flag_count > _FILL:
        return map(one, items)
    out = [one(item) for item in items]
    _fill_caches([system] + [g for g in out if isinstance(g, FlagSystem)])
    return out


def _check_surgery_chi(system, rng):
    if system.rank != 2:
        return None
    edge = edge_of(system, int(rng.integers(system.flag_count)))
    surgeries = (("subdivide", subdivide_edge, 1, 0), ("double", double_edge, 0, 1),
                 ("triple", triple_edge, 0, 2))  # vertices, faces added; edges: their sum
    grown = _grow(system, lambda s, op: op(s, edge), [op for _, op, _, _ in surgeries])
    signature = surface_signature(system)
    v, f = cell_labels(system, 0)[1], cell_labels(system, 2)[1]
    for (name, _, dv, df), result in zip(surgeries, grown):
        if isinstance(result, LoopEdge):
            if name != "triple":
                return f"{name} refused a valid edge"
            continue
        if isinstance(result, Exception):
            raise result
        if result.flag_count != system.flag_count + 4 * (dv + df):
            return f"{name} added {result.flag_count - system.flag_count} flags"
        if surface_signature(result) != signature:
            return f"{name} changed the surface"
        if (cell_labels(result, 0)[1] - v, cell_labels(result, 2)[1] - f) != (dv, df):
            return f"{name} did not add {dv} vertices and {df} faces"
    return None


def _goal_holds(system, goal):
    if goal in _CONFLICT_GOALS:  # asked of the parity pass, not of the cell route
        return _CONFLICT_GOALS[goal][1] in coloring_group(system)
    return _has_odd_cell(cell_labels(system, _ODD_GOALS[goal])[0])


def _check_make_property(system, rng):
    if system.rank != 2:
        return None
    grown = _grow(system, make_property, MAKE_GOALS)
    signature = surface_signature(system)
    for goal, result in zip(MAKE_GOALS, grown):
        if isinstance(result, Exception):
            raise result
        if not _goal_holds(result, goal):
            return f"make_property({goal}) postcondition fails"
        if surface_signature(result) != signature:
            return f"make_property({goal}) changed the surface"
    return None


def _check_relabel(system, rng):
    perm = rng.permutation(system.flag_count)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(system.flag_count)
    shuffled = validate(
        system.rank, system.flag_count,
        [perm[conn[inverse]] for conn in system.connections])
    if is_isomorphic(system, shuffled) is None:
        return "relabeled copy not recognized as isomorphic"
    return None


PROPERTY_CHECKS = {
    "axioms": _check_axioms,
    "roundtrip": _check_roundtrip,
    "tgroup": _check_tgroup,
    "bridges": _check_bridges,
    "pso-oracle": _check_pso_oracle,
    "parity-necessity": _check_parity_necessity,
    "involutions": _check_involutions,
    "transfers": _check_transfers,
    "medial-table": _check_medial_table,
    "dubgp": _check_dubgp,
    "double-split": _check_double_split,
    "shift": _check_shift,
    "saturation": _check_saturation,
    "minimality": _check_minimality,
    "recognition": _check_recognition,
    "surgery-chi": _check_surgery_chi,
    "make-property": _check_make_property,
    "relabel": _check_relabel,
}


# --- runner ----------------------------------------------------------


class _LazyGenerator:
    """np.random.default_rng(seed), built on first use: most checks draw nothing."""

    def __init__(self, seed):
        self._seed = seed

    def __getattr__(self, name):
        return getattr(self._generator, name)

    _generator = functools.cached_property(lambda self: np.random.default_rng(self._seed))


def _run_map(seed, first_index, system, ids):
    """Run every check of one map in order, sharing one memo of its doubles."""
    global _doubles, _map
    _doubles, _map, details = None, system, []
    try:
        for index, check_id in enumerate(ids, first_index):
            try:
                details.append(PROPERTY_CHECKS[check_id](system, _LazyGenerator((seed, index))))
            except Exception as exc:  # one failing check must not abort the run
                details.append(f"{type(exc).__name__}: {exc}")
    finally:
        _doubles = _map = None
    return details


def run_verify(spec: CorpusSpec, workers: int | None = None,
               dump_dir: str | None = None, emit=print) -> bool:
    """Run the harness; emit report lines; return True iff all cells pass.

    Cells are laid out map-major: all checks for corpus map 0, then map 1,
    and so on.  Each map is one task (_run_map), which runs in a process
    pool of at most one process a map when workers > 1; the report is in
    cell-index order either way.
    """
    corpus = build_corpus(spec)
    ids = spec.check_ids()
    tasks = ([spec.seed] * len(corpus), range(0, len(corpus) * len(ids), len(ids)),
             [system for _, system in corpus], [ids] * len(corpus))
    workers = min(workers or 1, len(corpus))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_map, *tasks))
    else:
        rows = list(map(_run_map, *tasks))
    details = [detail for row in rows for detail in row]

    for index, detail in enumerate(details):
        if detail is None:
            continue
        (map_name, system), check_id = corpus[index // len(ids)], ids[index % len(ids)]
        emit(f"FAIL {check_id} [{map_name}]: {detail}")
        if dump_dir is not None:
            safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", map_name)
            path = os.path.join(dump_dir, f"{index:04d}-{check_id}-{safe}.flags")
            _write_text(path, write_flag_text(system), mkdir=True)
            emit(f"  dumped {path}")
    for ci, check_id in enumerate(ids):
        bad = sum(d is not None for d in details[ci::len(ids)])
        emit(f"{check_id} pass={len(corpus) - bad} fail={bad}")
    failures = sum(d is not None for d in details)
    emit(f"maps={len(corpus)} cells={len(details)} failures={failures}")
    return failures == 0
