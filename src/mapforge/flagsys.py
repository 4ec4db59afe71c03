"""Flag systems: edge-colored flag graphs encoding maps and maniplexes.

A rank-n system consists of N flags and n+1 connection involutions
r_0..r_n.  Connections act on the right: crossing r_i replaces the
dimension-i part of a flag's incidence chain.  Axioms checked by
validate():

* every r_i is a fixed-point-free involution,
* r_i and r_j commute and disagree everywhere whenever j >= i + 2,
* the flags form a single orbit under all connections.

Rank 2 systems are maps on closed surfaces; cells of dimension 0, 1, 2
are vertices, edges, faces.

Every orbit question in the package (connectivity, cells, colorings,
T(M), pseudo-orientations, splitting of doubles) is answered by one
private numpy kernel, _orbits.  It takes nodes 0..n-1 and groups of
undirected edges, optionally with an XOR bitmask per edge, and returns
for every node the smallest node of its orbit plus its bitmask
potential relative to that node.  It hooks roots onto smaller
neighbouring roots and pointer-jumps (Shiloach-Vishkin), so a handful of
whole-array passes replace one Python step per flag.  A system is
immutable, so it caches one parity pass (FlagSystem._parity, whose
potentials an I-double keeps from the pass that built it), the
coloring group read off it (FlagSystem._group), the transport plan of
the isomorphism search (FlagSystem._plan), the invariant flag classes
that is_isomorphic falls back on (FlagSystem._classes), the edge list
that make_property's surgeries read (construct._edge_flags) and, per cell
dimension, one label pass (cell_labels) and one cell route
(coloring._cell_route); pso-oracle compares the two routes at every
rank.  _union runs the kernel over disjoint unions, up to _FILL nodes a
pass unless one block alone is larger, for doubles._i_doubles and for
_fill_caches, which fills the label and parity passes that verify's
surgery-chi and make-property checks read of the maps they grow.

The isomorphism search transports candidate images of flag 0 along a
BFS tree of the source, one level at a time: each level of the plan
is one gather from the concatenated target connections for a whole
block of candidates.  The plan (_transport_plan) comes from one Python
pass over the connections as lists below N * (rank + 1) = _LISTED_PLAN,
about 430 flags at rank 2 where the two builders cross, and from a
numpy level loop above it; both give the same arrays.  is_isomorphic
tries the first candidate alone and then one block; past that it
compares the histograms of the flag classes, cycle lengths of five
words (_flag_classes), and tries only the candidates that send the
rarest class onto its own.  A pair of maps with equal histograms and
large classes, such as two flag-transitive maps that are not
isomorphic, still costs Theta(N^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadParameters,
    Disconnected,
    FixedPoint,
    NonCommuting,
    NotDisjoint,
    NotInvolution,
    OddCharacteristicOrientable,
    OutOfRange,
    RankMismatch,
    RankNotTwo,
)

__all__ = [
    "FlagSystem",
    "Cell",
    "SurfaceSignature",
    "validate",
    "cells",
    "cell_labels",
    "euler_characteristic",
    "surface_signature",
    "apply_word",
    "is_isomorphic",
    "deck_transformations",
    "check_projection",
]


@dataclass(frozen=True, eq=False)
class FlagSystem:
    """Immutable flag system.  validate() builds one from outside data;
    constructions that provably keep the axioms use _assemble()."""

    rank: int
    connections: tuple[np.ndarray, ...]

    @cached_property
    def _pot(self) -> np.ndarray:
        """Read-only potentials of one parity pass, flip 1 << j on r_j; may be seeded."""
        flips = [1 << j for j in range(self.rank + 1)]
        pot = _orbits(self.flag_count, [(None, c) for c in self.connections], flips)[1]
        return _freeze(pot, pot.dtype)

    @cached_property
    def _parity(self) -> tuple[np.ndarray, list[int]]:
        """(pot, cycle basis) of that parity pass."""
        flips = [1 << j for j in range(self.rank + 1)]
        return self._pot, _cycle_basis(self._pot, [(None, c) for c in self.connections], flips)

    @cached_property
    def _group(self):
        """coloring.coloring_group's result, derived once from _parity."""
        from .coloring import _orthogonal_group
        return _orthogonal_group(self.rank, self._parity[1])

    _labels = cached_property(lambda self: {})  # omit -> cell_labels result
    _routes = cached_property(lambda self: {})  # (dim, pass) -> coloring._cell_route passes
    _plan = cached_property(lambda self: _transport_plan(self))  # the isomorphism search's BFS
    _classes = cached_property(lambda self: _flag_classes(self))  # is_isomorphic's flag invariant

    def __reduce__(self):  # unpickling validates afresh, with empty caches
        return validate, (self.rank, self.flag_count, self.connections)

    @property
    def flag_count(self) -> int:
        return len(self.connections[0])

    def connection(self, i: int) -> np.ndarray:
        return self.connections[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlagSystem):
            return NotImplemented
        return self.rank == other.rank and all(
            np.array_equal(a, b) for a, b in zip(self.connections, other.connections)
        )

    def __hash__(self) -> int:
        return hash((self.rank, tuple(c.tobytes() for c in self.connections)))

    def __repr__(self) -> str:
        return f"FlagSystem(rank={self.rank}, flags={self.flag_count})"


def _freeze(arr, dtype=np.intp) -> np.ndarray:
    """A read-only contiguous array of `dtype`; copies only to convert."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _orbits(n: int, edges, flips=None):
    """Orbits of nodes 0..n-1 under undirected edges, with XOR potentials.

    `edges` lists edge groups as (src, dst) index arrays; src None stands
    for every node in order, so a connection array is a group by itself.
    Each group must list every edge in both directions, as an involution
    does.  `flips`, when given, holds one entry per group: an int bitmask
    or an array with one mask per edge, equal on both directions.  The
    potentials then satisfy pot[src] ^ pot[dst] == flip along a spanning
    forest of the edges; on every other edge the XOR of both potentials
    and the flip is a cycle mask (see _cycle_basis), all of them zero
    exactly when the relations are consistent.

    A first group with src None, an involution, is hooked in one step
    (each node points at the smaller end of its pair) and never swept
    again.  Each sweep takes the other groups in turn.  Every root
    adjacent to a smaller root hooks onto the smallest such root, taking
    its potential from one witness edge, then pointer jumping runs until
    each node points at its root, XOR-ing potentials along every jump.
    Sweeps repeat until one hooks nothing.  Potentials use the narrowest
    unsigned dtype that holds every flip, up to 64 bits.  Over a disjoint
    union, a block that keeps its edges and its nodes' order gets the roots,
    shifted by its first node, and the potentials of a pass of its own.

    Returns (root, pot, rounds): root[x] is the smallest node of x's
    orbit, pot is None without flips, and rounds counts the sweeps that
    hooked at least one root.
    """
    parent = np.arange(n, dtype=np.intp)
    pot = None
    if flips is not None:
        top = max((w if isinstance(w, int) else int(w.max(initial=0)) for w in flips), default=0)
        pot = np.zeros(n, dtype=np.min_scalar_type(top))
    rounds = first = hooked = 0
    if edges and edges[0][0] is None:  # an involution: its pairs hook in one step
        below = edges[0][1] < parent
        np.minimum(parent, edges[0][1], out=parent)
        if pot is not None:
            pot[below] = flips[0] if isinstance(flips[0], int) else flips[0][below]
        first, hooked = 1, np.count_nonzero(below)
    while True:
        for k, (src, dst) in enumerate(edges[first:], first):
            a = parent if src is None else parent[src]
            b = parent[dst]
            # Both directions are listed, so hooking from the larger end suffices.
            sel = (a > b).nonzero()[0]
            if not sel.size:
                continue
            hooked = True
            hi, lo = a[sel], b[sel]
            del a, b  # keep at most two full-length temporaries alive
            np.minimum.at(parent, hi, lo)
            if pot is not None:
                w = flips[k]
                d = pot[sel if src is None else src[sel]] ^ pot[dst[sel]]
                d ^= w if isinstance(w, int) else w[sel]
                win = parent[hi] == lo
                pot[hi[win]] = d[win]
            while True:
                grand = parent[parent]
                if not np.count_nonzero(grand != parent):
                    break
                if pot is not None:
                    pot ^= pot[parent]
                parent = grand
        if not hooked:
            return parent, pot, rounds
        rounds += 1
        hooked = False


def _cycle_basis(pot: np.ndarray, edges, flips) -> list[int]:
    """GF(2) basis of the masks pot[src] ^ pot[dst] ^ flip over every edge.

    After _orbits these masks are the XOR sums of flips around cycles of
    the edge graph and span its whole cycle space, so the basis is empty
    exactly when the relations are consistent.  Each basis mask clears
    its highest bit from every later residual.
    """
    basis: list[int] = []
    for (src, dst), w in zip(edges, flips):
        res = (pot if src is None else pot[src]) ^ pot[dst]
        res ^= w
        for c in basis:
            res ^= (res >> (c.bit_length() - 1) & 1) * c
        while c := int(res.max(initial=0)):
            basis.append(c)
            res ^= (res >> (c.bit_length() - 1) & 1) * c
    return basis


def validate(rank: int, flag_count: int, raw_connections) -> FlagSystem:
    """Check the axioms and return the immutable system.

    raw_connections is a sequence of rank+1 integer sequences, each of
    length flag_count, giving the image of every flag under r_i.
    """
    if rank < 1:
        raise BadParameters(f"rank must be at least 1, got {rank}")
    if flag_count < 1:
        raise BadParameters(f"flag count must be positive, got {flag_count}")
    if len(raw_connections) != rank + 1:
        raise BadParameters(
            f"expected {rank + 1} connections for rank {rank}, got {len(raw_connections)}"
        )
    conns = []
    ident = np.arange(flag_count, dtype=np.intp)
    for i, raw in enumerate(raw_connections):
        arr = np.asarray(raw)
        if arr.shape != (flag_count,):
            raise BadParameters(
                f"connection r{i} has length {arr.size}, expected {flag_count}"
            )
        if arr.dtype.kind not in "iu":
            if not all(type(v) is int or isinstance(v, np.integer) for v in raw):
                raise BadParameters(f"connection r{i} has entries that are not integers")
            # ints that numpy holds in no integer dtype: one lies outside int64
            f = next(f for f, v in enumerate(raw) if not 0 <= v < flag_count)
            raise OutOfRange(i, f, int(raw[f]), flag_count)
        if arr.min() < 0 or arr.max() >= flag_count:
            f = int(np.flatnonzero((arr < 0) | (arr >= flag_count))[0])
            raise OutOfRange(i, f, int(arr[f]), flag_count)
        arr = arr.astype(np.intp, copy=False)
        fixed = np.nonzero(arr == ident)[0]
        if fixed.size:
            raise FixedPoint(i, int(fixed[0]))
        notinv = np.nonzero(arr[arr] != ident)[0]
        if notinv.size:
            raise NotInvolution(i, int(notinv[0]))
        conns.append(arr)
    for i in range(rank + 1):
        for j in range(i + 2, rank + 1):
            ri, rj = conns[i], conns[j]
            bad = np.nonzero(ri[rj] != rj[ri])[0]
            if bad.size:
                raise NonCommuting(i, j, int(bad[0]))
            agree = np.nonzero(ri == rj)[0]
            if agree.size:
                raise NotDisjoint(i, j, int(agree[0]))
    _require_connected(conns)
    return _assemble(rank, conns)


def _require_connected(conns) -> None:
    """Raise Disconnected unless one _orbits pass over `conns` finds one orbit."""
    root, _, _ = _orbits(len(conns[0]), [(None, c) for c in conns])
    if root.any():  # every root is flag 0 exactly when there is one orbit
        raise Disconnected(int(np.count_nonzero(root == np.arange(root.size))))


def _assemble(rank: int, conns, pot=None) -> FlagSystem:
    """The system on `conns`, unchecked: for constructions that provably keep the axioms.
    `pot`, the potentials of its parity pass when given, seeds FlagSystem._pot."""
    system = FlagSystem(rank=rank, connections=tuple(_freeze(c) for c in conns))
    if pot is not None:
        vars(system)["_pot"] = _freeze(pot, pot.dtype)
    return system


_FILL = 8192  # nodes in one _union pass, unless one block alone is larger


def _union(blocks, flips=None):
    """(starts, root, pot) of _orbits over the disjoint union of `blocks`, each a
    list of as many connection arrays, with int flips[j] on the j-th; block b
    holds nodes starts[b] to starts[b + 1] - 1.  Blocks join a pass in order
    while it holds at most _FILL nodes, and a larger block gets a pass of its
    own: much larger unions run slower.  Each block comes out as a pass of its
    own (see _orbits), so root and the read-only pot read as one pass over the
    whole union would give them."""
    starts = np.cumsum([0] + [len(block[0]) for block in blocks])
    cuts = []
    for b in range(len(blocks)):
        if not cuts or starts[b + 1] - starts[cuts[-1]] > _FILL:
            cuts.append(b)
    roots = [np.zeros(0, np.intp)]
    pots = [None if flips is None else np.zeros(0, np.min_scalar_type(max(flips)))]
    for i, k in zip(cuts, cuts[1:] + [len(blocks)]):
        a, letters = starts[i], blocks[i]
        if k - i > 1:  # a lone block is not stacked
            shift = np.repeat(starts[i:k] - a, np.diff(starts[i:k + 1]))
            letters = [np.concatenate(group) + shift for group in zip(*blocks[i:k])]
        root, pot, _ = _orbits(int(starts[k] - a), [(None, c) for c in letters], flips)
        if a:
            root += a
        roots.append(root)
        pots.append(pot)
    root = roots[-1] if len(roots) == 2 else np.concatenate(roots)
    pot = pots[-1] if len(pots) == 2 or flips is None else np.concatenate(pots)
    return starts, root, pot if flips is None else _freeze(pot, pot.dtype)


def _fill_caches(systems) -> None:
    """Fill cell_labels at dimensions 0 and rank and the parity potentials
    (FlagSystem._pot) of listed systems of one rank by two _unions: a block per
    missing (system, dimension d), letters j != d, and per system without
    potentials, flips 1 << j.  Each block gets a read-only slice; one cumsum
    numbers the label roots, a block's first node being one.  Caches present
    are kept; other dimensions and the cycle basis stay lazy."""
    systems = list({id(s): s for s in systems}.values())
    if not systems:
        return
    rank = systems[0].rank
    todo = [(s, d) for s in systems for d in (0, rank) if d not in s._labels]
    starts, root, _ = _union([[c for j, c in enumerate(s.connections) if j != d] for s, d in todo])
    number = np.cumsum(root == np.arange(root.size)) - 1
    labels = _freeze(number[root] - np.repeat(number[starts[:-1]], np.diff(starts)))
    for (s, d), a, b in zip(todo, starts, starts[1:]):
        s._labels[d] = labels[a:b], int(number[b - 1] - number[a]) + 1
    bare = [s for s in systems if "_pot" not in vars(s)]
    starts, _, pot = _union([s.connections for s in bare], [1 << j for j in range(rank + 1)])
    for s, a, b in zip(bare, starts, starts[1:]):
        vars(s)["_pot"] = pot[a:b]


@dataclass(frozen=True)
class Cell:
    """Orbit of the subgroup omitting r_dimension, i.e. one i-face."""

    dimension: int
    flags: tuple[int, ...]

    @property
    def degree(self) -> int:
        """Half the flag count: sides of a face / edge-ends of a vertex (rank 2)."""
        return len(self.flags) // 2

    def __contains__(self, flag: int) -> bool:
        return flag in set(self.flags)


def cell_labels(system: FlagSystem, omit: int) -> tuple[np.ndarray, int]:
    """Label every flag with the index of its dimension-`omit` cell.

    Cells are numbered 0.. in order of their smallest contained flag.
    Returns (labels array, cell count), cached on the system; labels are read-only.
    A dimension outside 0..rank raises BadParameters.
    """
    if omit not in system._labels:
        if not 0 <= omit <= system.rank:
            raise BadParameters(f"cell dimension {omit} out of range 0..{system.rank}")
        letters = [(None, c) for i, c in enumerate(system.connections) if i != omit]
        system._labels[omit] = _root_labels(_orbits(system.flag_count, letters)[0])
    return system._labels[omit]


def _root_labels(root: np.ndarray) -> tuple[np.ndarray, int]:
    """Orbits of an _orbits root array numbered 0.. by their smallest node."""
    number = np.cumsum(root == np.arange(root.size)) - 1
    return _freeze(number[root]), int(number[-1]) + 1


def _has_odd_cell(labels: np.ndarray) -> bool:
    """Does some cell of a cell_labels array have odd degree (half its flags)?"""
    return bool((np.bincount(labels) // 2 % 2).any())


def cells(system: FlagSystem, i: int) -> list[Cell]:
    """All dimension-i cells, numbered by smallest contained flag."""
    labels, count = cell_labels(system, i)
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=count))[:-1]
    return [Cell(dimension=i, flags=tuple(b.tolist())) for b in np.split(order, ends)]


def euler_characteristic(system: FlagSystem) -> int:
    """V - E + F for a rank-2 system.

    E is read as N // 4 without a label pass: r0 and r2 are commuting,
    fixed-point-free and disjoint involutions, so every edge, an orbit
    of <r0, r2>, has exactly four flags.
    """
    if system.rank != 2:
        raise RankNotTwo(system.rank, "euler_characteristic")
    return cell_labels(system, 0)[1] - system.flag_count // 4 + cell_labels(system, 2)[1]


@dataclass(frozen=True)
class SurfaceSignature:
    """Closed surface named by orientability and genus."""

    orientable: bool
    genus: int

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus if self.orientable else 2 - self.genus

    def __str__(self) -> str:
        return f"{'o' if self.orientable else 'n'}{self.genus}"

    @classmethod
    def parse(cls, text: str) -> "SurfaceSignature":
        text = text.strip()
        if len(text) < 2 or text[0] not in "on" or not text[1:].isdigit():
            raise BadParameters(f"bad surface syntax {text!r}, expected o<g> or n<k>")
        orientable = text[0] == "o"
        genus = int(text[1:])
        if not orientable and genus < 1:
            raise BadParameters("non-orientable genus must be at least 1")
        return cls(orientable=orientable, genus=genus)


def surface_signature(system: FlagSystem) -> SurfaceSignature:
    """Identify the closed surface carrying a rank-2 system."""
    if system.rank != 2:
        raise RankNotTwo(system.rank, "surface_signature")
    from .coloring import ColorSet, coloring_group

    chi = euler_characteristic(system)
    orientable = ColorSet.full(2) in coloring_group(system)
    if orientable:
        if chi % 2:
            raise OddCharacteristicOrientable(chi)
        return SurfaceSignature(orientable=True, genus=(2 - chi) // 2)
    return SurfaceSignature(orientable=False, genus=2 - chi)


def apply_word(system: FlagSystem, flag: int, word) -> int:
    """Flag reached from `flag` by crossing the listed connections in order."""
    n = system.flag_count
    if not 0 <= flag < n:
        raise BadParameters(f"flag {flag} out of range 0..{n - 1}")
    f = flag
    for letter in word:
        if not 0 <= letter <= system.rank:
            raise BadParameters(f"letter {letter} out of range 0..{system.rank}")
        f = int(system.connections[letter][f])
    return f


_LISTED_PLAN = 1280  # N * (rank + 1) below which _transport_plan walks Python lists


def _transport_plan(system: FlagSystem):
    """Level-synchronous BFS of the flag graph from flag 0, as a plan for
    filling a transport table whose rows follow the BFS discovery order.

    Returns (row, levels, checks) with read-only intp arrays.  row[f] is
    the table row of flag f; flag 0 has row 0.  levels lists (rows,
    parents, offsets), one per BFS level, each level taking the letters
    in turn: the flags in the row slice `rows` are reached across r_j
    from the flags in rows `parents`, and offsets holds j * N, the start
    of r_j in the concatenated connections of a target, as a column.  A
    flag keeps the first letter that reaches it.  checks lists (rows,
    ends, j) for every letter j: each edge {f, f . r_j} outside the
    spanning tree appears once, as the row of its smaller flag f (in
    ascending order) and the row of f . r_j.

    Two builders give the same arrays.  _plan_by_lists walks the
    connections as Python lists in one pass; _plan_by_arrays makes about
    19 numpy calls per level and 60 more for the rest.  The lists serve
    below N * (rank + 1) = _LISTED_PLAN and the arrays from there on.
    Measured on one core of a Xeon VM, the two cross at N * (rank + 1)
    of about 1,250-1,450 (420-480 flags at rank 2, about 350 at rank 3):
    a 48-flag cube takes 49 us by lists and 136 by arrays, tri-torus 8 8
    (768 flags) 490 and 373, tri-torus 30 30 8.4 ms and 1.6.
    """
    small = system.flag_count * (system.rank + 1) < _LISTED_PLAN
    row, parents, steps, starts, checks = (_plan_by_lists if small else _plan_by_arrays)(system)
    parents, steps = _freeze(parents), _freeze(steps)
    levels = tuple((slice(a, b), parents[a - 1:b - 1], steps[a - 1:b - 1, None])
                   for a, b in zip(starts[1:-1], starts[2:]))
    return _freeze(row), levels, tuple((_freeze(r), _freeze(e), j) for j, (r, e) in enumerate(checks))


def _plan_by_lists(system: FlagSystem):
    """_transport_plan's (row, parents, steps, starts, checks) from one Python
    pass: parents and steps hold, for each row from 1 on, the row of the flag's
    parent and j * N for its letter j; starts holds the first row of each level
    and then N; checks holds (rows, ends) per letter."""
    n = system.flag_count
    conns = [c.tolist() for c in system.connections]
    via = [-1] * n  # the letter that reached each flag first; flag 0 matches none
    via[0] = len(conns)
    order, parents, steps, starts = [0], [], [], [0]
    while starts[-1] < len(order):
        lo, hi = starts[-1], len(order)
        for j, conn in enumerate(conns):
            step = j * n
            for r in range(lo, hi):
                g = conn[order[r]]
                if via[g] < 0:
                    via[g] = j
                    order.append(g)
                    parents.append(r)
                    steps.append(step)
        starts.append(hi)
    row = [0] * n
    for r, f in enumerate(order):
        row[f] = r
    checks = []
    for j, conn in enumerate(conns):
        rows, ends = [], []
        for r, f in enumerate(order):
            g = conn[f]
            if f < g and via[f] != j and via[g] != j:
                rows.append(r)
                ends.append(row[g])
        checks.append((rows, ends))
    return row, parents, steps, starts, checks


def _plan_by_arrays(system: FlagSystem):
    """_plan_by_lists's result from one numpy level loop: each level gathers
    every letter's images of the whole frontier at once."""
    n, rank = system.flag_count, system.rank
    unseen = np.ones(n, dtype=bool)
    unseen[0] = False
    found = [np.zeros(1, dtype=np.intp)]  # the flags of each (level, letter) in turn
    parents = []
    starts = [0]  # the first row of each level
    frontier = found[0]
    while frontier.size:
        level = []
        for conn in system.connections:
            img = conn[frontier]
            new = unseen[img].nonzero()[0]
            level.append(img[new])
            unseen[level[-1]] = False
            parents.append(new + starts[-1])
        starts.append(starts[-1] + frontier.size)
        found += level
        frontier = np.concatenate(level)
    order = np.concatenate(found)
    offsets = np.arange(0, (rank + 1) * n, n, dtype=np.intp)
    steps = np.repeat(np.tile(offsets, len(starts) - 1), [f.size for f in found[1:]])
    row = np.zeros(n, dtype=np.intp)
    row[order] = np.arange(n)
    # tree[j * N + g]: g was reached across r_j from its parent
    tree = np.zeros((rank + 1) * n, dtype=bool)
    tree[steps + order[1:]] = True
    checks = []
    for j, conn in enumerate(system.connections):
        image = conn[order]
        keep = (order < image) & ~tree[offsets[j] + order] & ~tree[offsets[j] + image]
        checks.append((keep.nonzero()[0], row[image[keep]]))
    return row, np.concatenate(parents), steps, starts, checks


_CHUNK = 4_000_000  # entries of one _isomorphisms transport table
_FIRST_BLOCK = 64


def _isomorphisms(source: FlagSystem, target: FlagSystem, images=None):
    """Yield every isomorphism from source onto target, in ascending order
    of the image of flag 0.

    `images` lists the candidate images of source flag 0 in ascending
    order (default: every target flag).  A block of candidates is
    transported along the BFS tree of the source's cached
    _transport_plan (FlagSystem._plan) into a table with one row per
    flag, in BFS order, and one column per candidate: each level is one
    gather from the concatenated target connections into a slice of
    rows.  Tree edges hold by construction in both directions, since
    connections are involutions, so a column is an isomorphism exactly
    when every listed non-tree edge commutes, which one gather per
    letter tests for the whole block.  The image of flag 0 fixes the
    rest, so each isomorphism appears once.  The first block is a probe
    of one column, images[0]: on a symmetric map it is already a hit,
    and it costs one column of N flags.  The next block has _FIRST_BLOCK
    columns, and blocks then double up to about _CHUNK table entries.
    Both systems must have the same rank and flag count.
    """
    row, levels, checks = source._plan
    n = source.flag_count
    tconns = target.connections
    conns = np.concatenate(tconns)
    if images is None:
        images = np.arange(n, dtype=np.intp)
    cap = max(1, _CHUNK // n)
    width = 1
    start = 0
    while start < len(images):
        block = images[start:start + width]
        start += block.size
        width = min(_FIRST_BLOCK if start == 1 else 2 * width, cap)
        table = np.empty((n, block.size), dtype=np.intp)
        table[0] = block
        # every index is in range; mode="clip" lets take write straight into out
        for level, parents, steps in levels:
            step = table[parents]
            step += steps
            np.take(conns, step, out=table[level], mode="clip")
        ok = np.ones(block.size, dtype=bool)
        for rows, ends, letter in checks:
            ok &= (np.take(tconns[letter], table[rows], mode="clip") == table[ends]).all(axis=0)
        for col in np.flatnonzero(ok):
            # copy the strided column first: a gather straight from it is slower
            yield _freeze(table[:, col].copy()[row])


def _flag_classes(system: FlagSystem):
    """Isomorphism-invariant classes of the flags.

    A flag's key lists the lengths of its cycles under the Petrie word
    r0 r1 ... rn and, from rank 2, under r1 r2 and r0 r1 (at rank 2, its
    vertex and face degrees), r0 r1 r2 r1 r2 and r0 r1 r0 r1 r2.  Each
    cycle is labelled with its smallest flag by doubling: after k rounds
    a flag holds the least flag among its next 2^k images, and a round
    that changes nothing has covered every cycle.  Returns (keys,
    counts, classes): the distinct keys in sorted order, how many flags
    carry each, and every flag's index into keys.  An isomorphism keeps
    every key, so it maps each class onto the class with the same key.
    """
    n, conns = system.flag_count, system.connections
    ids = np.arange(n, dtype=np.intp)
    words = [range(system.rank + 1)]
    if system.rank >= 2:
        words += [(1, 2), (0, 1), (0, 1, 2, 1, 2), (0, 1, 0, 1, 2)]
    columns = []
    for word in words:
        step = ids
        for letter in word:
            step = conns[letter][step]
        low = ids
        while not np.array_equal(lower := np.minimum(low, low[step]), low):
            low, step = lower, step[step]
        columns.append(np.bincount(low, minlength=n)[low])
    # one lexsort groups equal keys; np.unique(axis=0) sorts rows as records, several times slower
    table = np.stack(columns, axis=1)
    order = np.lexsort(columns[::-1])
    table = table[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (table[1:] != table[:-1]).any(axis=1)
    classes = np.zeros(n, dtype=np.intp)
    classes[order] = np.cumsum(first) - 1
    return table[first], np.diff(np.append(np.flatnonzero(first), n)), _freeze(classes)


def is_isomorphic(system: FlagSystem, other: FlagSystem):
    """Flag bijection phi with phi(f . r_i) = phi(f) . s_i, or None.

    Of all isomorphisms, the one with the least image of flag 0 is
    returned.  The search tries the flags of `other` in ascending order
    as the image of flag 0, first one alone and then a block of
    _FIRST_BLOCK; on a symmetric map the first try is a hit at the cost
    of one transport of N flags.  After that block it compares the
    histograms of the flag classes of both maps (_flag_classes) and
    returns None if they differ.  Otherwise let r be the first flag of
    the rarest class.  Every isomorphism sends r into the class of r in
    `other`, so carrying each flag of that class back along the BFS path
    from r to flag 0 lists every possible image of flag 0, and the
    search goes on over those alone.
    """
    if system.rank != other.rank:
        raise RankMismatch(system.rank, other.rank)
    if system.flag_count != other.flag_count:
        return None
    first = np.arange(min(system.flag_count, 1 + _FIRST_BLOCK), dtype=np.intp)
    found = next(_isomorphisms(system, other, first), None)
    if found is not None or first.size == system.flag_count:
        return found
    keys, counts, classes = system._classes
    other_keys, other_counts, other_classes = other._classes
    if not (np.array_equal(keys, other_keys) and np.array_equal(counts, other_counts)):
        return None
    rarest = int(np.argmin(counts))
    images = np.flatnonzero(other_classes == rarest)
    # carry the candidates for r's image back to candidates for flag 0's image
    # along the BFS tree path from r up to flag 0
    row, levels, _ = system._plan
    at = int(row[np.argmax(classes == rarest)])
    for rows, parents, steps in reversed(levels):
        if at >= rows.start:
            images = other.connections[int(steps[at - rows.start, 0]) // system.flag_count][images]
            at = int(parents[at - rows.start])
    images = np.sort(images)
    return next(_isomorphisms(system, other, images[images >= first.size]), None)


def deck_transformations(system: FlagSystem) -> list[np.ndarray]:
    """All flag permutations commuting with every connection.

    The action of these permutations is free, so each is determined by the
    image of flag 0, and they are listed in ascending order of that image;
    the result always contains the identity and its size divides the flag
    count.  A regular map with N flags has N decks of N entries each, so
    listing them all is Theta(N^2) output whatever the search costs.
    """
    return list(_isomorphisms(system, system))


def check_projection(cover: FlagSystem, base: FlagSystem, phi) -> tuple[bool, int | None]:
    """Is phi a connection-preserving projection from cover onto base?

    Returns (True, k) with the constant fiber size k, or (False, None).
    """
    if cover.rank != base.rank:
        raise RankMismatch(cover.rank, base.rank)
    phi = np.asarray(phi)
    if phi.dtype.kind not in "iu" or phi.shape != (cover.flag_count,):
        return False, None
    if phi.min() < 0 or phi.max() >= base.flag_count:
        return False, None
    phi = phi.astype(np.intp, copy=False)
    for i in range(cover.rank + 1):
        if not np.array_equal(phi[cover.connections[i]], base.connections[i][phi]):
            return False, None
    fibers = np.bincount(phi, minlength=base.flag_count)
    if fibers.min() != fibers.max():
        return False, None
    return True, int(fibers[0])
