"""Map generators, local surgeries, connected sums, and group realization.

The generators turn compact descriptions (rotation systems, polygon
gluing words, grid and strip parameters) into validated flag systems.
Every rank-2 generator writes its connections through one whole-array
builder, _polygons: polygons whose sides are glued in pairs.  A rotation
system is the same description read dually, one polygon per vertex.
The surgeries insert degree-2 vertices or parallel edges without
leaving the surface, and build_map_with_group composes them to realize
any admissible coloring group on any admissible surface.

The parametrized generators and build_map_with_group work out the flag
count of what they are asked for before they allocate anything, and
refuse with BadParameters a map of more than _MAX_FLAGS flags.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, permutations

import numpy as np

from .coloring import (
    ColoringGroup,
    ColorSet,
    _bits_in,
    _cell_pass,
    all_subgroups,
    coloring_group,
)
from .errors import (
    BadParameters,
    ConstructionFailed,
    Disconnected,
    ExceptionalPair,
    FaceSelfAdjacent,
    FaceSizeMismatch,
    LoopEdge,
    NotAnEdge,
    OrientabilityMismatch,
    RankNotTwo,
    UnknownName,
)
from .flagsys import (
    Cell,
    FlagSystem,
    SurfaceSignature,
    _assemble,
    _derived,
    _has_odd_cell,
    _require_connected,
    cell_labels,
    surface_signature,
    validate,
)
from .doubles import i_double
from .operators import dual, dual_color_set

_MAX_FLAGS = 10_000_000

__all__ = [
    "RotationSystem",
    "GluingWord",
    "from_rotation_system",
    "polygon_gluing",
    "platonic",
    "PLATONIC_NAMES",
    "tri_torus",
    "grid_map",
    "strip_map",
    "crosscap_map",
    "cube_maniplex",
    "edge_of",
    "subdivide_edge",
    "double_edge",
    "triple_edge",
    "make_property",
    "MAKE_GOALS",
    "connected_sum",
    "all_subgroups",
    "build_map_with_group",
]


def _check_flags(flags: int, what: str) -> None:
    if flags > _MAX_FLAGS:
        raise BadParameters(f"{what} needs more than the limit of {_MAX_FLAGS} flags")


# ---------------------------------------------------------------------------
# rotation systems


@dataclass(frozen=True)
class RotationSystem:
    """Embedded multigraph: per-vertex dart cycles plus signed edge pairs.

    Darts are integers 0..2E-1.  rotations lists each vertex's incident
    darts in circular order; edge_pairs matches darts into edges with a
    sign, +1 when the gluing respects the two rotations' handedness and
    -1 when it reverses it.
    """

    rotations: tuple[tuple[int, ...], ...]
    edge_pairs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        rotations = tuple(tuple(int(d) for d in rot) for rot in self.rotations)
        pairs = tuple((int(a), int(b), int(s)) for a, b, s in self.edge_pairs)
        object.__setattr__(self, "rotations", rotations)
        object.__setattr__(self, "edge_pairs", pairs)
        seen: set[int] = set()
        for rot in rotations:
            for d in rot:
                if d in seen:
                    raise BadParameters(f"dart {d} appears in two rotations")
                seen.add(d)
        if seen != set(range(len(seen))):
            raise BadParameters("darts must be exactly 0..2E-1")
        if len(seen) != 2 * len(pairs):
            raise BadParameters(
                f"{len(seen)} darts cannot pair into {len(pairs)} edges"
            )
        paired: set[int] = set()
        for a, b, s in pairs:
            if s not in (-1, 1):
                raise BadParameters(f"edge sign must be +1 or -1, got {s}")
            if a == b:
                raise BadParameters(f"dart {a} pairs with itself")
            for d in (a, b):
                if d not in seen:
                    raise BadParameters(f"edge pair uses unknown dart {d}")
                if d in paired:
                    raise BadParameters(f"dart {d} appears in two edge pairs")
                paired.add(d)

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)

    @property
    def dart_count(self) -> int:
        return 2 * len(self.edge_pairs)


def _polygons(nxt, pairs) -> list[np.ndarray]:
    """[r0, r1, r2] of polygons whose sides are glued in pairs.

    Side s carries flags 2s at its start and 2s+1 at its end: r0 swaps
    the two, and r1 joins the end of side s to the start of side nxt[s],
    the next side around its polygon.  Each row (p, q, same) of `pairs`
    glues two sides by r2, start to start and end to end when same is
    true, start to end otherwise.  A side that no pair covers keeps
    r2 = -1, which validate refuses with OutOfRange.  So every caller
    validates the result except _glued_polygon, whose pairs cover each
    side by construction.
    """
    nxt = np.asarray(nxt, dtype=np.intp).ravel()
    p, q, same = np.asarray(pairs, dtype=np.intp).reshape(-1, 3).T
    ids = np.arange(2 * nxt.size, dtype=np.intp)
    r1 = np.empty_like(ids)
    r1[1::2] = 2 * nxt
    r1[2 * nxt] = ids[1::2]
    a, b = 2 * p, 2 * q + 1 - same
    r2 = np.full_like(ids, -1)
    r2[np.concatenate([a, b, a + 1, b ^ 1])] = np.concatenate([b, a, b ^ 1, a + 1])
    return [ids ^ 1, r1, r2]


def from_rotation_system(rs: RotationSystem) -> FlagSystem:
    """Expand a rotation system into flags; two flags per dart.

    Flag 2d+s is dart d seen from its side s.  Connection 2 swaps the
    two sides, connection 1 steps to the rotationally adjacent dart,
    and connection 0 crosses the edge, matching sides according to the
    edge sign.  All-positive signs give an orientable result.  These
    are _polygons read dually: each vertex is a polygon whose sides are
    its darts in reverse rotation order, and an edge of sign -1 glues
    its two darts start to start.
    """
    darts = np.fromiter(chain.from_iterable(rs.rotations), dtype=np.intp, count=rs.dart_count)
    sizes = np.fromiter(map(len, rs.rotations), dtype=np.intp, count=rs.vertex_count)
    # the dart before each one in its rotation, wrapping at the rotation's start
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    at = np.arange(darts.size)
    prv = np.empty_like(darts)
    prv[darts] = darts[starts + (at - starts - 1) % np.repeat(sizes, sizes)]
    pairs = np.array(rs.edge_pairs, dtype=np.intp).reshape(-1, 3)
    pairs[:, 2] = pairs[:, 2] < 0
    return validate(2, 2 * rs.dart_count, _polygons(prv, pairs)[::-1])


def _rotation_from_neighbors(neighbors) -> RotationSystem:
    """Rotation system of a simple graph given per-vertex neighbor cycles."""
    offsets = [0]
    for nbrs in neighbors:
        offsets.append(offsets[-1] + len(nbrs))
    dart_at: dict[tuple[int, int], int] = {}
    for u, nbrs in enumerate(neighbors):
        for j, v in enumerate(nbrs):
            dart_at[(u, v)] = offsets[u] + j
    pairs = []
    for (u, v), d in dart_at.items():
        if u < v:
            pairs.append((d, dart_at[(v, u)], 1))
    rotations = tuple(
        tuple(range(offsets[u], offsets[u + 1])) for u in range(len(neighbors))
    )
    return RotationSystem(rotations=rotations, edge_pairs=tuple(pairs))


# Neighbor cycles read off the standard coordinate models, listed
# counterclockwise around the outward normal at each vertex.
_PLATONIC_NEIGHBORS = {
    "tetrahedron": [[3, 1, 2], [2, 0, 3], [0, 1, 3], [1, 0, 2]],
    "cube": [[2, 4, 1], [0, 5, 3], [3, 6, 0], [1, 7, 2], [6, 5, 0], [4, 7, 1],
             [7, 4, 2], [5, 6, 3]],
    "octahedron": [[5, 2, 4, 3], [4, 2, 5, 3], [4, 0, 5, 1], [5, 0, 4, 1],
                   [3, 0, 2, 1], [2, 0, 3, 1]],
    "icosahedron": [[2, 6, 5, 7, 1], [2, 0, 7, 3, 8], [4, 6, 0, 1, 8],
                    [1, 7, 11, 9, 8], [8, 9, 10, 6, 2], [6, 10, 11, 7, 0],
                    [4, 10, 5, 0, 2], [0, 5, 11, 3, 1], [1, 3, 9, 4, 2],
                    [8, 3, 11, 10, 4], [9, 11, 5, 6, 4], [3, 7, 5, 10, 9]],
    "dodecahedron": [[10, 8, 9], [9, 11, 16], [12, 14, 10], [16, 17, 12],
                     [8, 13, 15], [15, 19, 11], [18, 13, 14], [17, 19, 18],
                     [14, 4, 0], [0, 15, 1], [16, 2, 0], [1, 5, 17],
                     [3, 18, 2], [4, 6, 19], [2, 6, 8], [4, 5, 9],
                     [1, 3, 10], [11, 7, 3], [7, 6, 12], [13, 7, 5]],
}

PLATONIC_NAMES = tuple(sorted(_PLATONIC_NEIGHBORS))


def platonic(name: str) -> FlagSystem:
    """One of the five classical solids as a flag system on the sphere."""
    if name not in _PLATONIC_NEIGHBORS:
        raise UnknownName(name, PLATONIC_NAMES)
    return from_rotation_system(_rotation_from_neighbors(_PLATONIC_NEIGHBORS[name]))


def tri_torus(m: int, n: int) -> FlagSystem:
    """Triangulated torus on the m-by-n quotient of the triangular lattice.

    Vertices are integer pairs mod (m, n), each of degree 6; the result
    has mn vertices, 3mn edges, and 2mn triangles.  Its vertex graph
    contains triangles, so it is never vertex-bipartite.
    """
    if m < 1 or n < 1:
        raise BadParameters(f"tri-torus dimensions must be positive, got {m}x{n}")
    _check_flags(12 * m * n, f"tri-torus {m} {n}")
    # dart 6v+t leaves vertex v = (i, j) in direction t of (1, 0), (1, 1),
    # (0, 1) and their opposites; dart t < 3 meets dart t+3 of the neighbor
    darts = np.arange(6 * m * n, dtype=np.intp).reshape(m, n, 6)
    ends = np.stack([np.roll(darts[..., t + 3], (-di, -dj), axis=(0, 1))
                     for t, (di, dj) in enumerate(((1, 0), (1, 1), (0, 1)))], axis=-1)
    pairs = np.stack([darts[..., :3], ends, np.zeros_like(ends)], axis=-1)
    return validate(2, 12 * m * n, _polygons(np.roll(darts, 1, axis=2), pairs)[::-1])


# ---------------------------------------------------------------------------
# polygon gluings


@dataclass(frozen=True)
class GluingWord:
    """Boundary word of a polygon whose sides are glued in pairs.

    Each letter names a side pair and occurs exactly twice, case
    marking the traversal: two occurrences in the same case glue the
    sides head-to-head (an orientation-reversing identification), while
    mixed case glues them head-to-tail.
    """

    letters: str

    def __post_init__(self):
        w = self.letters
        if not w or not w.isalpha():
            raise BadParameters(f"gluing word must be alphabetic, got {w!r}")
        if len(w) % 2:
            raise BadParameters(f"gluing word length must be even, got {len(w)}")
        where: dict[str, list[int]] = {}
        for pos, ch in enumerate(w):
            where.setdefault(ch.lower(), []).append(pos)
        pairs = []
        for letter, positions in where.items():
            if len(positions) != 2:
                raise BadParameters(
                    f"letter {letter!r} occurs {len(positions)} times, need exactly 2"
                )
            p, q = positions
            pairs.append((p, q, w[p].isupper() == w[q].isupper()))
        object.__setattr__(self, "_pairs", sorted(pairs))

    def __len__(self) -> int:
        return len(self.letters)

    def pairs(self) -> list[tuple[int, int, bool]]:
        """(first position, second position, same_case) per letter."""
        return list(self._pairs)


def polygon_gluing(word) -> FlagSystem:
    """One-face map from a polygon boundary word.

    Side i carries flags 2i (at corner i) and 2i+1 (at corner i+1); the
    face walks the whole boundary, so the result has one face of degree
    len(word) and len(word)/2 edges.
    """
    if not isinstance(word, GluingWord):
        word = GluingWord(str(word))
    return _glued_polygon(word.pairs())


def _glued_polygon(pairs) -> FlagSystem:
    """polygon_gluing from side pairs (p, q, same_case) covering every side:
    _polygons with the single polygon's sides 0..L-1 in order.

    It is assembled without validate, since it keeps the axioms by
    construction.  The pairs, of a GluingWord or built by _crosscap_pairs
    and strip_map, cover every side exactly once with p != q.  So r2
    swaps the two flags of side p with the two of side q: a
    fixed-point-free involution that maps {2p, 2p+1}, the r0 = f ^ 1
    pair of side p, onto that of q, so it commutes with r0 and never
    equals it.  r1 follows the cyclic order 0..L-1 of the sides, and
    one polygon is connected.
    """
    L = 2 * len(pairs)
    return _assemble(2, _polygons((np.arange(L) + 1) % L, pairs))


def _crosscap_pairs(start: int, count: int) -> list[tuple[int, int, bool]]:
    """Side pairs of the word xxyy... from side `start`: `count` crosscaps."""
    return [(start + 2 * i, start + 2 * i + 1, True) for i in range(count)]


def crosscap_map(k: int) -> FlagSystem:
    """Canonical one-vertex map on the non-orientable genus-k surface."""
    if k < 1:
        raise BadParameters(f"need at least one crosscap, got {k}")
    _check_flags(4 * k, f"crosscap {k}")
    return _glued_polygon(_crosscap_pairs(0, k))


def strip_map(h: int, swaps, parity: int) -> FlagSystem:
    """Family of one-face non-orientable maps with face arrows but no
    face two-coloring.

    h is the strip height; swaps picks which of the h-1 adjacent seam
    positions are twisted, and only its size s matters to the surface:
    parity 0 gives non-orientable genus 2+2s, parity 1 gives 1+2s.  For
    genus at least 2 the coloring group is exactly the one generated by
    {0,2}.
    """
    if h < 1:
        raise BadParameters(f"strip height must be >= 1, got {h}")
    if parity not in (0, 1):
        raise BadParameters(f"parity must be 0 or 1, got {parity}")
    swaps = sorted(set(int(x) for x in swaps))
    if any(x < 0 or x >= h - 1 for x in swaps):
        raise BadParameters(f"swaps must lie in 0..{h - 2}, got {swaps}")
    s = len(swaps)
    # the words abcaCB, aa and aabcBC, followed by `extra` crosscaps
    if parity == 0:
        head, extra = [(0, 3, True), (1, 5, False), (2, 4, False)], 2 * s
    elif s == 0:
        head, extra = [(0, 1, True)], 0
    else:
        head, extra = [(0, 1, True), (2, 4, False), (3, 5, False)], 2 * (s - 1)
    return _glued_polygon(head + _crosscap_pairs(2 * len(head), extra))


# ---------------------------------------------------------------------------
# square complexes


def _square_complex(square_count: int, gluings) -> FlagSystem:
    """Build a map from squares with glued sides.

    Square s has corners 0..3 counterclockwise and sides 4s+c numbered
    by their starting corner c; flag 8s+2c+sigma sits at corner c on
    side c (sigma = 0) or side c-1 (sigma = 1).  Each row (side, side,
    flip) of `gluings` joins two sides, plainly when flip = 0 (opposite
    traversal, as for neighbors in the plane) and with a twist when
    flip = 1.  _polygons writes the connections, and its end flag
    8s+2c+1 of side c then moves to 8s+2(c+1)+1, at the corner c+1
    where that end sits.
    """
    sides = np.arange(4 * square_count)
    conns = _polygons((sides & ~3) | ((sides + 1) & 3), gluings)
    ids = np.arange(8 * square_count)
    # move[-1] = -1 keeps the r2 of an unglued side out of range
    move = np.append((ids & ~7) | ((ids + 2 * (ids & 1)) & 7), -1)
    out = np.empty((3, ids.size), dtype=np.intp)
    out[:, move[:-1]] = move[conns]
    return validate(2, ids.size, out)


def grid_map(m: int, n: int, k: int) -> FlagSystem:
    """m-by-n square grid closed up with k plain and n-k twisted seams.

    Rows wrap around vertically; the left boundary glues to the right
    boundary upside down, the first k rows without a twist and the rest
    with one.  The result is always edge-bipartite; with k = 0 it is
    the Klein bottle, and for k >= 1 it lies on the non-orientable
    surface of genus k+2.
    """
    if m < 1 or n < 1:
        raise BadParameters(f"grid dimensions must be positive, got {m}x{n}")
    if not 0 <= k <= n:
        raise BadParameters(f"twist count {k} out of range 0..{n}")
    _check_flags(8 * m * n, f"grid {m} {n} {k}")
    sq = 4 * np.arange(m * n).reshape(n, m)  # sq[j, i]: side 0 of the square in column i, row j
    gluings = [
        np.stack(np.broadcast_arrays(a, b, flip), axis=-1).reshape(-1, 3)
        for a, b, flip in (
            (sq[:, :-1] + 1, sq[:, 1:] + 3, 0),  # each square to its right neighbor
            (sq + 2, np.roll(sq, -1, axis=0), 0),  # to the row above, wrapping
            (sq[:, 0] + 3, sq[::-1, -1] + 1, np.arange(n) >= k),  # the seams
        )
    ]
    return _square_complex(m * n, np.concatenate(gluings))


# ---------------------------------------------------------------------------
# the d-dimensional cube as a maniplex


def cube_maniplex(d: int) -> FlagSystem:
    """Flag system of the d-dimensional cube, a rank d-1 maniplex.

    Flags are (vertex, coordinate order) pairs: 2^d * d! of them.
    Connection 0 flips the first coordinate in the order; connection i
    swaps the order's entries i-1 and i.
    """
    if d < 2:
        raise BadParameters(f"cube dimension must be >= 2, got {d}")
    n = 1
    for k in range(1, d + 1):  # 2^d * d! = 2 * 4 * ... * 2d, checked as it grows
        n *= 2 * k
        _check_flags(n, f"cube-maniplex {d}")
    perms = list(permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    fact = len(perms)
    first = np.array([p[0] for p in perms], dtype=np.intp)
    # swaps[i - 1][k]: the index of perms[k] with its entries i-1 and i swapped
    swaps = np.array([[index[p[:i - 1] + (p[i], p[i - 1]) + p[i + 1:]] for p in perms]
                      for i in range(1, d)], dtype=np.intp)
    x = np.arange(1 << d, dtype=np.intp)[:, None]  # one row of flags per vertex
    conns = [((x ^ (1 << first)) * fact + np.arange(fact)).ravel()]
    conns += [(x * fact + swap).ravel() for swap in swaps]
    return validate(d - 1, n, conns)


# ---------------------------------------------------------------------------
# surgeries


def _corners(system: FlagSystem, a):
    """(a, a r0, a r2, a r0 r2) for a flag or an array of flags: the four
    flags of a rank-2 edge.  At rank n an edge is the orbit of every
    connection but r1, so any other rank raises RankNotTwo."""
    if system.rank != 2:
        raise RankNotTwo(system.rank, "edge surgery")
    r0, r2 = system.connections[0], system.connections[2]
    return a, r0[a], r2[a], r2[r0[a]]


def edge_of(system: FlagSystem, flag: int) -> Cell:
    """The edge cell containing a flag.

    Rank 2 only: a flag of a system of any other rank raises RankNotTwo.
    """
    if not 0 <= flag < system.flag_count:
        raise BadParameters(f"flag {flag} out of range 0..{system.flag_count - 1}")
    orbit = {int(f) for f in _corners(system, flag)}
    return Cell(dimension=1, flags=tuple(sorted(orbit)))


def _edge_corners(system: FlagSystem, edge: Cell) -> tuple[int, int, int, int]:
    """Check an edge cell against the system; return its _corners."""
    if not isinstance(edge, Cell) or edge.dimension != 1:
        raise NotAnEdge(f"expected an edge cell, got {edge!r}")
    flags = edge.flags
    if not flags or any(not 0 <= f < system.flag_count for f in flags):
        raise NotAnEdge(f"cell flags {flags} out of range")
    corners = tuple(int(f) for f in _corners(system, min(flags)))
    if set(flags) != set(corners):
        raise NotAnEdge(f"flags {flags} do not form an edge of this system")
    return corners


@_derived
def _edge_flags(system: FlagSystem) -> np.ndarray:
    """Smallest flag of every edge, ascending: edge i of cell_labels(system, 1)."""
    f, b, c, d = _corners(system, np.arange(system.flag_count))
    return np.flatnonzero((f < b) & (f < c) & (f < d))


def _insert_edges(system: FlagSystem, flags, letter: int) -> FlagSystem:
    """Subdivide (letter 0) or double (letter 2) the edges whose smallest
    flags are `flags`, all in one pass.

    Edge i's corners (a, b, c, d) = (a, a r0, a r2, a r0 r2) get copies
    n+4i..n+4i+3 in that order.  r_letter swaps each corner with its
    copy, and the copies are joined among themselves by r1 as the
    corners are by r_letter, and by the other outer connection as the
    corners are by it.  In corner order r0 is index ^ 1 and r2 is
    index ^ 2, so those joins are index arithmetic on the copies.
    """
    other = 2 - letter
    step = {0: 1, 2: 2}
    flags = np.asarray(flags, dtype=np.intp)
    table = np.empty((flags.size, 4), dtype=np.intp)  # by column: twice as fast as np.stack
    table[:, 0], table[:, 1], table[:, 2], table[:, 3] = _corners(system, flags)
    corners = table.ravel()
    n = system.flag_count
    local = np.arange(corners.size)
    copies = n + local
    conns = [np.concatenate([conn, copies]) for conn in system.connections]
    conns[letter][corners] = copies
    conns[letter][copies] = corners
    conns[1][copies] = n + (local ^ step[letter])
    conns[other][copies] = n + (local ^ step[other])
    return _assemble(2, conns)


def subdivide_edge(system: FlagSystem, edge: Cell) -> FlagSystem:
    """Insert a degree-2 vertex in the middle of an edge.

    Adds one vertex and one edge; both incident faces gain a side, so
    the characteristic is untouched.
    """
    a, _, _, _ = _edge_corners(system, edge)
    return _insert_edges(system, [a], 0)


def double_edge(system: FlagSystem, edge: Cell) -> FlagSystem:
    """Duplicate an edge, enclosing a two-sided face between the copies.

    Adds one edge and one face; every old face keeps its exact flag
    orbit, so no face degree changes.
    """
    a, _, _, _ = _edge_corners(system, edge)
    return _insert_edges(system, [a], 2)


def triple_edge(system: FlagSystem, edge: Cell) -> FlagSystem:
    """Replace an edge by three parallel ones, enclosing two bigons.

    The doubled-then-doubled construction keeps every colorability
    status among {0}, {2}, {0,1} and {1,2} exactly as it was, which is
    what makes it safe filler when adjusting other invariants.
    """
    a, b, c, d = _edge_corners(system, edge)
    labels, _ = cell_labels(system, omit=0)
    if labels[a] == labels[b]:
        raise LoopEdge()
    once = double_edge(system, edge)
    return double_edge(once, edge_of(once, c))


# ---------------------------------------------------------------------------
# goal-directed adjustment


def _conflicts(system: FlagSystem, dim: int, mask: int) -> np.ndarray:
    """Edges (by smallest flag) that break a breadth-first assignment of
    one bit per dimension-`dim` cell for color set `mask` on _cell_pass.

    The BFS runs from cell 0 in edge order, so the chosen edges do not
    depend on the orbit kernel's spanning forest.
    """
    labels, count, relation, _ = _cell_pass(system, dim)
    a = _edge_flags(system)
    u, w = labels[a], labels[system.connections[dim][a]]
    gamma = _bits_in(relation[a], mask)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for x, y, g in zip(u.tolist(), w.tolist(), gamma.tolist()):
        adj[x].append((y, g))
        adj[y].append((x, g))
    bit = [-1] * count
    bit[0] = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y, g in adj[x]:
            if bit[y] < 0:
                bit[y] = bit[x] ^ g
                queue.append(y)
    bits = np.array(bit, dtype=np.intp)
    return a[(bits[u] ^ bits[w]) != gamma]


def _make_odd(system: FlagSystem, dim: int) -> FlagSystem:
    """Make some dimension-`dim` cell odd: one insertion at an edge
    between two different such cells adds a side to both."""
    labels, _ = cell_labels(system, omit=dim)
    if _has_odd_cell(labels):
        return system
    letter = 2 - dim
    a = _edge_flags(system)
    apart = a[labels[a] != labels[system.connections[dim][a]]]
    if apart.size:
        return _insert_edges(system, apart[:1], letter)
    # every edge meets one cell on both sides: split off a new cell first
    once = _insert_edges(system, a[:1], dim)
    return _insert_edges(once, a[:1], letter)


# goal -> (cell dimension = insertion letter at each conflict, color set mask)
_CONFLICT_GOALS = {
    "vertex_bipartite": (0, 0b001),
    "face_bipartite": (2, 0b100),
    "vpso": (0, 0b110),
    "fpso": (2, 0b011),
}
_ODD_GOALS = {"odd_face": 2, "odd_vertex": 0}
MAKE_GOALS = tuple(_CONFLICT_GOALS) + tuple(_ODD_GOALS)


def make_property(system: FlagSystem, goal: str) -> FlagSystem:
    """Adjust a map on its own surface until `goal` holds.

    vertex_bipartite and vpso subdivide offending edges; their face
    counterparts enclose bigons instead.  Every offending edge is found
    in one search of the input and fixed in one batched insertion, since
    one surgery per edge always suffices.  odd_face and odd_vertex force
    some odd-degree cell into existence with at most two insertions.
    Every step preserves the characteristic and the orientability class,
    so any map on any surface can be adjusted; a map that already meets
    the goal is returned unchanged.
    """
    if system.rank != 2:
        raise RankNotTwo(system.rank, "make_property")
    if goal in _CONFLICT_GOALS:
        dim, mask = _CONFLICT_GOALS[goal]
        conflicts = _conflicts(system, dim, mask)
        return _insert_edges(system, conflicts, dim) if conflicts.size else system
    if goal in _ODD_GOALS:
        return _make_odd(system, _ODD_GOALS[goal])
    raise BadParameters(f"unknown goal {goal!r}; options: {', '.join(MAKE_GOALS)}")


# ---------------------------------------------------------------------------
# connected sums


def connected_sum(system: FlagSystem, other: FlagSystem, flag_a: int, flag_b: int) -> FlagSystem:
    """Glue two maps along the faces of two chosen flags.

    Both faces must have the same degree and neither may meet itself
    across an edge.  The face interiors are removed and connection 2 is
    rewired so matching boundary corners join; the characteristics add,
    minus the two lost disks.  A face that meets itself at a vertex can
    cut the sum apart; that also raises FaceSelfAdjacent.
    """
    if system.rank != 2:
        raise RankNotTwo(system.rank, "connected_sum")
    if other.rank != 2:
        raise RankNotTwo(other.rank, "connected_sum")
    if not 0 <= flag_a < system.flag_count:
        raise BadParameters(f"flag {flag_a} out of range for the first map")
    if not 0 <= flag_b < other.flag_count:
        raise BadParameters(f"flag {flag_b} out of range for the second map")

    labels_a, _ = cell_labels(system, 2)
    labels_b, _ = cell_labels(other, 2)
    fa = labels_a == labels_a[flag_a]
    fb = labels_b == labels_b[flag_b]
    size_a, size_b = np.count_nonzero(fa), np.count_nonzero(fb)
    if size_a != size_b:
        raise FaceSizeMismatch(size_a // 2, size_b // 2)
    if fa[system.connections[2][fa]].any():
        raise FaceSelfAdjacent("first")
    if fb[other.connections[2][fb]].any():
        raise FaceSelfAdjacent("second")

    na = system.flag_count
    conns = [np.concatenate([a, b + na]) for a, b in zip(system.connections, other.connections)]
    r0, r1, r2 = conns
    # walk both face boundaries in step and sew the outside flags together
    wa, wb = flag_a, na + flag_b
    for _ in range(size_a // 2):
        for xa, xb in ((wa, wb), (r1[wa], r1[wb])):
            pa, pb = r2[xa], r2[xb]
            r2[pa], r2[pb] = pb, pa
        wa, wb = r1[r0[wa]], r1[r0[wb]]
    keep = np.concatenate([~fa, ~fb])
    new = np.cumsum(keep) - 1
    system = _assemble(2, [new[conn[keep]] for conn in conns])
    try:
        _require_connected(system)
    except Disconnected as exc:  # a face that meets itself at a vertex can cut the sum apart
        raise FaceSelfAdjacent(
            "a chosen", f"at a vertex, so the sum has {exc.component_count} components") from None
    return system


# ---------------------------------------------------------------------------
# realizing coloring groups on surfaces


_FULL = frozenset(range(8))
_EXCEPTIONS = (
    (frozenset({0, 2, 5, 7}), SurfaceSignature(orientable=True, genus=0)),
    (frozenset({0, 2}), SurfaceSignature(orientable=False, genus=1)),
    (frozenset({0, 5}), SurfaceSignature(orientable=False, genus=1)),
)
# orientable groups paired with the half to build downstairs before doubling
_ORIENTABLE_HALVES = {
    frozenset({0, 7}): frozenset({0}),
    frozenset({0, 1, 6, 7}): frozenset({0, 1}),
    frozenset({0, 2, 5, 7}): frozenset({0, 2}),
    frozenset({0, 3, 4, 7}): frozenset({0, 4}),
    _FULL: frozenset({0, 1, 4, 5}),
}


# groups built by make_property steps from a crosscap seed
_RECIPES = {
    frozenset({0}): ("odd_face", "odd_vertex"),
    frozenset({0, 4}): ("face_bipartite", "odd_face"),
    frozenset({0, 3}): ("odd_face", "fpso"),
    frozenset({0, 1, 2, 3}): ("fpso", "vertex_bipartite"),
    frozenset({0, 1, 4, 5}): ("face_bipartite", "vertex_bipartite"),
    frozenset({0, 3, 5, 6}): ("fpso", "vpso"),
}


def build_map_with_group(group, surface: SurfaceSignature) -> FlagSystem:
    """Produce a map on `surface` whose coloring group is exactly `group`.

    Groups containing the full index set live on orientable surfaces
    and are built by doubling a non-orientable construction; the rest
    start from a one-vertex seed and run insertion recipes, except the
    two engineered families (edge-bipartite grids and strip gluings).
    Each recipe step is one make_property pass, so every genus works
    and the size grows linearly with it: at most 48 flags per crosscap
    of the non-orientable surface built, doubled for an orientable
    target.  A surface whose bound exceeds _MAX_FLAGS is refused.
    Postconditions are re-verified before returning.
    """
    if not isinstance(group, ColoringGroup):
        group = ColoringGroup.of(2, group)
    if group.rank != 2:
        raise BadParameters(f"realization works at rank 2, got rank {group.rank}")
    masks = frozenset(group.masks)
    for bad_masks, bad_surface in _EXCEPTIONS:
        if masks == bad_masks and surface == bad_surface:
            raise ExceptionalPair(str(group), str(surface))
    group_orientable = 7 in masks
    if group_orientable != surface.orientable:
        raise OrientabilityMismatch(group_orientable, surface.orientable)
    if not surface.orientable and surface.genus < 1:
        raise BadParameters(f"non-orientable genus must be >= 1, got {surface.genus}")
    if surface.orientable and surface.genus < 0:
        raise BadParameters(f"genus must be >= 0, got {surface.genus}")
    sheets = 2 if surface.orientable else 1
    _check_flags(48 * sheets * (surface.genus + sheets - 1), f"a map on {surface}")

    result = _build_unverified(masks, surface)

    achieved = coloring_group(result)
    lies_on = surface_signature(result)
    if frozenset(achieved.masks) != masks or lies_on != surface:
        raise ConstructionFailed(
            f"wanted group {group} on {surface}, "
            f"achieved {achieved} on {lies_on}"
        )
    return result


def _build_unverified(masks: frozenset[int], surface: SurfaceSignature) -> FlagSystem:
    if surface.orientable:
        half = _ORIENTABLE_HALVES[masks]
        base = _build_unverified(
            half, SurfaceSignature(orientable=False, genus=surface.genus + 1)
        )
        return i_double(base, ColorSet.full(2)).system

    genus = surface.genus
    if masks == frozenset({0, 2}):
        if genus == 2:
            return grid_map(3, 3, 0)
        return grid_map(3, 2 * (genus - 2) + 3, genus - 2)
    if masks == frozenset({0, 5}):
        if genus % 2 == 0:
            return strip_map(genus // 2, range((genus - 2) // 2), 0)
        return strip_map((genus + 1) // 2, range((genus - 1) // 2), 1)
    if masks not in _RECIPES:
        # {0,1}, {0,6} and {0,2,4,6}: T(M) transfers through the dual by
        # i -> 2 - i, and each of their duals has a recipe
        dual_masks = frozenset(dual_color_set(ColorSet(2, m)).mask for m in masks)
        return dual(_build_unverified(dual_masks, surface))
    system = crosscap_map(genus)
    for goal in _RECIPES[masks]:
        system = make_property(system, goal)
    return system
