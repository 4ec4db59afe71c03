"""Per-edge reference for the batched edge insertion in construct, and
the two-map reference for connected_sum.

These are the bodies of subdivide_edge, double_edge, the two conflict
searches, the per-edge surgery loop and the two odd-cell adjusters as
they were before make_property moved onto one batched insertion.  They
are kept unchanged so that the equivalence tests compare the batched
code against an independent, one-edge-at-a-time implementation.
connected_sum is the body from before the sum moved onto one
concatenated array set that is compacted once; it renumbers each map
through its own table.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from mapforge import cell_labels, cells, edge_of, validate
from mapforge.construct import _edge_corners
from mapforge.errors import BadParameters, FaceSelfAdjacent, FaceSizeMismatch, RankNotTwo
from orbit_reference import alternating_reference


def _extended(system, extra):
    out = []
    for conn in system.connections:
        arr = np.empty(system.flag_count + extra, dtype=np.intp)
        arr[: system.flag_count] = conn
        out.append(arr)
    return out


def _set_pairs(arr, *pairs):
    for x, y in pairs:
        arr[x] = y
        arr[y] = x


def subdivide_edge(system, edge):
    a, b, c, d = _edge_corners(system, edge)
    n = system.flag_count
    a2, b2, c2, d2 = n, n + 1, n + 2, n + 3
    r0, r1, r2 = _extended(system, 4)
    _set_pairs(r0, (a, a2), (b, b2), (c, c2), (d, d2))
    _set_pairs(r1, (a2, b2), (c2, d2))
    _set_pairs(r2, (a2, c2), (b2, d2))
    return validate(2, n + 4, (r0, r1, r2))


def double_edge(system, edge):
    a, b, c, d = _edge_corners(system, edge)
    n = system.flag_count
    a2, b2, c2, d2 = n, n + 1, n + 2, n + 3
    r0, r1, r2 = _extended(system, 4)
    _set_pairs(r0, (a2, b2), (c2, d2))
    _set_pairs(r1, (a2, c2), (b2, d2))
    _set_pairs(r2, (a, a2), (b, b2), (c, c2), (d, d2))
    return validate(2, n + 4, (r0, r1, r2))


def _vertexish_conflicts(system, dim, crossing):
    labels, count = cell_labels(system, omit=dim)
    cross = system.connections[crossing]
    adj = [[] for _ in range(count)]
    for e in cells(system, 1):
        a = e.flags[0]
        u, w = int(labels[a]), int(labels[cross[a]])
        adj[u].append(w)
        adj[w].append(u)
    side = [-1] * count
    side[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if side[w] < 0:
                side[w] = side[u] ^ 1
                queue.append(w)
    return [
        e.flags[0]
        for e in cells(system, 1)
        if side[int(labels[e.flags[0]])] == side[int(labels[cross[e.flags[0]]])]
    ]


def _psoish_conflicts(system, dim, inner, crossing):
    labels, count = cell_labels(system, omit=dim)
    ref = alternating_reference(system, inner)
    cross = system.connections[crossing]
    edges = []
    adj = [[] for _ in range(count)]
    for e in cells(system, 1):
        a = e.flags[0]
        u, w = int(labels[a]), int(labels[cross[a]])
        gamma = int(ref[a]) ^ int(ref[cross[a]])
        edges.append((a, u, w, gamma))
        adj[u].append((w, gamma))
        adj[w].append((u, gamma))
    bit = [-1] * count
    bit[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w, gamma in adj[u]:
            if bit[w] < 0:
                bit[w] = bit[u] ^ gamma
                queue.append(w)
    return [a for a, u, w, gamma in edges if bit[u] ^ bit[w] != gamma]


def _apply_surgery_at(system, flags, op):
    count = 0
    for f in flags:
        system = op(system, edge_of(system, f))
        count += 1
    return system, count


def _distinct_face_edge(system):
    labels, _ = cell_labels(system, omit=2)
    r2 = system.connections[2]
    for e in cells(system, 1):
        a = e.flags[0]
        if labels[a] != labels[r2[a]]:
            return e
    return None


def _nonloop_edge(system):
    labels, _ = cell_labels(system, omit=0)
    r0 = system.connections[0]
    for e in cells(system, 1):
        a = e.flags[0]
        if labels[a] != labels[r0[a]]:
            return e
    return None


def _make_odd_face(system):
    if any(f.degree % 2 for f in cells(system, 2)):
        return system, 0
    e = _distinct_face_edge(system)
    if e is not None:
        return subdivide_edge(system, e), 1
    e = cells(system, 1)[0]
    a = e.flags[0]
    once = double_edge(system, e)
    return subdivide_edge(once, edge_of(once, a)), 2


def _make_odd_vertex(system):
    if any(v.degree % 2 for v in cells(system, 0)):
        return system, 0
    e = _nonloop_edge(system)
    if e is not None:
        return double_edge(system, e), 1
    e = cells(system, 1)[0]
    a = e.flags[0]
    once = subdivide_edge(system, e)
    return double_edge(once, edge_of(once, a)), 2


def make_property_counted(system, goal):
    """The old goal dispatch: (adjusted system, surgeries applied)."""
    if system.rank != 2:
        raise RankNotTwo(system.rank, "make_property")
    if goal == "vertex_bipartite":
        return _apply_surgery_at(
            system, _vertexish_conflicts(system, 0, 0), subdivide_edge
        )
    if goal == "face_bipartite":
        return _apply_surgery_at(
            system, _vertexish_conflicts(system, 2, 2), double_edge
        )
    if goal == "vpso":
        return _apply_surgery_at(
            system, _psoish_conflicts(system, 0, (1, 2), 0), subdivide_edge
        )
    if goal == "fpso":
        return _apply_surgery_at(
            system, _psoish_conflicts(system, 2, (0, 1), 2), double_edge
        )
    if goal == "odd_face":
        return _make_odd_face(system)
    if goal == "odd_vertex":
        return _make_odd_vertex(system)
    raise BadParameters(f"unknown goal {goal!r}")


def make_property(system, goal):
    return make_property_counted(system, goal)[0]


def connected_sum(system, other, flag_a, flag_b):
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
    r2a = system.connections[2]
    r2b = other.connections[2]
    if fa[r2a[fa]].any():
        raise FaceSelfAdjacent("first")
    if fb[r2b[fb]].any():
        raise FaceSelfAdjacent("second")

    na, nb = system.flag_count, other.flag_count
    keep_a = np.flatnonzero(~fa)
    keep_b = np.flatnonzero(~fb)
    new_a = np.full(na, -1, dtype=np.intp)
    new_b = np.full(nb, -1, dtype=np.intp)
    new_a[keep_a] = np.arange(keep_a.size, dtype=np.intp)
    new_b[keep_b] = keep_a.size + np.arange(keep_b.size, dtype=np.intp)
    total = keep_a.size + keep_b.size

    conns = []
    for j in range(3):
        arr = np.empty(total, dtype=np.intp)
        arr[new_a[keep_a]] = new_a[system.connections[j][keep_a]]
        arr[new_b[keep_b]] = new_b[other.connections[j][keep_b]]
        conns.append(arr)

    # walk both face boundaries in step and sew the outside flags together
    k = size_a // 2
    r0a, r1a = system.connections[0], system.connections[1]
    r0b, r1b = other.connections[0], other.connections[1]
    wa, wb = flag_a, flag_b
    for _ in range(k):
        for xa, xb in ((wa, wb), (int(r1a[wa]), int(r1b[wb]))):
            pa, pb = new_a[int(r2a[xa])], new_b[int(r2b[xb])]
            conns[2][pa] = pb
            conns[2][pb] = pa
        wa = int(r1a[r0a[wa]])
        wb = int(r1b[r0b[wb]])
    return validate(2, total, conns)
