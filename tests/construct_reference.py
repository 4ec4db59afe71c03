"""Per-dart reference for the rank-2 generators in construct.

These are the bodies of from_rotation_system, _glued_polygon,
_square_complex, grid_map's gluing list and tri_torus as they were
before every generator moved onto one whole-array polygon builder
(construct._polygons), and of cube_maniplex before it moved to
whole-array numpy.  Each writes its connections with its own Python
loop, so the equivalence tests compare the builders against an
independent, one-dart-at-a-time implementation.  The size and
parameter checks of the public generators are left out: the tests call
these only with parameters that the generators accept.
"""

from __future__ import annotations

import numpy as np

from mapforge import RotationSystem, validate
from mapforge.errors import BadParameters


def from_rotation_system(rs: RotationSystem):
    n = 2 * rs.dart_count
    r0 = np.empty(n, dtype=np.intp)
    r1 = np.empty(n, dtype=np.intp)
    r2 = np.empty(n, dtype=np.intp)
    for rot in rs.rotations:
        k = len(rot)
        for idx, d in enumerate(rot):
            nxt = rot[(idx + 1) % k]
            prv = rot[(idx - 1) % k]
            r1[2 * d] = 2 * nxt + 1
            r1[2 * d + 1] = 2 * prv
    for a, b, s in rs.edge_pairs:
        if s > 0:
            r0[2 * a] = 2 * b + 1
            r0[2 * a + 1] = 2 * b
            r0[2 * b] = 2 * a + 1
            r0[2 * b + 1] = 2 * a
        else:
            r0[2 * a] = 2 * b
            r0[2 * a + 1] = 2 * b + 1
            r0[2 * b] = 2 * a
            r0[2 * b + 1] = 2 * a + 1
    ids = np.arange(rs.dart_count, dtype=np.intp)
    r2[2 * ids] = 2 * ids + 1
    r2[2 * ids + 1] = 2 * ids
    return validate(2, n, (r0, r1, r2))


def tri_torus(m: int, n: int):
    dirs = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))

    def dart(i, j, t):
        return 6 * ((i % m) * n + (j % n)) + t

    rotations = tuple(
        tuple(dart(i, j, t) for t in range(6))
        for i in range(m)
        for j in range(n)
    )
    pairs = []
    for i in range(m):
        for j in range(n):
            for t in range(3):
                di, dj = dirs[t]
                pairs.append((dart(i, j, t), dart(i + di, j + dj, t + 3), 1))
    return from_rotation_system(RotationSystem(rotations=rotations, edge_pairs=tuple(pairs)))


def glued_polygon(pairs):
    L = 2 * len(pairs)
    n = 2 * L
    r0 = np.empty(n, dtype=np.intp)
    r1 = np.empty(n, dtype=np.intp)
    r2 = np.empty(n, dtype=np.intp)
    for i in range(L):
        r0[2 * i] = 2 * i + 1
        r0[2 * i + 1] = 2 * i
        r1[2 * i] = 2 * ((i - 1) % L) + 1
        r1[2 * i + 1] = 2 * ((i + 1) % L)
    for p, q, same in pairs:
        if same:
            r2[2 * p], r2[2 * q] = 2 * q, 2 * p
            r2[2 * p + 1], r2[2 * q + 1] = 2 * q + 1, 2 * p + 1
        else:
            r2[2 * p], r2[2 * q + 1] = 2 * q + 1, 2 * p
            r2[2 * p + 1], r2[2 * q] = 2 * q, 2 * p + 1
    return validate(2, n, (r0, r1, r2))


def square_complex(square_count: int, gluings):
    """gluings: ((square, side), (square, side), flip) triples."""
    n = 8 * square_count
    r0 = np.empty(n, dtype=np.intp)
    r1 = np.empty(n, dtype=np.intp)
    r2 = np.full(n, -1, dtype=np.intp)

    def corner(s, c, sigma):
        return 8 * s + 2 * (c % 4) + sigma

    for s in range(square_count):
        for c in range(4):
            r1[corner(s, c, 0)] = corner(s, c, 1)
            r1[corner(s, c, 1)] = corner(s, c, 0)
            r0[corner(s, c, 0)] = corner(s, c + 1, 1)
            r0[corner(s, c + 1, 1)] = corner(s, c, 0)
    for (s, k), (s2, k2), flip in gluings:
        a0, a1 = corner(s, k, 0), corner(s, k + 1, 1)
        b0, b1 = corner(s2, k2, 0), corner(s2, k2 + 1, 1)
        if flip:
            r2[a0], r2[b0] = b0, a0
            r2[a1], r2[b1] = b1, a1
        else:
            r2[a0], r2[b1] = b1, a0
            r2[a1], r2[b0] = b0, a1
    if (r2 < 0).any():
        raise BadParameters("some square side was never glued")
    return validate(2, n, (r0, r1, r2))


def grid_map(m: int, n: int, k: int):
    def sq(i, j):
        return j * m + i

    gluings = []
    for j in range(n):
        for i in range(m - 1):
            gluings.append(((sq(i, j), 1), (sq(i + 1, j), 3), 0))
    for j in range(n):
        for i in range(m):
            gluings.append(((sq(i, j), 2), (sq(i, (j + 1) % n), 0), 0))
    for j in range(n):
        gluings.append(((sq(0, j), 3), (sq(m - 1, n - 1 - j), 1), 0 if j < k else 1))
    return square_complex(m * n, gluings)


def cube_maniplex(d: int):
    """Flag system of the d-cube, one (vertex, coordinate order) flag at a time."""
    from itertools import permutations

    perms = list(permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    fact = len(perms)
    n = (1 << d) * fact
    conns = [np.empty(n, dtype=np.intp) for _ in range(d)]
    for x in range(1 << d):
        base = x * fact
        for pi, p in enumerate(perms):
            f = base + pi
            conns[0][f] = (x ^ (1 << p[0])) * fact + pi
            for i in range(1, d):
                q = list(p)
                q[i - 1], q[i] = q[i], q[i - 1]
                conns[i][f] = base + index[tuple(q)]
    return validate(d - 1, n, conns)
