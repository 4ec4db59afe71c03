"""Per-flag transport reference for the isomorphism search.

These are the Python BFS and the one-flag-at-a-time transport that
flagsys used before its level-synchronous search.  The bodies are kept
as they were so that the equivalence tests compare is_isomorphic,
deck_transformations and recognize_i_double against an independent
implementation.
"""

from __future__ import annotations

import numpy as np

from mapforge.flagsys import FlagSystem, _freeze


def _bfs_tree(system: FlagSystem) -> list[tuple[int, int, int]]:
    """Spanning-tree edges (flag, parent, letter) in BFS discovery order from flag 0."""
    n = system.flag_count
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    order: list[tuple[int, int, int]] = []
    frontier = [0]
    while frontier:
        nxt = []
        for f in frontier:
            for letter, conn in enumerate(system.connections):
                g = int(conn[f])
                if not seen[g]:
                    seen[g] = True
                    order.append((g, f, letter))
                    nxt.append(g)
        frontier = nxt
    return order


_CHUNK = 4_000_000


def _isomorphisms(source: FlagSystem, target: FlagSystem):
    """Yield every isomorphism from source onto target, in ascending order
    of the image of flag 0.

    Each target flag in turn is tried as the image of source flag 0, and
    the images are extended along a BFS spanning tree of the source, in
    blocks of about _CHUNK table entries.  A row is an isomorphism exactly
    when it commutes with every connection; since the image of flag 0
    fixes the rest, each isomorphism appears once.  Both systems must
    have the same rank and flag count.
    """
    tree = _bfs_tree(source)
    n = source.flag_count
    rows = max(1, _CHUNK // n)
    for start in range(0, n, rows):
        table = np.empty((min(rows, n - start), n), dtype=np.intp)
        table[:, 0] = np.arange(start, start + table.shape[0], dtype=np.intp)
        for flag, parent, letter in tree:
            table[:, flag] = target.connections[letter][table[:, parent]]
        ok = np.ones(table.shape[0], dtype=bool)
        for src, tgt in zip(source.connections, target.connections):
            ok &= (table[:, src] == tgt[table]).all(axis=1)
        for row in np.flatnonzero(ok):
            yield _freeze(table[row].copy())


def is_isomorphic(system: FlagSystem, other: FlagSystem):
    if system.flag_count != other.flag_count:
        return None
    return next(_isomorphisms(system, other), None)


def deck_transformations(system: FlagSystem) -> list[np.ndarray]:
    return list(_isomorphisms(system, system))
