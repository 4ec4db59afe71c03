"""Two-sheet covers indexed by a color set, and their recognition.

The I-double of a flag system lives on two copies of the flag set and
crosses sheets exactly along connections in I.  It is connected
precisely when no I-coloring exists downstairs; when a coloring does
exist the construction falls apart into two copies of the base.
Quotienting by a sheet-swapping deck involution inverts the
construction, which is how covers are recognized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coloring import ColorSet, _as_color_set, find_coloring
from .errors import (
    BadParameters,
    ConnectionCollision,
    HasFixedPoint,
    NotDeck,
    NotInvolution,
    RankNotTwo,
    ValidationError,
    VertexBipartite,
)
from . import flagsys
from .flagsys import FlagSystem, _assemble, _freeze, _isomorphisms, _root_labels, validate

__all__ = [
    "DoubleResult",
    "i_double",
    "sherk_double",
    "quotient",
    "recognize_i_double",
]


@dataclass(frozen=True)
class DoubleResult:
    """Outcome of doubling: either a genuine cover or two split copies.

    split is true when the construction disconnected; `system` is then
    the component of flag (0, 0), which is the input itself, and the
    projection is the identity.
    Otherwise `system` has twice the flags and fibers of size 2.
    """

    split: bool
    system: FlagSystem
    projection: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "projection", _freeze(self.projection))


def i_double(system: FlagSystem, color_set) -> DoubleResult:
    """Double cover crossing sheets along the connections in color_set.

    Flag (f, i) is numbered 2f+i.  The parity map (f, i) -> i is always
    a coloring of the result for the same index set, which is why the
    result's coloring group grows to the closure of T(M) with I.
    """
    return _i_doubles(system, [_as_color_set(system, color_set)])[0]


def _i_doubles(system: FlagSystem, color_sets) -> list[DoubleResult]:
    """i_double of each color set, from flagsys._union passes over their lifts.

    Flag (f, s) is node 2f + s, r_j flips by 1 << j, and the doubles share
    each letter's lifts, sheets kept and, if some set crosses the letter,
    swapped.  The lift keeps every axiom but connectivity, so a block with
    two roots in its pass has split: its (0, 0) component, the flags (f, c(f))
    for the I-coloring c with c(0) = 0, is the input.  A connected block's
    potentials are kept as its flagsys._pot (_seed) before the next pass.
    """
    n2 = 2 * system.flag_count
    flagsys._check_flags(n2, f"doubling a system of {system.flag_count} flags")
    ids = np.arange(n2, dtype=np.intp)
    kept = [2 * np.repeat(conn, 2) + (ids & 1) for conn in system.connections]
    crossed = {j for cs in color_sets for j in cs.indices}
    lifts = [(c, c ^ 1 if j in crossed else c) for j, c in enumerate(kept)]
    blocks = [[lift[j in cs] for j, lift in enumerate(lifts)] for cs in color_sets]
    doubles = []  # each connected double, None where the lift split
    for i, starts, root, pot in flagsys._union(blocks, [1 << j for j in range(system.rank + 1)]):
        joined = (root.reshape(-1, n2) == starts[:-1, None]).all(axis=1)
        for block, a, one in zip(blocks[i:], starts, joined):
            doubles.append(_assemble(system.rank, block) if one else None)
            if one:
                flagsys._seed(doubles[-1], flagsys._pot, pot[a:a + n2])
    half, same = ids // 2, ids[:n2 // 2]  # each result's projection, shared
    return [DoubleResult(True, system, same) if double is None
            else DoubleResult(False, double, half) for double in doubles]


def sherk_double(system: FlagSystem) -> FlagSystem:
    """Vertex-doubling cover: triangulations grow hexagonal faces.

    Defined as the {0}-double; connectivity requires a non-bipartite
    vertex graph, so bipartite input is an error rather than a split.
    """
    if system.rank != 2:
        raise RankNotTwo(system.rank, "sherk_double")
    result = i_double(system, ColorSet.of((0,), 2))
    if result.split:
        raise VertexBipartite()
    return result.system


def quotient(system: FlagSystem, u) -> tuple[FlagSystem, np.ndarray]:
    """Collapse matching flags of a deck involution into a half-size system.

    The orbits {f, u(f)} become flags, numbered by their smaller member
    in ascending order.  Connections descend because u commutes with
    them; they stay fixed-point-free because u avoids every r_j.
    """
    n = system.flag_count
    u = np.asarray(u)
    if u.shape != (n,):
        raise BadParameters(f"deck map has shape {u.shape}, expected ({n},)")
    if u.dtype.kind not in "iu" or ((u < 0) | (u >= n)).any():
        raise BadParameters(f"deck map entries must be integers in 0..{n - 1}")
    u = np.ascontiguousarray(u, dtype=np.intp)
    ids = np.arange(n, dtype=np.intp)
    for i, conn in enumerate(system.connections):
        bad = np.nonzero(u[conn] != conn[u])[0]
        if bad.size:
            raise NotDeck(i, int(bad[0]))
    bad = np.nonzero(u[u] != ids)[0]
    if bad.size:
        raise NotInvolution(
            -1, int(bad[0]), f"u(u(f)) != f at flag {int(bad[0])}"
        )
    bad = np.nonzero(u == ids)[0]
    if bad.size:
        raise HasFixedPoint(int(bad[0]))
    for j, conn in enumerate(system.connections):
        bad = np.nonzero(u == conn)[0]
        if bad.size:
            raise ConnectionCollision(j, int(bad[0]))

    phi, count = _root_labels(np.minimum(ids, u))
    # u has no fixed point, so the smaller member of each orbit is f < u(f)
    reps = np.flatnonzero(ids < u)
    base = validate(system.rank, count, [phi[conn[reps]] for conn in system.connections])
    return base, _freeze(phi)


def recognize_i_double(system: FlagSystem, color_set):
    """Detect whether a system is an I-double and recover the base.

    Needs an I-coloring upstairs; then hunts for a deck involution that
    swaps the two color classes without ever matching a connection.
    Returns (u, base, projection) for the first such involution in deck
    order, or None.  The base is never I-colorable: a base coloring
    would lift through the projection, yet every lift must be swapped
    by u while lifted colorings are u-invariant.
    """
    cs = _as_color_set(system, color_set)
    coloring = find_coloring(system, cs)
    if coloring is None:
        return None
    a = coloring.assignment
    # For a deck u, a∘u is again an I-coloring of a connected system, so it
    # equals a or 1 - a; sending flag 0 to the other color makes it 1 - a.
    for u in _isomorphisms(system, system, images=np.flatnonzero(a != a[0])):
        # quotient refuses u unless it is an involution avoiding every connection
        try:
            base, phi = quotient(system, u)
        except (ValidationError, ConnectionCollision):
            continue
        return u, base, phi
    return None
