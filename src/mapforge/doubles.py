"""Two-sheet covers indexed by a color set, and their recognition.

The I-double of a flag system lives on two copies of the flag set and
crosses sheets exactly along connections in I.  It is connected
precisely when no I-coloring exists downstairs; when a coloring does
exist the construction falls apart into two copies of the base.
Doubles by several color sets come from one orbit-kernel pass over
their disjoint union, whose potentials each connected double keeps as
its parity pass.  Quotienting by a sheet-swapping deck involution
inverts the construction, which is how covers are recognized.
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
    """i_double of each color set, from one parity pass over their disjoint union.

    Flag (f, s) of the b-th double is node b*2N + 2f + s, and r_j flips
    by 1 << j; each block comes out as a pass of its own (see
    flagsys._orbits).  The lift keeps every axiom but connectivity, so a
    block with two roots is the split test, and a connected block keeps
    its potentials as its double's parity pass (FlagSystem._pot).  A pass
    holds about flagsys._CHUNK entries across letters.
    """
    n2 = 2 * system.flag_count
    ids = np.arange(n2, dtype=np.intp)
    step = max(1, flagsys._CHUNK // (n2 * (system.rank + 1)))
    out = []
    for start in range(0, len(color_sets), step):
        chunk = color_sets[start:start + step]
        offsets = np.arange(len(chunk), dtype=np.intp)[:, None] * n2
        sheets = offsets + (ids & 1)
        lifted = [(sheets ^ np.array([[j in cs] for cs in chunk])) + 2 * np.repeat(conn, 2)
                  for j, conn in enumerate(system.connections)]
        root, pot, _ = flagsys._orbits(len(chunk) * n2, [(None, c.ravel()) for c in lifted],
                                       [1 << j for j in range(system.rank + 1)])
        for b, joined in enumerate((root.reshape(-1, n2) == offsets).all(axis=1)):
            if joined:
                double = _assemble(system.rank, [c[b] - b * n2 for c in lifted], pot[b * n2:(b + 1) * n2])
                out.append(DoubleResult(False, double, ids // 2))
            else:  # the (0, 0) component holds the flags (f, c(f)) for the I-coloring c
                # with c(0) = 0, so in ascending order it is the input
                out.append(DoubleResult(True, system, ids[:n2 // 2]))
    return out


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
    outside = BadParameters(f"deck map entries must lie in 0..{n - 1}")
    try:
        u = np.ascontiguousarray(u, dtype=np.intp)
    except OverflowError:
        raise outside from None
    if u.shape != (n,):
        raise BadParameters(f"deck map has shape {u.shape}, expected ({n},)")
    if ((u < 0) | (u >= n)).any():
        raise outside
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
    return base, phi


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
