"""Classical operators on flag systems: dual, Petrie, opposite, medial.

All four turn a valid system into a valid one (Wilson, "Maniplexes:
Part 1", 2012), so they assemble their output without validating it;
only opposite and petrie above rank 3, where r0·r2 may equal some r_j
with j >= 4, still run validate.  They are pure and commute with flag
relabeling.
"""

from __future__ import annotations

import numpy as np

from .coloring import ColorSet
from .errors import BadParameters, RankNotTwo
from .flagsys import FlagSystem, _assemble, validate

__all__ = [
    "dual",
    "petrie",
    "opposite",
    "medial",
    "dual_color_set",
    "opposite_color_set",
    "petrie_color_set",
]


def dual(system: FlagSystem) -> FlagSystem:
    """Reverse the connection order; cells of dimension i become rank − i."""
    return _assemble(system.rank, system.connections[::-1])


def opposite(system: FlagSystem) -> FlagSystem:
    """Replace connection 2 with the composite of connections 0 and 2.

    The two commute, so the composite is again a fixed-point-free
    involution; locally this reverses the gluing across every edge.
    """
    if system.rank < 2:
        raise BadParameters(f"opposite needs rank >= 2, got {system.rank}")
    n = system.rank
    conns = list(system.connections)
    conns[2] = conns[0][conns[2]]
    return validate(n, system.flag_count, conns) if n > 3 else _assemble(n, conns)


def petrie(system: FlagSystem) -> FlagSystem:
    """Swap faces for Petrie walks; vertices and edges stay put.

    Connection n−2 becomes the composite of connections n−2 and n, which
    is dual(opposite(dual(system))) at every rank; at rank 2 it turns
    connection 0 into the composite of connections 0 and 2.
    """
    if system.rank < 2:
        raise BadParameters(f"petrie needs rank >= 2, got {system.rank}")
    n = system.rank
    conns = list(system.connections)
    conns[n - 2] = conns[n][conns[n - 2]]
    return validate(n, system.flag_count, conns) if n > 3 else _assemble(n, conns)


def medial(system: FlagSystem) -> FlagSystem:
    """Map whose vertices are the edges of the input, on the same surface.

    Flags are pairs (f, i) numbered 2f+i.  The i = 0 copy keeps the
    vertex-side adjacency of f, the i = 1 copy the face-side one, and
    the two copies of each flag are glued along the new connection 2.
    """
    if system.rank != 2:
        raise RankNotTwo(system.rank, "medial")
    n = system.flag_count
    r0, r1, r2 = system.connections
    ids = np.arange(2 * n, dtype=np.intp)
    s0 = 2 * np.repeat(r1, 2) + (ids & 1)
    s1 = 2 * np.stack([r0, r2], axis=1).ravel() + (ids & 1)
    return _assemble(2, (s0, s1, ids ^ 1))


def dual_color_set(color_set: ColorSet) -> ColorSet:
    """Index set that transfers a coloring through dual: i becomes rank − i."""
    return ColorSet.of((color_set.rank - i for i in color_set.indices), color_set.rank)


def opposite_color_set(color_set: ColorSet) -> ColorSet:
    """Transfer rule through opposite: toggle 2 whenever 0 is present."""
    if 0 in color_set:
        return color_set ^ ColorSet.of((2,), color_set.rank)
    return color_set


def petrie_color_set(color_set: ColorSet) -> ColorSet:
    """Transfer rule through petrie at rank n: toggle n−2 whenever n is
    present, since the new r_{n−2} is the composite of r_{n−2} and r_n."""
    n = color_set.rank
    if n in color_set:
        return color_set ^ ColorSet.of((n - 2,), n)
    return color_set
