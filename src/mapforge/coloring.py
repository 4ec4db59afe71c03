"""Flag bicolorings and the group they generate.

An I-coloring of a flag system assigns 0/1 to every flag so that colors
differ across r_j exactly when j lies in the index set I.  The index
sets admitting a coloring form a subgroup of the power set of
{0..rank} under symmetric difference; that subgroup is the central
invariant computed here.

The parity pass (flagsys._parity) runs the orbit kernel once with flip
1<<j on letter j; find_coloring and coloring_group read it.  The cell
route (_cell_route, per dimension d) reads no parity pass: direct_pso,
i_face_bipartite and construct._conflicts read the route, and pso-oracle
compares its T(M) with coloring_group at every rank and d.  Both handle
rank up to 63.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .errors import (
    BadParameters,
    ClosureViolation,
    NotAClosedCycle,
    RankMismatch,
    RankNotTwo,
)
from .flagsys import (
    Cell,
    FlagSystem,
    _cycle_basis,
    _derived,
    _freeze,
    _labels,
    _orbits,
    _parity,
    _root_labels,
    _seed,
    apply_word,
    cell_labels,
)

__all__ = [
    "ColorSet",
    "Coloring",
    "ColoringGroup",
    "ArrowAssignment",
    "find_coloring",
    "is_valid_coloring",
    "coloring_group",
    "coloring_group_excluding_cell",
    "cycle_consistent",
    "is_pseudo_orientable",
    "direct_pso",
    "i_face_bipartite",
    "subgroup_closure",
    "all_subgroups",
    "PSO_KINDS",
]


@dataclass(frozen=True, order=True)
class ColorSet:
    """Subset of {0..rank} stored as a bitmask."""

    rank: int
    mask: int

    def __post_init__(self):
        if self.rank < 1:
            raise BadParameters(f"rank must be >= 1, got {self.rank}")
        if not 0 <= self.mask < (1 << (self.rank + 1)):
            raise BadParameters(f"mask {self.mask} out of range for rank {self.rank}")

    @classmethod
    def of(cls, indices, rank: int) -> "ColorSet":
        mask = 0
        for i in indices:
            if not 0 <= i <= rank:
                raise BadParameters(f"index {i} out of range 0..{rank}")
            mask |= 1 << i
        return cls(rank=rank, mask=mask)

    @classmethod
    def empty(cls, rank: int) -> "ColorSet":
        return cls(rank=rank, mask=0)

    @classmethod
    def full(cls, rank: int) -> "ColorSet":
        return cls(rank=rank, mask=(1 << (rank + 1)) - 1)

    @classmethod
    def parse(cls, text: str, rank: int) -> "ColorSet":
        text = text.strip()
        if text in ("e", ""):
            return cls.empty(rank)
        if not text.isdigit():
            raise BadParameters(f"bad color set syntax {text!r}")
        return cls.of((int(ch) for ch in text), rank)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.rank + 1) if self.mask >> i & 1)

    def __contains__(self, i: int) -> bool:
        return 0 <= i <= self.rank and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __xor__(self, other: "ColorSet") -> "ColorSet":
        if self.rank != other.rank:
            raise RankMismatch(self.rank, other.rank)
        return ColorSet(rank=self.rank, mask=self.mask ^ other.mask)

    def complement(self) -> "ColorSet":
        return ColorSet(rank=self.rank, mask=self.mask ^ ((1 << (self.rank + 1)) - 1))

    def __str__(self) -> str:
        return "".join(str(i) for i in self.indices) or "e"

    def sort_key(self) -> tuple:
        return (len(self), self.indices)


@dataclass(frozen=True)
class Coloring:
    """A concrete I-coloring; assignment[f] is the color of flag f."""

    color_set: ColorSet
    assignment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "assignment", _freeze(self.assignment, np.uint8))


@dataclass(frozen=True)
class ColoringGroup:
    """Delta-closed family of color sets containing the empty set."""

    rank: int
    masks: frozenset[int]

    def __post_init__(self):
        if 0 not in self.masks:
            raise ClosureViolation("group lacks the empty color set")
        for a in self.masks:
            for b in self.masks:
                if (a ^ b) not in self.masks:
                    raise ClosureViolation(
                        f"not closed: {ColorSet(self.rank, a)} ^ {ColorSet(self.rank, b)} missing"
                    )
        if len(self.masks) & (len(self.masks) - 1):
            raise ClosureViolation(f"size {len(self.masks)} is not a power of two")

    @classmethod
    def of(cls, rank: int, sets) -> "ColoringGroup":
        masks = set()
        for s in sets:
            masks.add(s.mask if isinstance(s, ColorSet) else int(s))
        return cls(rank=rank, masks=frozenset(masks))

    @classmethod
    def parse(cls, text: str, rank: int) -> "ColoringGroup":
        parts = [p for p in text.strip().split(",") if p]
        return cls.of(rank, (ColorSet.parse(p, rank) for p in parts))

    @property
    def members(self) -> tuple[ColorSet, ...]:
        sets = [ColorSet(self.rank, m) for m in self.masks]
        return tuple(sorted(sets, key=ColorSet.sort_key))

    def __contains__(self, item) -> bool:
        mask = item.mask if isinstance(item, ColorSet) else int(item)
        return mask in self.masks

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.masks)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.members)


def subgroup_closure(rank: int, sets) -> ColoringGroup:
    """Smallest Delta-closed family containing the given color sets.

    Each (rank, family) gets one shared ColoringGroup, so the O(|G|^2)
    closure check in its __post_init__ runs once per distinct group.
    """
    masks = {0}
    for s in sets:
        m = s.mask if isinstance(s, ColorSet) else int(s)
        masks |= {m ^ old for old in masks}
    return _shared_group(rank, frozenset(masks))


@cache
def _shared_group(rank: int, masks: frozenset[int]) -> ColoringGroup:
    return ColoringGroup(rank=rank, masks=masks)


def all_subgroups(rank: int) -> list[ColoringGroup]:
    """Every Delta-closed subgroup of the power set of {0..rank}."""
    singles = list(range(1 << (rank + 1)))
    seen: set[frozenset[int]] = set()
    out: list[ColoringGroup] = []
    for size in range(rank + 2):
        for gens in combinations(singles[1:], size):
            grp = subgroup_closure(rank, gens)
            if grp.masks not in seen:
                seen.add(grp.masks)
                out.append(grp)
    out.sort(key=lambda g: (len(g), tuple(s.sort_key() for s in g.members)))
    return out


def _as_color_set(system: FlagSystem, color_set) -> ColorSet:
    if isinstance(color_set, ColorSet):
        if color_set.rank != system.rank:
            raise RankMismatch(color_set.rank, system.rank)
        return color_set
    return ColorSet.of(color_set, system.rank)


def find_coloring(system: FlagSystem, color_set) -> Coloring | None:
    """Parity potentials of the orbit kernel, with flag 0 colored 0.

    Returns the canonical I-coloring, or None when some cycle forces a
    contradiction.  The only other coloring is its complement.
    """
    cs = _as_color_set(system, color_set)
    pot, basis = _parity(system)
    if any((c & cs.mask).bit_count() & 1 for c in basis):
        return None
    return Coloring(color_set=cs, assignment=_bits_in(pot, cs.mask))


def _bits_in(pot: np.ndarray, mask: int) -> np.ndarray:
    """XOR of the bits of `mask` in every potential: the color set's 0/1 values."""
    out = np.zeros_like(pot)
    for j in range(mask.bit_length()):
        if mask >> j & 1:
            out ^= pot >> j
    return out & 1


def is_valid_coloring(system: FlagSystem, color_set, assignment) -> bool:
    """Check the defining property at every flag and index."""
    cs = _as_color_set(system, color_set)
    a = np.asarray(assignment, dtype=np.uint8)
    if a.shape != (system.flag_count,) or a.max(initial=0) > 1:
        return False
    for j in range(system.rank + 1):
        differs = a[system.connections[j]] != a
        if j in cs:
            if not differs.all():
                return False
        elif differs.any():
            return False
    return True


def _orthogonal_group(rank: int, cycles) -> ColoringGroup:
    """Color sets with even overlap against every mask in `cycles` (_eliminated)."""
    return _eliminated(rank, tuple(cycles))


@cache
def _eliminated(rank: int, cycles: tuple[int, ...]) -> ColoringGroup:
    """_orthogonal_group, once per (rank, cycles): Gauss-Jordan elimination
    over GF(2) puts the cycle masks in reduced form; each non-pivot index b
    then yields the generator 1<<b plus the pivots of the rows containing b,
    and those generators span exactly the orthogonal complement."""
    rows: dict[int, int] = {}
    for c in cycles:
        for pivot, row in rows.items():
            if c >> pivot & 1:
                c ^= row
        if not c:
            continue
        pivot = c.bit_length() - 1
        for p, row in rows.items():
            if row >> pivot & 1:
                rows[p] = row ^ c
        rows[pivot] = c
    gens = []
    for b in range(rank + 1):
        if b not in rows:
            gens.append((1 << b) | sum(1 << p for p, row in rows.items() if row >> b & 1))
    return subgroup_closure(rank, gens)


@_derived
def coloring_group(system: FlagSystem) -> ColoringGroup:
    """All color sets admitting a coloring, read off the parity pass once per system."""
    return _orthogonal_group(system.rank, _parity(system)[1])


def coloring_group_excluding_cell(system: FlagSystem, face: Cell) -> ColoringGroup:
    """Color sets colorable on the system with one face's flags deleted.

    The remaining flag graph may be disconnected; each component is
    colored independently, so membership only requires the absence of a
    contradictory cycle outside the deleted face.  Flags that are not
    exactly one face of the system raise BadParameters.
    """
    if system.rank != 2:
        raise RankNotTwo(system.rank, "coloring_group_excluding_cell")
    if face.dimension != 2:
        raise BadParameters(f"expected a face cell, got dimension {face.dimension}")
    flags = face.flags
    first = flags[0] if flags and 0 <= flags[0] < system.flag_count else 0
    labels, _ = cell_labels(system, 2)
    kept = labels != labels[first]
    if set(np.flatnonzero(~kept).tolist()) != set(flags):
        raise BadParameters(f"flags {flags} do not form a face of this system")
    letters = []
    for conn in system.connections:
        src = np.nonzero(kept & kept[conn])[0]
        letters.append((src, conn[src]))
    flips = [1 << j for j in range(system.rank + 1)]
    pot = _orbits(system.flag_count, letters, flips)[1]
    return _orthogonal_group(system.rank, _cycle_basis(pot, letters, flips))


def cycle_consistent(system: FlagSystem, flag: int, word, color_set) -> bool:
    """Does a closed word at `flag` cross connections in `color_set` evenly?"""
    cs = _as_color_set(system, color_set)
    word = list(word)
    end = apply_word(system, flag, word)
    if end != flag:
        raise NotAClosedCycle(flag, end)
    return sum(1 for letter in word if letter in cs) % 2 == 0


def is_pseudo_orientable(system: FlagSystem, color_set) -> bool:
    """Can cells be given arrows matching along every index outside color_set?

    Equivalent to colorability of the complementary index set, in any rank.
    """
    cs = _as_color_set(system, color_set)
    return find_coloring(system, cs.complement()) is not None


@dataclass(frozen=True)
class ArrowAssignment:
    """Witness for a pseudo-orientation: one direction bit per cell."""

    kind: str
    cell_dimension: int
    arrows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "arrows", _freeze(self.arrows, np.uint8))


# kind -> (cell dimension, the two letters acting inside a cell, crossing letter,
#          parity required across the crossing: 1 = opposite, 0 = aligned)
PSO_KINDS = {
    "full": (2, (0, 1), 2, 1),
    "face": (2, (0, 1), 2, 0),
    "vertex": (0, (1, 2), 0, 0),
    "edge": (1, (0, 2), 1, 0),
}


@_derived
def _cell_pass(system: FlagSystem, dim: int):
    """(labels, count, relation, cycle basis arguments) of _cell_route's pass
    one.  Its roots are those of cell_labels(system, dim), since flips never
    steer the kernel's hooks, so labels not kept yet are seeded from it."""
    letters = [(None, c) for j, c in enumerate(system.connections) if j != dim]
    flips = [1 << j for j in range(system.rank + 1) if j != dim]
    root, ref, _ = _orbits(system.flag_count, letters, flips)
    ref = ref.astype(np.min_scalar_type(1 << system.rank), copy=False)  # room for 1 << dim
    labels, count = _seed(system, _labels, _root_labels(root), dim)
    relation = (1 << dim) ^ ref ^ ref[system.connections[dim]]
    return labels, count, relation, (ref, letters, flips)


@_derived
def _cell_route(system: FlagSystem, dim: int):
    """(labels, relation, bits, basis, root) of the dimension-`dim` cells, kept.

    Pass one (_cell_pass, all that construct._conflicts reads: letters j != dim,
    flip 1 << j) numbers the cells and gives each flag a letter mask ref.  Pass two
    relates the cells of f and f . r_dim by relation[f] = (1 << dim) ^ ref[f] ^
    ref[f . r_dim] and gives each cell a mask, bits, and a root.  Color set I has a coloring, the
    I-parity of ref plus bits, exactly when it meets both passes' cycle bases evenly.
    """
    labels, count, relation, first = _cell_pass(system, dim)
    edges = [(labels, labels[system.connections[dim]])]
    root, bits, _ = _orbits(count, edges, [relation])
    basis = _cycle_basis(*first) + _cycle_basis(bits, edges, [relation])
    return labels, relation, bits, basis, root


def _pso_roots(system: FlagSystem, kind: str):
    """validate's connectivity pass for direct_pso(system, kind): at rank 2, the
    _cell_route of the kind's cells, whose pass-two roots count the components
    (a cell lies in one); None, for a plain pass, at other ranks."""
    return _cell_route(system, PSO_KINDS[kind][0])[4] if system.rank == 2 else None


def direct_pso(system: FlagSystem, kind: str) -> ArrowAssignment | None:
    """Constraint-propagation oracle for the four rank-2 arrow properties.

    Each relevant cell is a closed walk alternating its two inner
    connections, so it carries exactly two circular directions; a
    reference direction is fixed per cell and every crossing of the
    remaining connection relates the direction bits of the two cells it
    joins.  These are the cell route's relations for the kind's color
    set; each component's bits are anchored at 0 on its smallest cell.
    """
    if system.rank != 2:
        raise RankNotTwo(system.rank, "direct_pso")
    if kind not in PSO_KINDS:
        raise BadParameters(f"unknown pseudo-orientation kind {kind!r}")
    dim, inner, crossing, flip = PSO_KINDS[kind]
    mask = (1 << inner[0]) | (1 << inner[1]) | flip << crossing
    bits, basis = _cell_route(system, dim)[2:4]
    if any((c & mask).bit_count() & 1 for c in basis):
        return None
    return ArrowAssignment(kind=kind, cell_dimension=dim, arrows=_bits_in(bits, mask))


def i_face_bipartite(system: FlagSystem, i: int) -> bool:
    """Two-colorability of dimension-i cells under r_i adjacency.

    This is the plain graph-bipartiteness oracle: cells are nodes, and
    two cells are adjacent when some flag of one is r_i-connected to a
    flag of the other.  A cell adjacent to itself is an immediate no.
    """
    if not 0 <= i <= system.rank:
        raise BadParameters(f"index {i} out of range 0..{system.rank}")
    return not any(c >> i & 1 for c in _cell_route(system, i)[3])
