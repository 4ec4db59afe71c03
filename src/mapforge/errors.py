"""Exception types raised by the library.

Every structural violation carries enough context (indices, flags) to
locate the offending entry in the input.
"""

from __future__ import annotations


class MapforgeError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# flag-system validation


class ValidationError(MapforgeError):
    """A candidate flag system violates one of the structural axioms."""


class OutOfRange(ValidationError):
    def __init__(self, i: int, f: int, value: int, flag_count: int):
        self.i, self.f, self.value, self.flag_count = i, f, value, flag_count
        super().__init__(
            f"connection r{i} maps flag {f} to {value}, outside 0..{flag_count - 1}"
        )


class NotInvolution(ValidationError):
    def __init__(self, i: int, f: int | None = None, detail: str = ""):
        self.i, self.f = i, f
        msg = detail or f"connection r{i} is not an involution (first failure at flag {f})"
        super().__init__(msg)


class FixedPoint(ValidationError):
    def __init__(self, i: int, f: int):
        self.i, self.f = i, f
        super().__init__(f"connection r{i} fixes flag {f}")


class NonCommuting(ValidationError):
    def __init__(self, i: int, j: int, f: int):
        self.i, self.j, self.f = i, j, f
        super().__init__(f"connections r{i} and r{j} do not commute at flag {f}")


class NotDisjoint(ValidationError):
    def __init__(self, i: int, j: int, f: int):
        self.i, self.j, self.f = i, j, f
        super().__init__(f"connections r{i} and r{j} agree at flag {f}")


class Disconnected(ValidationError):
    def __init__(self, component_count: int):
        self.component_count = component_count
        super().__init__(f"flag graph is disconnected ({component_count} components)")


class RankNotTwo(MapforgeError):
    def __init__(self, rank: int, what: str = "operation"):
        self.rank = rank
        super().__init__(f"{what} requires a rank-2 system, got rank {rank}")


class RankMismatch(MapforgeError):
    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        super().__init__(f"rank mismatch: {a} vs {b}")


class OddCharacteristicOrientable(MapforgeError):
    def __init__(self, chi: int):
        self.chi = chi
        super().__init__(f"orientable system with odd Euler characteristic {chi}")


class NotAClosedCycle(MapforgeError):
    def __init__(self, f: int, end: int):
        self.f, self.end = f, end
        super().__init__(f"word starting at flag {f} ends at flag {end}, not closed")


# ---------------------------------------------------------------------------
# colorings


class ClosureViolation(MapforgeError):
    """Internal consistency failure: the collected color sets do not form a group."""


# ---------------------------------------------------------------------------
# doubles / quotients


class VertexBipartite(MapforgeError):
    def __init__(self):
        super().__init__("map is vertex-bipartite; the doubled system would split")


class NotDeck(MapforgeError):
    def __init__(self, i: int, f: int):
        self.i, self.f = i, f
        super().__init__(f"permutation does not commute with r{i} at flag {f}")


class HasFixedPoint(MapforgeError):
    def __init__(self, f: int):
        self.f = f
        super().__init__(f"deck involution fixes flag {f}")


class ConnectionCollision(MapforgeError):
    def __init__(self, j: int, f: int):
        self.j, self.f = j, f
        super().__init__(
            f"deck involution sends flag {f} to its own r{j}-neighbour; "
            "quotient connection would fix a flag"
        )


# ---------------------------------------------------------------------------
# constructions


class UnknownName(MapforgeError):
    def __init__(self, name: str, options=()):
        self.name = name
        extra = f" (expected one of {', '.join(options)})" if options else ""
        super().__init__(f"unknown name {name!r}{extra}")


class BadParameters(MapforgeError):
    pass


class NotAnEdge(MapforgeError):
    def __init__(self, what: str):
        super().__init__(f"not an edge cell: {what}")


class LoopEdge(MapforgeError):
    def __init__(self, detail: str = "edge is a loop (both endpoints coincide)"):
        super().__init__(detail)


class FaceSizeMismatch(MapforgeError):
    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        super().__init__(f"face degrees differ: {a} vs {b}")


class FaceSelfAdjacent(MapforgeError):
    def __init__(self, which: str, where: str = "across an edge"):
        super().__init__(f"{which} face meets itself {where}; cannot splice there")


class OrientabilityMismatch(MapforgeError):
    def __init__(self, group_orientable: bool, surface_orientable: bool):
        self.group_orientable = group_orientable
        self.surface_orientable = surface_orientable
        super().__init__(
            f"group {'contains' if group_orientable else 'lacks'} the full color set "
            f"but surface is {'orientable' if surface_orientable else 'non-orientable'}"
        )


class ExceptionalPair(MapforgeError):
    def __init__(self, group_text: str, surface_text: str):
        self.group_text, self.surface_text = group_text, surface_text
        super().__init__(
            f"group {group_text} is not realizable on surface {surface_text}"
        )


class ConstructionFailed(MapforgeError):
    pass


# ---------------------------------------------------------------------------
# file format


class FlagFileError(MapforgeError):
    def __init__(self, line: int | None, column: int | None, message: str):
        self.line, self.column = line, column
        if line is None:
            super().__init__(message)
            return
        at = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{at}: {message}")
