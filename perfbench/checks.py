"""Output checks that do not trust the code under test.

Outputs that must not change are compared byte for byte with the pins
in ``expected.json``: short texts verbatim, flag files and systems by
SHA-256.  Outputs that may legitimately differ between correct versions
(isomorphisms, recognized decks and projections, arrow assignments) are
checked as witnesses with numpy code written here, never with mapforge.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque

import numpy as np

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Texts up to this length are pinned verbatim, longer ones by digest.
VERBATIM_LIMIT = 400


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def text_pin(text: str) -> str:
    if len(text) <= VERBATIM_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def system_pin(rank: int, connections) -> str:
    """Digest of a system's rank and connection arrays, independent of fileio."""
    h = hashlib.sha256(f"rank {rank}\n".encode("ascii"))
    for conn in connections:
        h.update(np.ascontiguousarray(conn, dtype="<i8").tobytes())
    return "sys:" + h.hexdigest()


# --- witness checks -------------------------------------------------------


def is_flag_system(rank: int, conns) -> bool:
    """The axioms: fixed-point-free involutions, far pairs commute and
    disagree everywhere, one orbit."""
    if len(conns) != rank + 1:
        return False
    n = len(conns[0])
    ids = np.arange(n)
    for c in conns:
        c = np.asarray(c)
        if c.shape != (n,) or c.min() < 0 or c.max() >= n:
            return False
        if (c == ids).any() or (c[c] != ids).any():
            return False
    for i in range(rank + 1):
        for j in range(i + 2, rank + 1):
            if (conns[i][conns[j]] != conns[j][conns[i]]).any() or (conns[i] == conns[j]).any():
                return False
    return orbit_count(conns) == 1


def orbit_labels(conns) -> np.ndarray:
    """Smallest flag of each flag's orbit under the given connections."""
    labels = np.arange(len(conns[0]))
    while True:
        nxt = labels.copy()
        for c in conns:
            np.minimum(nxt, labels[c], out=nxt)
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def orbit_count(conns) -> int:
    return int(np.unique(orbit_labels(conns)).size)


def is_isomorphism(source, target, mapping) -> bool:
    """Is mapping a bijection with mapping[r_i[f]] == s_i[mapping[f]]?"""
    phi = np.asarray(mapping)
    n = len(source[0])
    if len(source) != len(target) or phi.shape != (n,) or len(target[0]) != n:
        return False
    if phi.min() < 0 or phi.max() >= n or np.unique(phi).size != n:
        return False
    return all(np.array_equal(phi[r], s[phi]) for r, s in zip(source, target))


def is_covering(cover, base, phi, fiber: int) -> bool:
    """phi commutes with every connection and every fiber has ``fiber`` flags."""
    phi = np.asarray(phi)
    if len(cover) != len(base) or phi.shape != (len(cover[0]),):
        return False
    if phi.min() < 0 or phi.max() >= len(base[0]):
        return False
    if not all(np.array_equal(phi[c], b[phi]) for c, b in zip(cover, base)):
        return False
    sizes = np.bincount(phi, minlength=len(base[0]))
    return bool((sizes == fiber).all())


def parity_coloring(conns, color_set) -> np.ndarray | None:
    """Colour flag 0 with 0 and flip exactly across the letters in color_set."""
    n = len(conns[0])
    colors = np.full(n, -1, dtype=np.int8)
    colors[0] = 0
    flips = [1 if j in color_set else 0 for j in range(len(conns))]
    rows = [c.tolist() for c in conns]
    queue = deque([0])
    while queue:
        f = queue.popleft()
        cf = int(colors[f])
        for j, row in enumerate(rows):
            g = row[f]
            want = cf ^ flips[j]
            if colors[g] < 0:
                colors[g] = want
                queue.append(g)
            elif colors[g] != want:
                return None
    return colors.astype(np.uint8)


def is_coloring(conns, color_set, colors) -> bool:
    """Colours differ across r_j exactly when j is in color_set."""
    colors = np.asarray(colors)
    for j, c in enumerate(conns):
        differs = colors[c] != colors
        if not (differs.all() if j in color_set else not differs.any()):
            return False
    return True


def is_recognized_double(cover, color_set, deck, base, phi) -> bool:
    """Validate (deck, base, projection) returned for an I-double.

    The deck is a fixed-point-free involution commuting with every
    connection, matching none of them, and swapping the two I-colour
    classes; the projection is a 2:1 covering onto a valid base, and the
    base has no I-coloring.  Which base comes out depends on which such
    involution is found first, so the base is not compared with anything.
    """
    u = np.asarray(deck)
    n = len(cover[0])
    ids = np.arange(n)
    if u.shape != (n,) or u.min() < 0 or u.max() >= n:
        return False
    if (u[u] != ids).any() or (u == ids).any():
        return False
    if any((u[c] != c[u]).any() or (u == c).any() for c in cover):
        return False
    colors = parity_coloring(cover, color_set)
    if colors is None or not (colors[u] == colors ^ 1).all():
        return False
    if not is_flag_system(len(base) - 1, base):
        return False
    if not is_covering(cover, base, phi, 2):
        return False
    return parity_coloring(base, color_set) is None


# kind -> (cell dimension, the two letters acting inside a cell, crossing
# letter, whether arrows must be opposite across the crossing)
PSO_KINDS = {
    "full": (2, (0, 1), 2, 1),
    "face": (2, (0, 1), 2, 0),
    "vertex": (0, (1, 2), 0, 0),
    "edge": (1, (0, 2), 1, 0),
}


def is_arrow_witness(conns, kind: str, arrows: str) -> bool:
    """Do the printed arrows induce a coloring of the kind's index set?

    Cells are numbered by their smallest flag.  Inside each cell a
    reference bit alternates across the two inner letters, 0 at the
    cell's smallest flag; the flag colour is that bit XOR the cell's
    arrow, and it must flip across the inner letters and across the
    crossing letter exactly when the kind demands opposite arrows.
    """
    dim, inner, crossing, flip = PSO_KINDS[kind]
    n = len(conns[0])
    cell_of = orbit_labels([conns[j] for j in inner])
    mins = np.unique(cell_of)
    if len(arrows) != mins.size or set(arrows) - set("+-"):
        return False
    index = np.searchsorted(mins, cell_of)
    bits = np.array([0 if a == "+" else 1 for a in arrows], dtype=np.uint8)
    ref = np.full(n, -1, dtype=np.int8)
    rows = [conns[j].tolist() for j in inner]
    for start in mins.tolist():
        ref[start] = 0
        f, side = start, 0
        while True:
            g = rows[side][f]
            if ref[g] >= 0:
                break
            ref[g] = ref[f] ^ 1
            f, side = g, side ^ 1
    colors = ref.astype(np.uint8) ^ bits[index]
    color_set = set(inner) | ({crossing} if flip else set())
    return is_coloring(conns, color_set, colors)
