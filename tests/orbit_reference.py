"""Pure-Python union-find and BFS reference for the orbit kernel.

These are the per-flag loops that flagsys, coloring and doubles used
before they moved onto one numpy kernel.  The bodies are kept as they
were so that the equivalence tests compare the kernel against an
independent implementation, and direct_pso and find_coloring keep being
checked by a second route.  orbits is the numpy kernel as it was before
it hooked a first connection in one step; flagsys._orbits must return
bit-identical (root, pot, rounds).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from mapforge import ColorSet, ColoringGroup, validate
from mapforge.coloring import PSO_KINDS
from mapforge.doubles import DoubleResult


class DisjointSets:
    """Union-find with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


class ParityDisjointSets:
    """Union-find tracking a Z2 offset of every element relative to its root.

    union(a, b, parity) asserts offset(a) ^ offset(b) == parity and reports
    False when that contradicts the relations recorded so far.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.offset = [0] * n
        self.size = [1] * n

    def relation(self, x: int) -> tuple[int, int]:
        """Return (root, parity of x relative to root), compressing the path."""
        parent, offset = self.parent, self.offset
        path = []
        root = x
        while parent[root] != root:
            path.append(root)
            root = parent[root]
        acc = 0
        for node in reversed(path):
            acc ^= offset[node]
            parent[node] = root
            offset[node] = acc
        return root, acc

    def union(self, a: int, b: int, parity: int) -> bool:
        ra, pa = self.relation(a)
        rb, pb = self.relation(b)
        if ra == rb:
            return (pa ^ pb) == parity
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
            pa, pb = pb, pa
        self.parent[rb] = ra
        self.offset[rb] = pa ^ pb ^ parity
        self.size[ra] += self.size[rb]
        return True


def orbits(n: int, edges, flips=None):
    """Orbits of nodes 0..n-1 under undirected edges, with XOR potentials.

    `edges` lists edge groups as (src, dst) index arrays; src None stands
    for every node in order, so a connection array is a group by itself.
    Each group must list every edge in both directions, as an involution
    does.  `flips`, when given, holds one entry per group: an int bitmask
    or an array with one mask per edge, equal on both directions.  The
    potentials then satisfy pot[src] ^ pot[dst] == flip along a spanning
    forest of the edges; on every other edge the XOR of both potentials
    and the flip is a cycle mask (see _cycle_basis), all of them zero
    exactly when the relations are consistent.

    Each sweep takes the groups in turn.  Every root adjacent to a
    smaller root hooks onto the smallest such root, taking its potential
    from one witness edge, then pointer jumping runs until each node
    points at its root, XOR-ing potentials along every jump.  Sweeps
    repeat until one hooks nothing.  Potentials use the narrowest
    unsigned dtype that holds every flip, up to 64 bits.

    Returns (root, pot, rounds): root[x] is the smallest node of x's
    orbit, pot is None without flips, and rounds counts the sweeps that
    hooked at least one root.
    """
    parent = np.arange(n, dtype=np.intp)
    pot = None
    if flips is not None:
        top = max((w if isinstance(w, int) else int(w.max(initial=0)) for w in flips), default=0)
        pot = np.zeros(n, dtype=np.min_scalar_type(top))
    rounds = 0
    while True:
        hooked = False
        for k, (src, dst) in enumerate(edges):
            a = parent if src is None else parent[src]
            b = parent[dst]
            # Both directions are listed, so hooking from the larger end suffices.
            sel = (a > b).nonzero()[0]
            if not sel.size:
                continue
            hooked = True
            hi, lo = a[sel], b[sel]
            del a, b  # keep at most two full-length temporaries alive
            np.minimum.at(parent, hi, lo)
            if pot is not None:
                w = flips[k]
                d = pot[sel if src is None else src[sel]] ^ pot[dst[sel]]
                d ^= w[sel] if np.ndim(w) else w
                win = parent[hi] == lo
                pot[hi[win]] = d[win]
            while True:
                grand = parent[parent]
                if (grand == parent).all():
                    break
                if pot is not None:
                    pot ^= pot[parent]
                parent = grand
        if not hooked:
            return parent, pot, rounds
        rounds += 1


def component_count(flag_count: int, conns) -> int:
    """Number of flag orbits; validate raises Disconnected with it when above 1."""
    uf = DisjointSets(flag_count)
    for arr in conns:
        for f in range(flag_count):
            uf.union(f, int(arr[f]))
    return uf.count


def cell_labels(system, omit: int) -> tuple[np.ndarray, int]:
    n = system.flag_count
    uf = DisjointSets(n)
    for i, conn in enumerate(system.connections):
        if i == omit:
            continue
        for f in range(n):
            uf.union(f, int(conn[f]))
    labels = np.empty(n, dtype=np.intp)
    order: dict[int, int] = {}
    for f in range(n):
        root = uf.find(f)
        if root not in order:
            order[root] = len(order)
        labels[f] = order[root]
    return labels, len(order)


def find_coloring(system, cs: ColorSet) -> np.ndarray | None:
    """Canonical assignment with flag 0 colored 0, or None."""
    n = system.flag_count
    colors = np.full(n, -1, dtype=np.int8)
    colors[0] = 0
    flips = [1 if j in cs else 0 for j in range(system.rank + 1)]
    conns = system.connections
    queue = deque([0])
    while queue:
        f = queue.popleft()
        cf = int(colors[f])
        for j in range(system.rank + 1):
            g = int(conns[j][f])
            want = cf ^ flips[j]
            have = colors[g]
            if have < 0:
                colors[g] = want
                queue.append(g)
            elif have != want:
                return None
    return colors.astype(np.uint8)


def coloring_group(system) -> ColoringGroup:
    members = []
    for mask in range(1 << (system.rank + 1)):
        if find_coloring(system, ColorSet(system.rank, mask)) is not None:
            members.append(mask)
    return ColoringGroup(rank=system.rank, masks=frozenset(members))


def coloring_group_excluding_cell(system, face) -> ColoringGroup:
    removed = np.zeros(system.flag_count, dtype=bool)
    removed[list(face.flags)] = True
    conns = system.connections
    members = []
    for mask in range(1 << (system.rank + 1)):
        cs = ColorSet(system.rank, mask)
        flips = [1 if j in cs else 0 for j in range(system.rank + 1)]
        colors = np.full(system.flag_count, -1, dtype=np.int8)
        ok = True
        for start in range(system.flag_count):
            if removed[start] or colors[start] >= 0:
                continue
            colors[start] = 0
            queue = deque([start])
            while ok and queue:
                f = queue.popleft()
                cf = int(colors[f])
                for j in range(system.rank + 1):
                    g = int(conns[j][f])
                    if removed[g]:
                        continue
                    want = cf ^ flips[j]
                    have = colors[g]
                    if have < 0:
                        colors[g] = want
                        queue.append(g)
                    elif have != want:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            members.append(mask)
    return ColoringGroup(rank=system.rank, masks=frozenset(members))


def alternating_reference(system, inner) -> np.ndarray:
    n = system.flag_count
    ref = np.full(n, -1, dtype=np.int8)
    conns = system.connections
    for start in range(n):
        if ref[start] >= 0:
            continue
        ref[start] = 0
        queue = deque([start])
        while queue:
            f = queue.popleft()
            rf = int(ref[f])
            for j in inner:
                g = int(conns[j][f])
                if ref[g] < 0:
                    ref[g] = rf ^ 1
                    queue.append(g)
                else:
                    assert ref[g] == rf ^ 1, "cell walk failed to alternate"
    return ref


def direct_pso(system, kind: str) -> np.ndarray | None:
    """Direction bits per cell, anchored at the smallest cell, or None."""
    dim, inner, crossing, flip = PSO_KINDS[kind]
    labels, count = cell_labels(system, omit=dim)
    n = system.flag_count
    ref = alternating_reference(system, inner)
    conns = system.connections

    uf = ParityDisjointSets(count)
    cross = conns[crossing]
    for f in range(n):
        g = int(cross[f])
        relation = flip ^ int(ref[f]) ^ int(ref[g])
        if not uf.union(int(labels[f]), int(labels[g]), relation):
            return None

    anchor_parity: dict[int, int] = {}
    bits = np.zeros(count, dtype=np.uint8)
    for c in range(count):
        root, parity = uf.relation(c)
        if root not in anchor_parity:
            anchor_parity[root] = parity
        bits[c] = parity ^ anchor_parity[root]
    return bits


def cell_route_group(system, dim: int) -> ColoringGroup:
    """T(M) decided on the dimension-`dim` cells, one color set at a time.

    For each color set I, a BFS inside every cell colors its flags across
    the letters other than dim; a cell that cannot be colored rules I
    out.  Each cell then carries one unknown bit, and every crossing of
    r_dim asks the bits of its two cells to differ by [dim in I] plus the
    colors of its two flags.
    """
    n = system.flag_count
    conns = [conn.tolist() for conn in system.connections]
    inner = [conn for j, conn in enumerate(conns) if j != dim]
    cross = conns[dim]
    members = []
    for mask in range(1 << (system.rank + 1)):
        flips = [mask >> j & 1 for j in range(system.rank + 1) if j != dim]
        cell = [-1] * n
        color = [0] * n
        count = 0
        ok = True
        for start in range(n):
            if cell[start] >= 0:
                continue
            cell[start] = count
            queue = deque([start])
            while ok and queue:
                f = queue.popleft()
                for conn, flip in zip(inner, flips):
                    g = conn[f]
                    if cell[g] < 0:
                        cell[g] = count
                        color[g] = color[f] ^ flip
                        queue.append(g)
                    elif color[g] != color[f] ^ flip:
                        ok = False
                        break
            count += 1
        if not ok:
            continue
        uf = ParityDisjointSets(count)
        crossing = mask >> dim & 1
        if all(uf.union(cell[f], cell[cross[f]], crossing ^ color[f] ^ color[cross[f]])
               for f in range(n)):
            members.append(mask)
    return ColoringGroup(rank=system.rank, masks=frozenset(members))


def i_face_bipartite(system, i: int) -> bool:
    labels, count = cell_labels(system, omit=i)
    adj: list[set[int]] = [set() for _ in range(count)]
    conn = system.connections[i]
    for f in range(system.flag_count):
        a, b = int(labels[f]), int(labels[conn[f]])
        if a == b:
            return False
        adj[a].add(b)
        adj[b].add(a)
    side = [-1] * count
    for start in range(count):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            c = queue.popleft()
            for d in adj[c]:
                if side[d] < 0:
                    side[d] = side[c] ^ 1
                    queue.append(d)
                elif side[d] == side[c]:
                    return False
    return True


def i_double(system, cs: ColorSet) -> DoubleResult:
    n = system.flag_count
    ids = np.arange(n, dtype=np.intp)
    lifted = []
    for j, conn in enumerate(system.connections):
        s = np.empty(2 * n, dtype=np.intp)
        if j in cs:
            s[2 * ids] = 2 * conn + 1
            s[2 * ids + 1] = 2 * conn
        else:
            s[2 * ids] = 2 * conn
            s[2 * ids + 1] = 2 * conn + 1
        lifted.append(s)

    uf = DisjointSets(2 * n)
    for s in lifted:
        for f in range(2 * n):
            uf.union(f, int(s[f]))
    if uf.count == 1:
        doubled = validate(system.rank, 2 * n, lifted)
        return DoubleResult(
            split=False, system=doubled, projection=np.arange(2 * n, dtype=np.intp) // 2
        )

    root = uf.find(0)
    members = np.array(
        [f for f in range(2 * n) if uf.find(f) == root], dtype=np.intp
    )
    lab = np.full(2 * n, -1, dtype=np.intp)
    lab[members] = np.arange(members.size, dtype=np.intp)
    part = validate(system.rank, members.size, [lab[s[members]] for s in lifted])
    return DoubleResult(split=True, system=part, projection=members // 2)
