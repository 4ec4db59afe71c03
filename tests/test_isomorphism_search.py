"""The lazy isomorphism search behind is_isomorphic, deck_transformations
and recognize_i_double, against the per-flag reference in
isomorphism_reference.

Maps: the default corpus (cube-maniplex 4 is its rank-3 member), every
I-double of it, a seeded relabeling of each, and a relabeled
grid 2 600 0, whose BFS from flag 0 is a thousand levels deep.  The
two builders of the transport plan, Python lists below the cutover and
numpy levels above it, must give the same arrays.
"""

import copy
import pickle
from collections import deque

import numpy as np
import pytest

import isomorphism_reference as ref
import mapforge.flagsys as flagsys
from cases import CORPUS as _CORPUS, DOUBLES, color_sets, read_every_kind, relabeled, same_result
from mapforge import (
    ColorSet,
    cells,
    cube_maniplex,
    deck_transformations,
    find_coloring,
    grid_map,
    i_double,
    is_isomorphic,
    quotient,
    recognize_i_double,
    surface_signature,
    tri_torus,
    validate,
)
from mapforge.cli import main
from mapforge.corpus import invoke_generator, random_surgery
from mapforge.errors import ValidationError
from mapforge.fileio import write_flag_file
from mapforge.flagsys import _transport_plan

CORPUS = [system for _, system in _CORPUS]


def _relabeled(system, seed):
    return relabeled(system, np.random.default_rng(seed).permutation(system.flag_count))


def _reversed(system):
    return relabeled(system, np.arange(system.flag_count)[::-1])


def _covers():
    """Every connected I-double of the corpus, with its color set."""
    bases = [(base, cs) for base in CORPUS for cs in color_sets(base.rank)]
    for (base, color_set), (_, double) in zip(bases, DOUBLES):
        # a split double is its base
        if double.flag_count > base.flag_count:
            yield double, color_set


COVERS = [cover for cover, _ in _covers()]


def _reference_recognition(system, color_set):
    """The first deck, in the reference deck order, that swaps the color
    classes, is an involution, avoids every connection and that quotient
    accepts; returned with its index in that order."""
    coloring = find_coloring(system, color_set)
    if coloring is None:
        return None
    a = coloring.assignment
    ids = np.arange(system.flag_count)
    for index, u in enumerate(ref.deck_transformations(system)):
        if (u[u] != ids).any() or (a[u] == a).any():
            continue
        if any((u == conn).any() for conn in system.connections):
            continue
        try:
            base, phi = quotient(system, u)
        except ValidationError:
            continue
        return index, u, base, phi
    return None


def _recognition_cases():
    """(system, color set, is a known cover): every corpus I-double and a
    relabeling of it, then every corpus map with every color set."""
    for k, (cover, color_set) in enumerate(_covers()):
        yield cover, color_set, True
        yield _relabeled(cover, k), color_set, True
    for system in CORPUS:
        for color_set in color_sets(system.rank):
            yield system, color_set, False


def test_recognize_takes_the_first_qualifying_deck():
    hit_indices = []
    for system, color_set, is_cover in _recognition_cases():
        want = _reference_recognition(system, color_set)
        got = recognize_i_double(system, color_set)
        assert (got is None) == (want is None)
        assert got is not None or not is_cover
        if got is not None:
            index, u, base, phi = want
            hit_indices.append(index)
            assert np.array_equal(got[0], u)
            assert got[1] == base
            assert np.array_equal(got[2], phi)
    # the relabelings move the hit away from the sheet swap at index 1
    assert max(hit_indices) > 1
    # so recognition needs no color-swap filter: a deck sending flag 0 to
    # the other color swaps the two I-colorings
    for cover, color_set in _covers():
        a = find_coloring(cover, color_set).assignment
        for u in flagsys._isomorphisms(cover, cover, images=np.flatnonzero(a != a[0])):
            assert (a[u] != a).all()


def _same(got, want):
    return (got is None) == (want is None) and (got is None or np.array_equal(got, want))


def _same_list(got, want):
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def test_deck_transformations_match_the_reference():
    systems = CORPUS + COVERS
    for k, system in enumerate(systems):
        for case in (system, _relabeled(system, k)):
            assert _same_list(deck_transformations(case), ref.deck_transformations(case))


def test_is_isomorphic_matches_the_reference():
    deep = grid_map(2, 600, 0)
    pairs = [(deep, _relabeled(deep, 5)), (_relabeled(deep, 6), deep)]
    for k, system in enumerate(CORPUS + COVERS):
        pairs.append((system, _relabeled(system, k)))
    pairs += [(s, t) for s in CORPUS for t in CORPUS
              if s.rank == t.rank and s.flag_count == t.flag_count]
    hits = 0
    for source, target in pairs:
        got = is_isomorphic(source, target)
        assert _same(got, ref.is_isomorphic(source, target))
        hits += got is not None
    # the corpus holds equal-sized maps that are not isomorphic
    assert 0 < hits < len(pairs)


SMALL = [s for s in CORPUS if s.flag_count <= 96]
# No deck but the identity; with the reversed numbering the only image of
# flag 0 is the last flag.  The I-doubles have twice the flags.
ASYMMETRIC = next(s for s in CORPUS if s.flag_count > 256 and len(deck_transformations(s)) == 1)
WIDE = [ASYMMETRIC] + [i_double(ASYMMETRIC, ColorSet(2, mask)).system for mask in (1, 7)]


@pytest.mark.parametrize("chunk", [1, 500, flagsys._CHUNK])
def test_search_block_size_does_not_change_results(monkeypatch, chunk):
    """Single-column blocks, capped blocks, and blocks that double from
    _FIRST_BLOCK columns across several boundaries before a hit and
    inside a full deck enumeration, all give the reference results."""
    systems = SMALL + [_relabeled(s, 7) for s in SMALL] + WIDE
    pairs = [(s, t) for s in SMALL for t in SMALL] + [(s, _reversed(s)) for s in WIDE]
    want_decks = [ref.deck_transformations(s) for s in systems]
    want_isos = [ref.is_isomorphic(s, t) for s, t in pairs]
    # a 592-flag hit passes the boundaries at 1, 65, 193 and 449 columns
    assert max(int(w[0]) for w in want_isos if w is not None) > 448
    monkeypatch.setattr(flagsys, "_CHUNK", chunk)
    for system, want in zip(systems, want_decks):
        assert _same_list(deck_transformations(system), want)
    for (s, t), want in zip(pairs, want_isos):
        assert _same(is_isomorphic(s, t), want)


def test_candidate_images_restrict_the_search():
    system = invoke_generator("cube")
    decks = deck_transformations(system)
    images = np.arange(1, system.flag_count, 3)
    got = list(flagsys._isomorphisms(system, system, images=images))
    want = [d for d in decks if d[0] % 3 == 1]
    assert len(want) == 16 and _same_list(got, want)


def _bfs_distances(system):
    dist = np.full(system.flag_count, -1)
    dist[0] = 0
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for conn in system.connections:
            g = int(conn[f])
            if dist[g] < 0:
                dist[g] = dist[f] + 1
                queue.append(g)
    return dist


def test_transport_plan_is_level_synchronous():
    # one map above the lists-or-arrays cutover and one below it
    for system in (tri_torus(30, 30), tri_torus(3, 4)):
        _check_level_synchronous(system)


def _check_level_synchronous(system):
    n = system.flag_count
    row, levels, checks = _transport_plan(system)
    dist = _bfs_distances(system)
    # every flag has one table row, flag 0 the first
    assert row[0] == 0 and np.array_equal(np.sort(row), np.arange(n))
    order = np.argsort(row)
    # one group per BFS level, not one per level and letter
    assert len(levels) == dist.max()
    conns = np.concatenate(system.connections)
    tree, stop = set(), 1
    for depth, (rows, parents, offsets) in enumerate(levels, start=1):
        assert rows.start == stop  # each flag is reached once, level after level
        stop = rows.stop
        flags = order[rows]
        assert (dist[flags] == depth).all()
        assert (parents < rows.start).all()  # parents come before their children
        assert np.array_equal(flags, conns[offsets[:, 0] + order[parents]])
        letters = (offsets[:, 0] // n).tolist()
        tree.update((j, min(f, p), max(f, p))
                    for j, f, p in zip(letters, flags.tolist(), order[parents].tolist()))
    assert stop == n and len(tree) == n - 1
    listed = [(j, int(order[r]), int(order[e])) for rows, ends, j in checks
              for r, e in zip(rows.tolist(), ends.tolist())]
    assert all(f < g and system.connections[j][f] == g for j, f, g in listed)
    # every edge outside the tree, each exactly once
    every_edge = {(j, f, int(conn[f])) for j, conn in enumerate(system.connections)
                  for f in range(n) if f < conn[f]}
    assert len(listed) == len(set(listed))
    assert set(listed) == every_edge - tree


def _degrees(system):
    return [sorted(c.degree for c in cells(system, i)) for i in range(system.rank + 1)]


@pytest.mark.parametrize("first, second, isomorphic", [
    ("tri-torus 3 4", "tri-torus 2 6", False),
    ("tri-torus 2 6", "tri-torus 1 12", False),
    ("grid 4 6 0", "grid 6 4 0", False),
    ("grid 4 6 2", "grid 6 4 2", False),
    ("tri-torus 3 4", "tri-torus 4 3", True),
])
def test_maps_sharing_every_invariant(tmp_path, capsys, first, second, isomorphic):
    """Same flag count, surface and cell degrees; only the search tells
    the pairs apart."""
    a, b = invoke_generator(first), invoke_generator(second)
    assert a.flag_count == b.flag_count
    assert surface_signature(a) == surface_signature(b)
    assert _degrees(a) == _degrees(b)
    for s, t in ((a, b), (b, a)):
        got = is_isomorphic(s, t)
        assert (got is not None) == isomorphic
        assert _same(got, ref.is_isomorphic(s, t))
    paths = [str(tmp_path / "a.flags"), str(tmp_path / "b.flags")]
    write_flag_file(a, paths[0])
    write_flag_file(b, paths[1])
    for argv in (paths, paths[::-1]):
        code = main(["iso", *argv])
        out = capsys.readouterr().out
        assert code == (0 if isomorphic else 1)
        assert out.splitlines()[0] == f"isomorphic={str(isomorphic).lower()}"


class _TableSpy:
    """numpy as flagsys sees it, recording the shape of every np.empty."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        self.shapes.append(shape)
        return np.empty(shape, dtype=dtype)


def _tables(monkeypatch, search):
    """The shapes of the transport tables `search()` allocates."""
    spy = _TableSpy()
    monkeypatch.setattr(flagsys, "np", spy)
    search()
    monkeypatch.undo()
    return spy.shapes


def test_first_candidate_is_probed_alone(monkeypatch):
    """A hit at the first candidate transports one column and nothing else."""
    torus = tri_torus(30, 30)
    other = _relabeled(torus, 3)
    n = torus.flag_count
    assert _tables(monkeypatch, lambda: is_isomorphic(torus, other)) == [(n, 1)]

    cube = invoke_generator("cube")
    other = _relabeled(cube, 4)
    assert _tables(monkeypatch, lambda: is_isomorphic(cube, other)) == [(48, 1)]
    # the probe, then _FIRST_BLOCK columns capped by the 47 images left
    assert _tables(monkeypatch, lambda: deck_transformations(cube)) == [(48, 1), (48, 47)]

    cover = i_double(tri_torus(14, 14), ColorSet.of([0], 2)).system
    shapes = _tables(monkeypatch, lambda: recognize_i_double(cover, ColorSet.of([0], 2)))
    assert shapes == [(cover.flag_count, 1)]


def test_transport_plan_is_built_once_per_system(monkeypatch):
    built = []
    for name in ("_plan_by_lists", "_plan_by_arrays"):
        build = getattr(flagsys, name)
        monkeypatch.setattr(flagsys, name, lambda s, build=build: built.append(s) or build(s))
    cover = i_double(tri_torus(3, 4), ColorSet.of([0], 2)).system
    other = _relabeled(cover, 8)
    assert recognize_i_double(cover, ColorSet.of([0], 2)) is not None
    assert len(deck_transformations(cover)) > 1
    assert is_isomorphic(cover, other) is not None
    assert is_isomorphic(other, cover) is not None
    assert deck_transformations(other)
    assert [id(s) for s in built] == [id(cover), id(other)]


def _plan_lists(plan):
    row, levels, checks = plan
    return (row.tolist(),
            [(rows.start, rows.stop, parents.tolist(), offsets.tolist())
             for rows, parents, offsets in levels],
            [(j, rows.tolist(), ends.tolist()) for rows, ends, j in checks])


def _plan_arrays(plan):
    row, levels, checks = plan
    return ([row] + [a for _, parents, offsets in levels for a in (parents, offsets)]
            + [a for rows, ends, _ in checks for a in (rows, ends)])


def test_cached_plan_is_read_only_and_not_pickled():
    """The kept plan equals a fresh build and is read-only.  No kept result
    survives pickling or copying: a copy starts with an empty store and
    reads every kind back equal."""
    large = tri_torus(30, 30)  # planned by arrays; the corpus maps by lists
    for system in CORPUS + [large]:
        assert _transport_plan(system) is _transport_plan(system)
        assert _plan_lists(_transport_plan(system)) == _plan_lists(_transport_plan.__wrapped__(system))
        assert all(not a.flags.writeable for a in _plan_arrays(_transport_plan(system)))
    for system in (CORPUS[1], large, cube_maniplex(4)):
        kept = read_every_kind(system)
        for twin in (pickle.loads(pickle.dumps(system)), copy.copy(system), copy.deepcopy(system)):
            assert twin == system and twin is not system
            assert vars(twin).keys() == {"rank", "connections"}
            assert all(flagsys._kept(system, *key) is value for key, value in kept)
            assert all(flagsys._kept(twin, *key) is None for key, _ in kept)
            for (key, want), (_, got) in zip(kept, read_every_kind(twin)):
                assert same_result(got, want), key


def _rank1_polygon(p):
    """The p-gon as a rank-1 system: 2p flags around one ring."""
    ring = np.arange(2 * p)
    return validate(1, 2 * p, [ring ^ 1, (ring + np.where(ring % 2, 1, -1)) % (2 * p)])


def _both_plans(monkeypatch, system):
    """_transport_plan of `system` by arrays and then by lists."""
    plans = []
    for cutover in (0, 1 << 62):
        monkeypatch.setattr(flagsys, "_LISTED_PLAN", cutover)
        plans.append(_transport_plan(_fresh(system)))
    monkeypatch.undo()
    return plans


def _plan_sides():
    """Two maps of rank 2 just below and just above the cutover."""
    return invoke_generator("tri-torus 5 6"), invoke_generator("tri-torus 6 6")


def test_both_plan_builders_give_the_same_arrays(monkeypatch):
    below, above = _plan_sides()
    extra = [invoke_generator(name) for name in ("crosscap 40", "cube-maniplex 4", "cube-maniplex 5")]
    systems = CORPUS + COVERS + extra + [_rank1_polygon(7), below, above]
    assert len(CORPUS + COVERS) == 345
    for system in systems:
        by_arrays, by_lists = _both_plans(monkeypatch, system)
        assert _plan_lists(by_lists) == _plan_lists(by_arrays)
        for plan in (by_arrays, by_lists):
            arrays = _plan_arrays(plan)
            assert all(a.dtype == np.intp and not a.flags.writeable for a in arrays)
            assert all(offsets.shape == (rows.stop - rows.start, 1) for rows, _, offsets in plan[1])


def test_plan_builder_follows_the_cutover(monkeypatch):
    below, above = _plan_sides()
    assert below.flag_count * 3 < flagsys._LISTED_PLAN <= above.flag_count * 3
    used = []
    for name in ("_plan_by_lists", "_plan_by_arrays"):
        build = getattr(flagsys, name)
        monkeypatch.setattr(flagsys, name, lambda s, build=build, name=name: used.append(name) or build(s))
    _transport_plan(below)
    _transport_plan(above)
    assert used == ["_plan_by_lists", "_plan_by_arrays"]


def test_returned_isomorphisms_are_read_only_copies():
    cube = CORPUS[1]
    decks = deck_transformations(cube)
    assert all(d.base is None and not d.flags.writeable for d in decks)


def _surgeried(base, seed, depth=3):
    rng = np.random.default_rng(seed)
    for _ in range(depth):
        base = random_surgery(base, rng)
    return base


def _fresh(system):
    """A copy with an empty store: no plan and no flag classes yet."""
    return flagsys._assemble(system.rank, system.connections)


def _late_pairs():
    """Surgeried maps, and doubles of them, against relabelings and against
    other surgeries of the same base with the same flag count."""
    surgeried = [s for name, s in _CORPUS if "+" in name]
    pairs = [(s, _relabeled(s, 40 + k)) for k, s in enumerate(surgeried)]
    # the probe and the first block settle every map of at most 65 flags
    pairs += [(d, _relabeled(d, 80 + k)) for k, (name, d) in enumerate(DOUBLES)
              if "+" in name and d.flag_count > 1 + flagsys._FIRST_BLOCK][:12]
    for k, base in enumerate([invoke_generator("tri-torus 4 4"), invoke_generator("grid 4 5 1")]):
        variants = [_surgeried(base, seed) for seed in range(6)]
        pairs += [(s, _relabeled(t, k)) for s in variants[:3] for t in variants
                  if s.flag_count == t.flag_count]
    return pairs


LATE = _late_pairs()
LATE_WANT = [ref.is_isomorphic(s, t) for s, t in LATE]


def test_searches_past_the_first_block_match_the_reference(monkeypatch):
    """Hits past the probe and the first block, and pairs of equal size
    that are not isomorphic, both go through the flag classes."""
    classified = []
    honest = flagsys._flag_classes
    monkeypatch.setattr(flagsys, "_flag_classes", lambda s: classified.append(s) or honest(s))
    for (s, t), want in zip(LATE, LATE_WANT):
        assert _same(is_isomorphic(_fresh(s), _fresh(t)), want)
    late = [w for w in LATE_WANT if w is not None and w[0] > flagsys._FIRST_BLOCK]
    assert len(late) >= 5 and sum(w is None for w in LATE_WANT) >= 5
    assert len(classified) >= 2 * len(late)


_HONEST_CLASSES = flagsys._flag_classes


def _numbering_mutant(system):
    """_flag_classes with every class split by the parity of the flag
    number: not an invariant, since a relabeling moves it."""
    keys, _, classes = _HONEST_CLASSES(system)
    table = np.column_stack([keys[classes], np.arange(system.flag_count) % 2])
    keys, classes, counts = np.unique(table, axis=0, return_inverse=True, return_counts=True)
    return keys, counts, classes.reshape(-1)


def test_an_invariant_that_reads_the_numbering_fails_the_reference(monkeypatch):
    """The comparison above catches a class key that is not an invariant."""
    monkeypatch.setattr(flagsys, "_flag_classes", _numbering_mutant)
    wrong = sum(not _same(is_isomorphic(_fresh(s), _fresh(t)), want)
                for (s, t), want in zip(LATE, LATE_WANT))
    assert wrong > 0


def test_different_class_histograms_end_the_search(monkeypatch):
    """After the probe and the first block, a pair whose class histograms
    differ is refused without another transport table."""
    a, b = tri_torus(30, 30), tri_torus(20, 45)
    n = a.flag_count
    assert not np.array_equal(flagsys._flag_classes(a)[1], flagsys._flag_classes(b)[1])
    shapes = _tables(monkeypatch, lambda: is_isomorphic(_fresh(a), _fresh(b)))
    assert shapes == [(n, 1), (n, flagsys._FIRST_BLOCK)]


def test_a_late_hit_transports_only_the_rarest_class(monkeypatch):
    system = _surgeried(tri_torus(12, 12), 5)
    n = system.flag_count
    seed = next(seed for seed in range(20)
                if is_isomorphic(system, _relabeled(system, seed))[0] > 4 * flagsys._FIRST_BLOCK)
    other = _relabeled(system, seed)
    rarest = flagsys._flag_classes(system)[1].min()
    shapes = _tables(monkeypatch, lambda: is_isomorphic(_fresh(system), _fresh(other)))
    assert shapes[:2] == [(n, 1), (n, flagsys._FIRST_BLOCK)]
    assert sum(cols for _, cols in shapes[2:]) <= rarest < 8
