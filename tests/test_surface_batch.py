"""The batched cache fill of flagsys._fill_caches and the checks that use it.

The fill must leave every system's cell labels at dimensions 0 and rank
and its parity potentials byte for byte as the system's own passes
would, dtype included, so that the cycle basis reduced from them is the
same too; it must keep every cache already present, leave the other
dimensions and the basis lazy, and stop its passes at flagsys._FILL
nodes.  surgery-chi and make-property build all the outputs of a small
map before checking them, so they are compared here with the
one-output-at-a-time checks they replaced, failure by failure.
"""

import itertools

import numpy as np
import pytest

import mapforge.coloring as coloring
import mapforge.corpus as corpus
import mapforge.flagsys as flagsys
from cases import CORPUS, DOUBLES, color_sets
from mapforge import (
    MAKE_GOALS,
    PROPERTY_CHECKS,
    ColorSet,
    FlagSystem,
    SurfaceSignature,
    cell_labels,
    cube_maniplex,
    double_edge,
    edge_of,
    euler_characteristic,
    find_coloring,
    i_double,
    make_property,
    polygon_gluing,
    subdivide_edge,
    surface_signature,
    tri_torus,
    triple_edge,
    validate,
)
from mapforge.errors import LoopEdge

RANK2 = [(name, system) for name, system in CORPUS if system.rank == 2]


def fresh(system):
    """The same connections in a system with an empty store."""
    return FlagSystem(rank=system.rank, connections=system.connections)


def kept_dims(system):
    """The dimensions whose cell labels the store keeps."""
    return {d for d in range(system.rank + 1) if flagsys._kept(system, flagsys._labels, d) is not None}


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_filled_like_own_passes(system):
    own = fresh(system)
    for d in (0, system.rank):
        labels, count = flagsys._kept(system, flagsys._labels, d)
        want, want_count = cell_labels(own, d)
        assert same_array(labels, want) and count == want_count, d
        assert not labels.flags.writeable
    pot, want_pot = flagsys._kept(system, flagsys._pot), flagsys._pot(own)
    assert same_array(pot, want_pot)
    assert not pot.flags.writeable and not want_pot.flags.writeable
    assert flagsys._parity(system)[1] == flagsys._parity(own)[1]


def grown_maps(system):
    """make_property for every goal, then every surgery at flag 0's edge."""
    out = [make_property(system, goal) for goal in MAKE_GOALS]
    edge = edge_of(system, 0)
    for op in (subdivide_edge, double_edge, triple_edge):
        try:
            out.append(op(system, edge))
        except LoopEdge:
            pass
    return out


@pytest.fixture
def kernel_calls(monkeypatch):
    """Node counts of every _orbits call, wherever a module binds the kernel."""
    calls, real = [], flagsys._orbits

    def counted(n, edges, flips=None):
        calls.append(n)
        return real(n, edges, flips)

    for module in (flagsys, coloring, corpus):
        monkeypatch.setattr(module, "_orbits", counted)
    return calls


@pytest.mark.parametrize("name,system", RANK2, ids=[name for name, _ in RANK2])
def test_fill_equals_each_systems_own_passes(name, system):
    base = fresh(system)
    grown = grown_maps(base)
    # make_property returns its input when the goal already holds
    batch = [base] + grown + [base]
    flagsys._fill_caches(batch)
    for member in batch:
        assert_filled_like_own_passes(member)


def test_one_fill_over_the_whole_corpus_and_rank_3():
    batch = [m for _, system in RANK2 for m in grown_maps(fresh(system))]
    assert len({m.flag_count for m in batch}) > 20
    flagsys._fill_caches(batch)
    for member in batch:
        assert_filled_like_own_passes(member)
    rank3 = [fresh(system) for _, system in DOUBLES if system.rank == 3]
    assert len(rank3) == 16
    flagsys._fill_caches(rank3)
    for member in rank3:
        assert_filled_like_own_passes(member)


def test_one_fill_over_rank_4_doubles_leaves_edges_and_bases_lazy():
    base = cube_maniplex(5)
    doubles = [fresh(i_double(base, cs).system) for cs in color_sets(4)[1::9]]
    assert {d.rank for d in doubles} == {4} and len({d.flag_count for d in doubles}) == 2
    flagsys._fill_caches([fresh(base)] + doubles)
    for member in doubles:
        assert flagsys._kept(member, flagsys._parity) is None
        assert_filled_like_own_passes(member)
        assert kept_dims(member) == {0, 4}
    # make_property returns its input, with the caches its search made, when the goal holds
    edges = [m for base in map(fresh, dict(RANK2[:8]).values()) for m in grown_maps(base)
             if m is not base]
    flagsys._fill_caches(edges)
    for member in edges:
        assert 1 not in kept_dims(member)
        labels, count = cell_labels(member, 1)
        want, want_count = cell_labels(fresh(member), 1)
        assert same_array(labels, want) and count == want_count


def z2_cube_system(vectors):
    """The rank len(vectors) - 1 system on the flags 0..7 (bit vectors of
    length 3) where r_i adds vectors[i]: connections that are not
    neighbours must add different vectors."""
    flags = np.arange(8)
    return validate(len(vectors) - 1, 8, [flags ^ v for v in vectors])


def test_a_rank_13_fill_keeps_16_bit_potentials_and_bases():
    """Flips up to 1 << 13 need 16-bit potentials, and each block's slice
    gives its own basis."""
    a = z2_cube_system([1, 1, 2, 2, 4, 4, 3, 3, 5, 5, 6, 6, 7, 7])
    b = z2_cube_system([2, 2, 1, 1, 4, 4, 3, 3, 5, 5, 6, 6, 7, 7])
    batch = [fresh(a), fresh(b), fresh(i_double(a, ColorSet.of((0, 13), 13)).system)]
    assert batch[2].flag_count == 16
    flagsys._fill_caches(batch)
    for member in batch:
        assert_filled_like_own_passes(member)
        assert flagsys._pot(member).dtype == np.uint16
    assert len({tuple(flagsys._parity(m)[1]) for m in batch}) == 3


def test_fill_keeps_caches_already_present(kernel_calls):
    a, b, c = (fresh(system) for _, system in RANK2[:3])
    labels, pot = flagsys._labels, flagsys._pot
    kept = [(a, (labels, 2), cell_labels(a, 2)), (c, (labels, 0), cell_labels(c, 0)),
            (c, (labels, 2), cell_labels(c, 2)), (b, (pot,), pot(b)), (c, (pot,), pot(c))]
    kernel_calls.clear()
    flagsys._fill_caches([a, b, c, a])
    # a misses one of dimensions 0 and 2, b both and c none; a misses its parity pass
    assert kernel_calls == [a.flag_count + 2 * b.flag_count, a.flag_count]
    for system, key, value in kept:
        assert flagsys._kept(system, *key) is value
    for member in (a, b, c):
        assert_filled_like_own_passes(member)
    kernel_calls.clear()
    flagsys._fill_caches([a, b, c])
    flagsys._fill_caches([])
    assert kernel_calls == []


@pytest.mark.parametrize("cap,labels,parity", [
    (100, [96, 96, 96], [96, 48]),
    (144, [144, 144], [144]),
    (48, [48] * 6, [48] * 3),
    (47, [48] * 6, [48] * 3),
])
def test_fill_splits_its_passes_at_the_node_cap(kernel_calls, monkeypatch, cap, labels, parity):
    cube = next(system for name, system in RANK2 if name == "cube")
    batch = [fresh(cube) for _ in range(3)]
    monkeypatch.setattr(flagsys, "_FILL", cap)
    flagsys._fill_caches(batch)
    assert kernel_calls == labels + parity
    for member in batch:
        assert_filled_like_own_passes(member)


def test_a_system_over_the_cap_gets_passes_of_its_own(kernel_calls):
    big, small = tri_torus(27, 27), fresh(RANK2[0][1])
    n, m = big.flag_count, small.flag_count
    assert n > flagsys._FILL > 3 * m
    kernel_calls.clear()
    flagsys._fill_caches([big, small])
    assert kernel_calls == [n, n, 2 * m, n, m]
    for member in (big, small):
        assert_filled_like_own_passes(member)


def test_a_larger_map_grows_its_outputs_as_the_check_reaches_them(monkeypatch):
    def unused(systems):
        raise AssertionError("a larger map was batched")

    built = []

    def make(s, goal):
        built.append(goal)
        return make_property(s, goal)

    def refuse_and_log(system, edge):
        built.append("double")
        raise LoopEdge()

    def triple_and_log(system, edge):
        built.append("triple")
        return triple_edge(system, edge)

    batched = []
    monkeypatch.setattr(corpus, "_fill_caches", batched.append)
    # a fill of 3 * 1200 nodes takes at most half a pass; of 3 * 1452, more
    small, big = tri_torus(10, 10), tri_torus(11, 11)
    assert 6 * small.flag_count <= flagsys._FILL < 6 * big.flag_count
    for check in ("surgery-chi", "make-property"):
        assert PROPERTY_CHECKS[check](small, np.random.default_rng(0)) is None
        assert len(batched) == 1 and batched.pop()[0] is small
    monkeypatch.setattr(corpus, "_fill_caches", unused)
    for check in ("surgery-chi", "make-property"):
        assert PROPERTY_CHECKS[check](big, np.random.default_rng(0)) is None
    monkeypatch.setattr(corpus, "_FILL", 0)
    monkeypatch.setattr(corpus, "make_property", make)
    assert PROPERTY_CHECKS["make-property"](TORUS, None) is None
    assert built == list(MAKE_GOALS)
    built.clear()
    monkeypatch.setattr(corpus, "double_edge", refuse_and_log)
    monkeypatch.setattr(corpus, "triple_edge", triple_and_log)
    assert PROPERTY_CHECKS["surgery-chi"](TORUS, np.random.default_rng(0)) \
        == "double refused a valid edge"
    assert built == ["double"]


@pytest.mark.parametrize("check_id", ["surgery-chi", "make-property"])
def test_a_cell_spends_two_kernel_calls_on_its_grown_maps(kernel_calls, monkeypatch, check_id):
    """Once the map under test holds its own caches, a second run of the
    cell makes one label pass and one parity pass, over its grown maps."""
    check, batches = PROPERTY_CHECKS[check_id], []

    def spy(systems):
        batches.append(list(systems))
        flagsys._fill_caches(systems)

    monkeypatch.setattr(corpus, "_fill_caches", spy)
    counted = 0
    for index, (name, system) in enumerate(RANK2):
        system = fresh(system)
        assert check(system, np.random.default_rng(index)) is None, name
        kernel_calls.clear()
        batches.clear()
        assert check(system, np.random.default_rng(index)) is None, name
        assert len(batches) == 1 and batches[0][0] is system
        grown = {id(m): m for m in batches[0] if m is not system}
        size = sum(m.flag_count for m in grown.values())
        assert kernel_calls == ([2 * size, size] if grown else []), name
        counted += bool(grown)
    assert counted >= len(RANK2) // 2


def test_surface_signature_reads_orientability_off_the_group(monkeypatch):
    systems = [s for _, s in RANK2] + [s for _, s in DOUBLES if s.rank == 2][::7]
    want = [find_coloring(s, ColorSet.full(2)) is not None for s in systems]

    def unused(*args):
        raise AssertionError("surface_signature built a coloring")

    monkeypatch.setattr(coloring, "find_coloring", unused)
    for system, orientable in zip(systems, want):
        chi = euler_characteristic(system)
        genus = (2 - chi) // 2 if orientable else 2 - chi
        assert surface_signature(system) == SurfaceSignature(orientable, genus)


# --- the checks, failure by failure ---------------------------------------


def _old_surgery_chi(system, rng, ops):
    """surgery-chi as it stood when it built and checked one surgery at a time."""
    signature = surface_signature(system)
    edge = edge_of(system, int(rng.integers(system.flag_count)))
    for name, added in (("subdivide", 4), ("double", 4), ("triple", 8)):
        try:
            grown = ops[name](system, edge)
        except LoopEdge:
            if name != "triple":
                return f"{name} refused a valid edge"
            continue
        if grown.flag_count != system.flag_count + added:
            return f"{name} added {grown.flag_count - system.flag_count} flags"
        if surface_signature(grown) != signature:
            return f"{name} changed the surface"
    return None


def _old_make_property(system, make):
    signature = surface_signature(system)
    for goal in MAKE_GOALS:
        grown = make(system, goal)
        if not corpus._goal_holds(grown, goal):
            return f"make_property({goal}) postcondition fails"
        if surface_signature(grown) != signature:
            return f"make_property({goal}) changed the surface"
    return None


def outcome(run):
    try:
        return run()
    except Exception as exc:  # the runner reports a raising check by type and message
        return f"{type(exc).__name__}: {exc}"


TORUS, KLEIN = polygon_gluing("abAB"), polygon_gluing("aabb")  # 8 flags each


def _refuse(system, edge):
    raise LoopEdge()


def _fail(system, *args):
    raise RuntimeError("synthetic")


def _double_twice(system, edge):
    once = double_edge(system, edge)
    return double_edge(once, edge_of(once, edge.flags[0]))


SURGERY_FAULTS = {
    "real": None,
    "refuses": _refuse,
    "raises": _fail,
    "adds 8": _double_twice,
    "moves": lambda s, e: subdivide_edge(KLEIN, edge_of(KLEIN, 0)),
}


def test_surgery_chi_messages(monkeypatch):
    check = PROPERTY_CHECKS["surgery-chi"]
    assert check(TORUS, np.random.default_rng(0)) is None
    monkeypatch.setattr(corpus, "triple_edge", double_edge)
    assert check(TORUS, np.random.default_rng(0)) == "triple added 4 flags"
    monkeypatch.setattr(corpus, "subdivide_edge", SURGERY_FAULTS["moves"])
    assert check(TORUS, np.random.default_rng(0)) == "subdivide changed the surface"
    monkeypatch.setattr(corpus, "subdivide_edge", subdivide_edge)
    monkeypatch.setattr(corpus, "double_edge", _refuse)
    assert check(TORUS, np.random.default_rng(0)) == "double refused a valid edge"


def test_surgery_chi_tells_a_subdivision_from_a_doubled_edge(monkeypatch):
    """double_edge in place of subdivide_edge adds the same four flags on the same
    surface; surgery-chi tells them apart by the vertices and faces added."""
    monkeypatch.setattr(corpus, "subdivide_edge", double_edge)
    assert PROPERTY_CHECKS["surgery-chi"](TORUS, np.random.default_rng(0)) == \
        "subdivide did not add 1 vertices and 0 faces"
    lines = []
    spec = corpus.CorpusSpec(generators=("cube", "crosscap 2"), surgery_depth=1,
                             operations=("surgery-chi",))
    assert not corpus.run_verify(spec, emit=lines.append)
    assert lines[-1] == "maps=4 cells=4 failures=4"
    assert all(line.endswith(": subdivide did not add 1 vertices and 0 faces")
               for line in lines if line.startswith("FAIL"))


@pytest.mark.parametrize("cap", [flagsys._FILL, 0], ids=["batched", "one-at-a-time"])
def test_surgery_chi_reports_the_first_failure_in_op_order(monkeypatch, cap):
    monkeypatch.setattr(corpus, "_FILL", cap)
    names = ("subdivide", "double", "triple")
    real = {"subdivide": subdivide_edge, "double": double_edge, "triple": triple_edge}
    seen = set()
    for faults in itertools.product(SURGERY_FAULTS, repeat=3):
        ops = {name: SURGERY_FAULTS[f] or real[name] for name, f in zip(names, faults)}
        for name, op in ops.items():
            monkeypatch.setattr(corpus, f"{name}_edge", op)
        for system in (TORUS, fresh(RANK2[1][1])):
            want = outcome(lambda: _old_surgery_chi(system, np.random.default_rng(3), ops))
            got = outcome(lambda: PROPERTY_CHECKS["surgery-chi"](system, np.random.default_rng(3)))
            assert got == want, faults
            seen.add(want)
    assert {"subdivide added 8 flags", "double refused a valid edge", "triple added 4 flags",
            "subdivide changed the surface", "RuntimeError: synthetic", None} <= seen


@pytest.mark.parametrize("cap", [flagsys._FILL, 0], ids=["batched", "one-at-a-time"])
def test_make_property_reports_the_first_failure_in_goal_order(monkeypatch, cap):
    monkeypatch.setattr(corpus, "_FILL", cap)
    system = fresh(dict(RANK2)["cube"])
    faults = {
        "input": lambda s, goal: s,
        "raises": _fail,
        "moves": lambda s, goal: make_property(KLEIN, goal),
    }
    seen = set()
    for (i, j), (first, second) in itertools.product(
            itertools.combinations(range(len(MAKE_GOALS)), 2), itertools.product(faults, repeat=2)):
        broken = {MAKE_GOALS[i]: faults[first], MAKE_GOALS[j]: faults[second]}

        def make(s, goal, broken=broken):
            return broken.get(goal, make_property)(s, goal)

        monkeypatch.setattr(corpus, "make_property", make)
        want = outcome(lambda: _old_make_property(system, make))
        assert outcome(lambda: PROPERTY_CHECKS["make-property"](system, None)) == want
        seen.add(want)
    assert "RuntimeError: synthetic" in seen
    assert any(w and w.endswith("postcondition fails") for w in seen)
    assert any(w and w.endswith("changed the surface") for w in seen)
