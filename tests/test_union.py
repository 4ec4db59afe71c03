"""flagsys._union, the disjoint-union passes behind I-doubles and cache fills.

_union yields one pass at a time as (i, starts, root, pot): the pass holds
blocks i, i + 1, ..., block i + b on its nodes starts[b] to starts[b + 1] - 1.
Every block must come out as a pass of its own: its root slice less its
start, and its potentials with the same bytes and dtype, read-only.  Blocks
join a pass in order while it holds at most flagsys._FILL nodes, and a
larger block gets a pass of its own.  The blocks drawn here are letter
subsets of corpus maps, which split into cells, and lifts of I-doubles,
which split when I is in T(M).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mapforge.flagsys as flagsys
from cases import CORPUS, color_sets
from mapforge import cube_maniplex
from mapforge.doubles import _i_doubles

SMALL = [system for _, system in CORPUS if system.flag_count <= 400]


def lift(system, mask):
    """The lifted connections of an I-double with mask I, connected or not."""
    ids = np.arange(2 * system.flag_count, dtype=np.intp)
    return [2 * np.repeat(conn, 2) + ((ids & 1) ^ (mask >> j & 1))
            for j, conn in enumerate(system.connections)]


@st.composite
def blocks(draw, letters):
    system = draw(st.sampled_from(SMALL))
    conns = list(system.connections)
    if draw(st.booleans()):
        conns = lift(system, draw(st.integers(0, (1 << (system.rank + 1)) - 1)))
    picked = draw(st.lists(st.sampled_from(range(len(conns))), min_size=letters,
                           max_size=letters, unique=True))
    return [conns[j] for j in picked]


@st.composite
def unions(draw):
    letters = draw(st.integers(1, 3))
    drawn = draw(st.lists(blocks(letters), max_size=6))
    flips = draw(st.sampled_from([None, [1 << j for j in range(letters)]]))
    total = sum(len(block[0]) for block in drawn)
    return drawn, flips, draw(st.integers(1, total + 100))


def greedy_passes(sizes, cap):
    """Node counts of the passes: a block joins the open pass while it fits."""
    passes = []
    for n in sizes:
        if passes and passes[-1] + n <= cap:
            passes[-1] += n
        else:
            passes.append(n)
    return passes


def counted_union(drawn, flips, cap, patch):
    """_union's generator, and the node count of every kernel call it makes."""
    calls, real = [], flagsys._orbits

    def counted(n, edges, flips=None):
        calls.append(n)
        return real(n, edges, flips)

    patch.setattr(flagsys, "_FILL", cap)
    patch.setattr(flagsys, "_orbits", counted)
    return flagsys._union(drawn, flips), calls


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(unions())
def test_each_block_comes_out_as_a_pass_of_its_own(union):
    drawn, flips, cap = union
    with pytest.MonkeyPatch.context() as patch:
        passes, calls = counted_union(drawn, flips, cap, patch)
        passes = list(passes)
    sizes = [len(block[0]) for block in drawn]
    assert calls == greedy_passes(sizes, cap) == [int(starts[-1]) for _, starts, _, _ in passes]
    held = 0  # blocks in the passes before this one
    for i, starts, root, pot in passes:
        assert i == held
        held += len(starts) - 1
        assert root.dtype == np.intp and root.shape == (starts[-1],)
        assert (pot is None) == (flips is None)
        for block, a, b in zip(drawn[i:held], starts, starts[1:]):
            assert b - a == len(block[0])
            own_root, own_pot, _ = flagsys._orbits(b - a, [(None, c) for c in block], flips)
            assert np.array_equal(root[a:b] - a, own_root)
            if flips is not None:
                part = pot[a:b]
                assert part.dtype == own_pot.dtype and part.tobytes() == own_pot.tobytes()
                assert not part.flags.writeable
    assert held == len(drawn)


@pytest.mark.parametrize("flips", [None, [1, 2, 4]])
def test_an_empty_union_makes_no_pass(flips, monkeypatch):
    passes, calls = counted_union([], flips, flagsys._FILL, monkeypatch)
    assert list(passes) == [] and calls == []


def test_the_first_pass_makes_one_kernel_call(monkeypatch):
    drawn = [lift(system, 1) for system in SMALL[:4]]
    passes, calls = counted_union(drawn, [1, 2, 4], 1, monkeypatch)
    i, starts, root, pot = next(passes)
    assert calls == [root.size] and (i, starts.tolist()) == (0, [0, root.size])
    assert len(list(passes)) == 3 and len(calls) == 4


def test_doubles_hold_one_pass_at_a_time():
    """The 32 I-doubles of cube-maniplex 5, 7,680 flags and a pass each, peak
    under 2.5 MiB above their input: one pass's roots, not all 32 (4.9 MiB)."""
    system = cube_maniplex(5)
    sets = color_sets(system.rank)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        doubles = _i_doubles(system, sets)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert len(doubles) == 32 and peak < 2.5 * 2**20, peak
