"""flagsys._union, the one disjoint-union pass behind I-doubles and cache fills.

Every block of a union must come out as a pass of its own: its roots
shifted by its first node, and its potentials with the same bytes and
dtype, read-only.  Blocks join a pass in order while it holds at most
flagsys._FILL nodes, and a larger block gets a pass of its own.  The
blocks drawn here are letter subsets of corpus maps, which split into
cells, and lifts of I-doubles, which split when I is in T(M).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mapforge.flagsys as flagsys
from cases import CORPUS

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


def run_union(drawn, flips, cap):
    """_union's result and the node count of every kernel call it made."""
    calls, real = [], flagsys._orbits

    def counted(n, edges, flips=None):
        calls.append(n)
        return real(n, edges, flips)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flagsys, "_FILL", cap)
        patch.setattr(flagsys, "_orbits", counted)
        return flagsys._union(drawn, flips), calls


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(unions())
def test_each_block_comes_out_as_a_pass_of_its_own(union):
    drawn, flips, cap = union
    (starts, root, pot), calls = run_union(drawn, flips, cap)
    sizes = [len(block[0]) for block in drawn]
    assert starts.tolist() == np.cumsum([0] + sizes).tolist()
    assert calls == greedy_passes(sizes, cap)
    assert root.dtype == np.intp and root.shape == (starts[-1],)
    assert (pot is None) == (flips is None)
    for block, a, b in zip(drawn, starts, starts[1:]):
        own_root, own_pot, _ = flagsys._orbits(b - a, [(None, c) for c in block], flips)
        assert np.array_equal(root[a:b], own_root + a)
        if flips is not None:
            part = pot[a:b]
            assert part.dtype == own_pot.dtype and part.tobytes() == own_pot.tobytes()
            assert not part.flags.writeable


@pytest.mark.parametrize("flips", [None, [1, 2, 4]])
def test_an_empty_union_makes_no_pass(flips):
    (starts, root, pot), calls = run_union([], flips, flagsys._FILL)
    assert calls == [] and starts.tolist() == [0]
    assert root.dtype == np.intp and root.size == 0
    if flips is None:
        assert pot is None
    else:
        assert pot.dtype == np.uint8 and pot.size == 0 and not pot.flags.writeable
