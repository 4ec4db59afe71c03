"""The parity and label caches on FlagSystem.

Every coloring question reads one cached parity pass and every cell
question one cached label pass per dimension, which the cell route's
first pass fills when it comes first.  Answers must not depend on which
questions came first, on which of two equal systems they were asked, or
on a pickle round trip, and cached arrays must stay read-only.  Each
distinct coloring group is one shared object.
"""

import dataclasses
import pickle

import numpy as np
import pytest

import mapforge.flagsys as flagsys
import orbit_reference as ref
from cases import CORPUS, DOUBLES, color_sets
from mapforge import (
    ColoringGroup,
    CorpusSpec,
    cell_labels,
    coloring_group,
    find_coloring,
    platonic,
    run_verify,
    subgroup_closure,
    validate,
)
from mapforge.coloring import _cell_pass, _eliminated, _orthogonal_group, _shared_group

def _twin(system):
    """An equal system sharing no arrays and no caches with `system`."""
    return validate(system.rank, system.flag_count,
                    [conn.copy() for conn in system.connections])


def _same_coloring(got, want) -> bool:
    if want is None:
        return got is None
    return got is not None and got.assignment.tobytes() == want.tobytes()


def test_answers_do_not_depend_on_query_order():
    """One twin is asked every color set in ascending order before its
    group and cells, the other in descending order after them."""
    for name, system in CORPUS + DOUBLES:
        sets = color_sets(system.rank)
        dims = range(system.rank + 1)
        up, down = _twin(system), _twin(system)
        colorings_up = [find_coloring(up, cs) for cs in sets]
        group_up = coloring_group(up).masks
        labels_up = [cell_labels(up, d) for d in dims]
        labels_down = [cell_labels(down, d) for d in reversed(dims)][::-1]
        group_down = coloring_group(down).masks
        colorings_down = [find_coloring(down, cs) for cs in reversed(sets)][::-1]

        assert group_up == group_down == ref.coloring_group(system).masks, name
        for cs, got_up, got_down in zip(sets, colorings_up, colorings_down):
            want = ref.find_coloring(system, cs)
            assert _same_coloring(got_up, want), (name, str(cs))
            assert _same_coloring(got_down, want), (name, str(cs))
        for d, (a, count_a), (b, count_b) in zip(dims, labels_up, labels_down):
            want, want_count = ref.cell_labels(system, d)
            assert count_a == count_b == want_count, (name, d)
            assert np.array_equal(a, want) and np.array_equal(b, want), (name, d)


def test_cell_labels_are_read_only():
    system = platonic("cube")
    labels, count = cell_labels(system, 0)
    with pytest.raises(ValueError):
        labels[0] = count
    assert cell_labels(system, 0)[0] is labels


def test_coloring_group_is_derived_once():
    """The group is kept beside the parity pass, not re-derived per call."""
    system = _twin(platonic("cube"))
    assert coloring_group(system) is coloring_group(system)


def test_each_coloring_group_is_built_once(monkeypatch):
    """Equal groups of different systems are one frozen object, whose
    closure check ran once."""
    checked = []
    check = ColoringGroup.__post_init__

    def counted(group):
        checked.append((group.rank, group.masks))
        check(group)

    systems = [(name, _twin(system), ref.coloring_group(system).masks)
               for name, system in CORPUS + DOUBLES]
    _shared_group.cache_clear()
    _eliminated.cache_clear()
    monkeypatch.setattr(ColoringGroup, "__post_init__", counted)
    groups = {}
    for name, system, want in systems:
        group = coloring_group(system)
        assert groups.setdefault((group.rank, group.masks), group) is group, name
        assert group.masks == want, name
    assert len(checked) == len(groups) > 1 and set(checked) == set(groups)
    assert subgroup_closure(2, [1, 2]) is subgroup_closure(2, [3, 1, 2])
    assert subgroup_closure(2, [1, 2]) is not subgroup_closure(3, [1, 2])
    with pytest.raises(dataclasses.FrozenInstanceError):
        subgroup_closure(2, [1]).masks = frozenset({0})


def test_each_orthogonal_group_is_eliminated_once():
    """A default verify pass asks for 1,123 orthogonal groups of 59 distinct
    (rank, cycle basis) pairs, and eliminates each pair once."""
    _eliminated.cache_clear()
    lines = []
    assert run_verify(CorpusSpec(), emit=lines.append), lines
    info = _eliminated.cache_info()
    assert (info.misses, info.hits) == (59, 1064)
    assert _orthogonal_group(2, [3, 5]) is _orthogonal_group(2, (3, 5))
    assert _orthogonal_group(2, [5, 3]) == _orthogonal_group(2, [3, 5])


def test_cell_route_fills_the_label_cache(monkeypatch):
    """After the cell route's first pass, cell_labels runs no kernel pass
    and equals a fresh one; a label pass made first is kept."""
    kernel = flagsys._orbits
    passes = []

    def counted(n, edges, flips=None):
        passes.append(n)
        return kernel(n, edges, flips)

    for name, system in CORPUS + DOUBLES:
        routed, fresh = _twin(system), _twin(system)
        for d in range(system.rank + 1):
            _cell_pass(routed, d)
            monkeypatch.setattr(flagsys, "_orbits", counted)
            labels, count = cell_labels(routed, d)
            monkeypatch.undo()
            assert not passes, (name, d)
            want, want_count = cell_labels(fresh, d)
            assert count == want_count and np.array_equal(labels, want), (name, d)
            assert labels.dtype == want.dtype and not labels.flags.writeable, (name, d)
            assert _cell_pass(fresh, d)[0] is want, (name, d)


@pytest.mark.parametrize("name,system", CORPUS[::9], ids=lambda v: v if isinstance(v, str) else "")
def test_pickled_system_keeps_its_answers(name, system):
    """--workers sends systems to other processes by pickle."""
    sets = color_sets(system.rank)
    dims = range(system.rank + 1)
    filled = _twin(system)
    group = coloring_group(filled)
    colorings = [find_coloring(filled, cs) for cs in sets]
    labels = [cell_labels(filled, d) for d in dims]

    copy = pickle.loads(pickle.dumps(filled))
    assert copy == filled
    assert all(not conn.flags.writeable for conn in copy.connections)
    assert coloring_group(copy) == group
    for cs, want in zip(sets, colorings):
        assert _same_coloring(find_coloring(copy, cs), want.assignment if want else None)
    for d, (want, want_count) in zip(dims, labels):
        got, count = cell_labels(copy, d)
        assert count == want_count and np.array_equal(got, want)
        assert not got.flags.writeable
