"""Single-polygon gluings assembled without validate, and rank-2 edges
counted as flags // 4.

construct._glued_polygon, behind polygon_gluing, crosscap_map and
strip_map, keeps the axioms by construction, so it assembles its output
unchecked: each such seed must equal validate of its own arrays.
euler_characteristic and the info verb read E as flags // 4: on every
rank-2 map here the edge label pass must count exactly that many edges.
One pass of build_map_with_group over every rank-2 group and surface
n1..n12, o0..o7 then validates only its grid seeds.
"""

import itertools
import sys

import numpy as np

import mapforge.coloring as coloring
import mapforge.construct as construct
import mapforge.corpus as corpus
import mapforge.flagsys as flagsys
from cases import CORPUS
from mapforge import (
    MAKE_GOALS,
    FlagSystem,
    SurfaceSignature,
    all_subgroups,
    build_map_with_group,
    cell_labels,
    crosscap_map,
    euler_characteristic,
    make_property,
    polygon_gluing,
    random_surgery,
    strip_map,
    validate,
)
from mapforge.errors import MapforgeError

SURFACES = [f"n{k}" for k in range(1, 13)] + [f"o{g}" for g in range(8)]
PAIRS = [(group, SurfaceSignature.parse(s)) for group in all_subgroups(2) for s in SURFACES]


def _words(letter_count):
    """Every gluing word of 2 * letter_count letters up to renaming: letters
    first occur in order a, b, ..., lower case, and either case recurs."""
    def pairings(free):
        if not free:
            yield []
            return
        first = free[0]
        for k, other in enumerate(free[1:], 1):
            for rest in pairings(free[1:k] + free[k + 1:]):
                yield [(first, other)] + rest

    for pairing in pairings(list(range(2 * letter_count))):
        for cases in itertools.product((False, True), repeat=letter_count):
            word = [""] * (2 * letter_count)
            for letter, ((p, q), upper) in enumerate(zip(sorted(pairing), cases)):
                word[p] = chr(ord("a") + letter)
                word[q] = word[p].upper() if upper else word[p]
            yield "".join(word)


def assert_is_its_own_validation(system):
    """The assembled system equals validate of its arrays, which also
    rechecks every axiom, and holds read-only intp arrays."""
    again = validate(system.rank, system.flag_count, system.connections)
    assert again == system
    for conn, want in zip(system.connections, again.connections):
        assert conn.dtype == want.dtype and not conn.flags.writeable


def test_every_gluing_word_of_at_most_eight_letters():
    words = [w for m in range(1, 5) for w in _words(m)]
    assert len(words) == len(set(words)) == 1814
    for word in words:
        assert_is_its_own_validation(polygon_gluing(word))


def test_crosscaps():
    for k in range(1, 41):
        system = crosscap_map(k)
        assert system.flag_count == 4 * k
        assert_is_its_own_validation(system)


def test_strips_for_every_swap_set_and_parity():
    count = 0
    for h in range(1, 7):
        for size in range(h):
            for swaps in itertools.combinations(range(h - 1), size):
                for parity in (0, 1):
                    assert_is_its_own_validation(strip_map(h, swaps, parity))
                    count += 1
    assert count == 2 * (2 ** 6 - 1)


def _built():
    out = []
    for group, surface in PAIRS:
        try:
            out.append((f"{group} on {surface}", build_map_with_group(group, surface)))
        except MapforgeError:
            pass
    return out


def _rank2_maps():
    rng = np.random.default_rng(421)
    out = []
    for name, system in CORPUS:
        if system.rank != 2:
            continue
        out.append((name, system))
        out.append((f"{name} / surgery", random_surgery(system, rng)))
        out += [(f"{name} / {goal}", make_property(system, goal)) for goal in MAKE_GOALS]
    return out + _built()


def test_edges_are_a_quarter_of_the_flags_and_chi_matches_fresh_passes():
    maps = _rank2_maps()
    assert len(maps) == 8 * 52 + 169
    for name, system in maps:
        fresh = FlagSystem(rank=2, connections=system.connections)
        v, e, f = (cell_labels(fresh, d)[1] for d in range(3))
        assert e == system.flag_count // 4, name
        assert cell_labels(system, 1)[1] == e, name
        assert euler_characteristic(system) == v - e + f, name


def test_euler_characteristic_makes_no_edge_label_pass():
    system = crosscap_map(5)
    assert euler_characteristic(system) == -3
    kept = [d for d in range(3) if flagsys._kept(system, flagsys._labels, d) is not None]
    assert kept == [0, 2]


def test_one_realization_pass_validates_only_the_grid_seeds(monkeypatch):
    """320 (group, surface) calls, 169 of which build a map: 18 validate
    calls, each from _square_complex behind the {0,2} grids, and 781
    kernel calls, none of them an edge label pass."""
    kernel, check = flagsys._orbits, flagsys.validate
    orbits, callers = [], []

    def counted_orbits(n, edges, flips=None):
        orbits.append(n)
        return kernel(n, edges, flips)

    def counted_validate(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return check(*args)

    for module in (flagsys, coloring, corpus):
        monkeypatch.setattr(module, "_orbits", counted_orbits)
    for module in (flagsys, construct):
        monkeypatch.setattr(module, "validate", counted_validate)
    assert len(_built()) == 169
    assert callers == ["_square_complex"] * 18
    assert len(orbits) == 781
