"""The rank-2 generators on one polygon builder against construct_reference.

construct._polygons writes the connections of every rotation system,
polygon word, crosscap, strip, grid and triangulated torus.  Each
generator must give the same connection arrays as the per-dart loops in
construct_reference, or fail with the same exception.  cube_maniplex,
written with whole-array numpy too, is checked against its old loop.
"""

import random

import numpy as np
import pytest

import construct_reference as ref
from mapforge import RotationSystem, construct, corpus, from_rotation_system
from mapforge.construct import _square_complex
from mapforge.corpus import DEFAULT_GENERATORS, invoke_generator
from mapforge.errors import OutOfRange, ValidationError


def _outcome(build):
    """(rank, connection bytes) of what `build` returns, or its exception."""
    try:
        system = build()
    except Exception as exc:  # compared below, never swallowed
        return type(exc), str(exc)
    return system.rank, tuple(conn.tobytes() for conn in system.connections)


def _reference(text, monkeypatch):
    """invoke_generator(text) with every builder swapped for its reference."""
    with monkeypatch.context() as patch:
        patch.setattr(construct, "from_rotation_system", ref.from_rotation_system)
        patch.setattr(construct, "_glued_polygon", ref.glued_polygon)
        patch.setattr(corpus, "tri_torus", ref.tri_torus)
        patch.setattr(corpus, "grid_map", ref.grid_map)
        return _outcome(lambda: invoke_generator(text))


def _assert_same(texts, monkeypatch):
    for text in texts:
        want = _reference(text, monkeypatch)
        assert isinstance(want[0], int), (text, want)
        assert _outcome(lambda: invoke_generator(text)) == want, text


def test_default_generators(monkeypatch):
    _assert_same(DEFAULT_GENERATORS, monkeypatch)


def test_tri_tori_and_grids(monkeypatch):
    sizes = [(m, n) for m in range(1, 6) for n in range(1, 6)]
    _assert_same([f"tri-torus {m} {n}" for m, n in sizes], monkeypatch)
    _assert_same([f"grid {m} {n} {k}" for m, n in sizes for k in range(n + 1)], monkeypatch)


def test_crosscaps_and_strips(monkeypatch):
    _assert_same([f"crosscap {k}" for k in range(1, 31)], monkeypatch)
    strips = [
        f"strip {h} {parity} " + " ".join(map(str, range(s)))
        for h in range(1, 7) for parity in (0, 1) for s in range(h)
    ]
    _assert_same(strips, monkeypatch)


def _random_rotation_system(rng: random.Random) -> RotationSystem:
    """Darts in scrambled order, cut into rotations at random (some of
    them empty), paired into edges of mixed sign."""
    darts = list(range(2 * rng.randrange(0, 13)))
    rng.shuffle(darts)
    cuts = sorted(rng.randrange(len(darts) + 1) for _ in range(rng.randrange(1, 6)))
    rotations = [tuple(darts[a:b]) for a, b in zip([0] + cuts, cuts + [len(darts)])]
    rng.shuffle(darts)
    pairs = [(darts[i], darts[i + 1], rng.choice((1, -1))) for i in range(0, len(darts), 2)]
    return RotationSystem(rotations=tuple(rotations), edge_pairs=tuple(pairs))


def test_random_rotation_systems():
    rng = random.Random(13)
    kinds = set()
    for _ in range(400):
        rs = _random_rotation_system(rng)
        want = _outcome(lambda: ref.from_rotation_system(rs))
        assert _outcome(lambda: from_rotation_system(rs)) == want, rs
        kinds.add(want[0] if isinstance(want[0], type) else "valid")
    # the sample holds valid maps as well as disconnected and colliding ones
    assert {"valid", "Disconnected", "BadParameters"} <= {
        k if isinstance(k, str) else k.__name__ for k in kinds}


def test_unglued_square_side_is_refused():
    """r2 starts at -1, so a side that no gluing covers is reported as
    out of range, never as whatever memory held before."""
    torus = [(2, 0, 0), (3, 1, 0)]  # one square, opposite sides glued
    assert _square_complex(1, torus).flag_count == 8
    for gluings in (torus[:1], torus[1:]):
        with pytest.raises(ValidationError) as caught:
            _square_complex(1, np.array(gluings))
        assert isinstance(caught.value, OutOfRange)
        assert caught.value.i == 2 and caught.value.value == -1


@pytest.mark.parametrize("d", range(2, 7))
def test_cube_maniplex_matches_the_per_flag_loop(d):
    assert construct.cube_maniplex(d) == ref.cube_maniplex(d)
