"""The lazy isomorphism search behind is_isomorphic, deck_transformations
and recognize_i_double."""

import numpy as np
import pytest

import mapforge.flagsys as flagsys
from mapforge import (
    ColorSet,
    CorpusSpec,
    build_corpus,
    deck_transformations,
    find_coloring,
    i_double,
    is_isomorphic,
    quotient,
    recognize_i_double,
    validate,
)
from mapforge.errors import ValidationError

CORPUS = [system for _, system in build_corpus(CorpusSpec())]


def _relabeled(system, seed):
    perm = np.random.default_rng(seed).permutation(system.flag_count)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(system.flag_count)
    return validate(system.rank, system.flag_count,
                    [perm[conn[inverse]] for conn in system.connections])


def _covers():
    """Every connected I-double of the corpus, with its color set."""
    for system in CORPUS:
        for mask in range(1 << (system.rank + 1)):
            color_set = ColorSet(system.rank, mask)
            result = i_double(system, color_set)
            if not result.split:
                yield result.system, color_set


def _reference_recognition(system, color_set):
    """The first deck, in deck_transformations order, that swaps the color
    classes, is an involution, avoids every connection and that quotient
    accepts; returned with its index in that order."""
    coloring = find_coloring(system, color_set)
    if coloring is None:
        return None
    a = coloring.assignment
    ids = np.arange(system.flag_count)
    for index, u in enumerate(deck_transformations(system)):
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
        for mask in range(1 << (system.rank + 1)):
            yield system, ColorSet(system.rank, mask), False


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


SMALL = [s for s in CORPUS if s.flag_count <= 96]


@pytest.mark.parametrize("chunk", [1, 500])
def test_search_block_size_does_not_change_results(monkeypatch, chunk):
    systems = SMALL + [_relabeled(s, 7) for s in SMALL]
    default_decks = [deck_transformations(s) for s in systems]
    default_isos = [is_isomorphic(s, t) for s in SMALL for t in SMALL]
    monkeypatch.setattr(flagsys, "_CHUNK", chunk)
    for system, want in zip(systems, default_decks):
        got = deck_transformations(system)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    got_isos = [is_isomorphic(s, t) for s in SMALL for t in SMALL]
    for got, want in zip(got_isos, default_isos):
        assert (got is None) == (want is None)
        assert got is None or np.array_equal(got, want)


def test_returned_isomorphisms_are_read_only_copies():
    cube = CORPUS[1]
    decks = deck_transformations(cube)
    assert all(d.base is None and not d.flags.writeable for d in decks)
