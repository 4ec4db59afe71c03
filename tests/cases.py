"""Shared test inputs: the default corpus, its I-doubles, and relabelings.

CORPUS and DOUBLES are (name, system) lists, built once per session.
DOUBLES holds i_double(system, I) for every corpus map and every color
set I, in corpus order and then ascending mask; a split double is the
corpus map itself.  Each test module draws its own relabelings.
"""

import numpy as np

from mapforge import ColorSet, CorpusSpec, build_corpus, i_double, validate


def color_sets(rank):
    """Every color set of a rank, by ascending mask."""
    return [ColorSet(rank, m) for m in range(1 << (rank + 1))]


def relabeled(system, perm):
    """The same map with flag f renamed perm[f]."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(system.flag_count)
    return validate(system.rank, system.flag_count,
                    [perm[conn[inverse]] for conn in system.connections])


CORPUS = build_corpus(CorpusSpec())
DOUBLES = [(f"{name} / {cs}-double", i_double(system, cs).system)
           for name, system in CORPUS for cs in color_sets(system.rank)]
