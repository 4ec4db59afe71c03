"""Shared test inputs: the default corpus, its I-doubles, and relabelings,
and every result the store of a system keeps.

CORPUS and DOUBLES are (name, system) lists, built once per session.
DOUBLES holds i_double(system, I) for every corpus map and every color
set I, in corpus order and then ascending mask; a split double is the
corpus map itself.  Each test module draws its own relabelings.
"""

import numpy as np

from mapforge import ColorSet, CorpusSpec, build_corpus, coloring, construct, flagsys, i_double, validate


def color_sets(rank):
    """Every color set of a rank, by ascending mask."""
    return [ColorSet(rank, m) for m in range(1 << (rank + 1))]


def relabeled(system, perm):
    """The same map with flag f renamed perm[f]."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(system.flag_count)
    return validate(system.rank, system.flag_count,
                    [perm[conn[inverse]] for conn in system.connections])


def read_every_kind(system):
    """Read every result the store keeps for a system of rank 2 or more:
    a list of ((reader, *at), result), each key as flagsys._kept takes it."""
    reads = [(flagsys._pot,), (flagsys._parity,), (coloring.coloring_group,),
             (flagsys._transport_plan,), (flagsys._flag_classes,)]
    reads += [(reader, d) for d in range(system.rank + 1)
              for reader in (flagsys._labels, coloring._cell_pass, coloring._cell_route)]
    if system.rank == 2:
        reads.append((construct._edge_flags,))
    return [(key, key[0](system, *key[1:])) for key in reads]


def arrays_in(value):
    """Every numpy array in a result, through its tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for part in value for a in arrays_in(part)]
    return []


def same_result(a, b):
    """Equal results: arrays by dtype, shape and bytes, the rest by ==."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_result, a, b))
    return a == b


CORPUS = build_corpus(CorpusSpec())
DOUBLES = [(f"{name} / {cs}-double", i_double(system, cs).system)
           for name, system in CORPUS for cs in color_sets(system.rank)]
