"""The store that keeps everything derived from a FlagSystem (flagsys._derived).

Every kind is read through its reader; the store keeps each result once,
with every array in it read-only, and nothing else in the package reads
or writes an instance dict or declares a cached_property.
"""

import ast
import pathlib

import numpy as np
import pytest

import mapforge
import mapforge.flagsys as flagsys
from cases import arrays_in, read_every_kind
from mapforge import FlagSystem, coloring, cube_maniplex, direct_pso, platonic, tri_torus

SYSTEMS = {
    "cube": lambda: platonic("cube"),  # rank 2, plan by lists
    "tri-torus 30 30": lambda: tri_torus(30, 30),  # rank 2, plan by arrays
    "cube-maniplex 4": lambda: cube_maniplex(4),  # rank 3
}


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_kept_array_is_read_only(name):
    system = SYSTEMS[name]()
    kept = read_every_kind(system)
    # the readers listed in cases.read_every_kind are every kind there is
    assert len(vars(system)) == 2 + len(kept)
    for key, value in kept:
        assert flagsys._kept(system, *key) is value
        assert key[0](system, *key[1:]) is value
        assert not any(a.flags.writeable for a in arrays_in(value)), key


def test_a_write_into_a_kept_array_raises_and_changes_no_answer():
    cube = platonic("cube")
    arrows = direct_pso(cube, "full").arrows.tolist()
    bits = coloring._cell_route(cube, 2)[2]
    with pytest.raises(ValueError):
        bits[:] ^= 1
    assert direct_pso(platonic("cube"), "full").arrows.tolist() == arrows
    assert direct_pso(cube, "full").arrows.tolist() == arrows


def test_seed_keeps_the_first_result_and_freezes_it():
    cube = platonic("cube")
    labels = (np.zeros(cube.flag_count, dtype=np.intp), 1)
    assert flagsys._seed(cube, flagsys._labels, labels, 1) is labels
    assert not labels[0].flags.writeable
    assert flagsys._seed(cube, flagsys._labels, (labels[0].copy(), 1), 1) is labels
    assert mapforge.cell_labels(cube, 1) is labels


def test_flag_system_declares_no_private_attribute():
    """The class body keeps its fields, flag_count, connection and dunders:
    nothing derived hangs off the class."""
    private = [name for name in vars(FlagSystem) if name.startswith("_") and not name.startswith("__")]
    assert private == []


# (module, top-level def or class) allowed to name vars(), __dict__ or cached_property
STORE = {("flagsys", "_derived"), ("flagsys", "_kept"), ("flagsys", "_keep"),
         ("corpus", "_LazyGenerator")}  # a seeded RNG made on first use, no system result


def _cache_idioms(tree):
    """(line, top-level name or None) of every use of the idioms in a module."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"
                    or isinstance(node, ast.Attribute) and node.attr in ("__dict__", "cached_property")
                    or isinstance(node, ast.Name) and node.id == "cached_property"
                    or isinstance(node, ast.alias) and node.name.split(".")[-1] == "cached_property"):
                found.append((node.lineno if hasattr(node, "lineno") else top.lineno, owner))
    return found


def test_only_the_store_reads_instance_dicts():
    package = pathlib.Path(mapforge.__file__).parent
    outside, inside = [], set()
    for path in sorted(package.glob("*.py")):
        for line, owner in _cache_idioms(ast.parse(path.read_text(), str(path))):
            if (path.stem, owner) in STORE:
                inside.add((path.stem, owner))
            else:
                outside.append(f"{path.name}:{line}")
    assert outside == []
    assert inside == STORE


def test_the_guard_sees_each_idiom():
    source = """
import functools
from functools import cached_property
def a(s): return vars(s)
def b(s): return s.__dict__
class C:
    x = functools.cached_property(lambda self: 1)
"""
    owners = [owner for _, owner in _cache_idioms(ast.parse(source))]
    assert owners == [None, "a", "b", "C"]
