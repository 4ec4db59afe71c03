"""Large flag files parsed here and on a pool's worker thread.

The parser decodes every connection row on the thread that calls it;
it has no size cutover to a threaded decode any more.  A large file
must give the same system whether the parser is called here ("serial")
or from a pool's worker thread ("threads"), and each damaged copy of a
43,200-flag file must raise the reference's error, at the same line and
column, either way.
"""

import functools

import numpy as np
import pytest

from fileio_reference import parse_flag_text as reference_parse
from mapforge import cube_maniplex, i_double, tri_torus, write_flag_text
from test_fileio import _outcome_on_caller, assert_parses_like_reference

MAKERS = {
    "tri-torus-60-60": lambda: tri_torus(60, 60),
    "tri-torus-60-60-double": lambda: i_double(tri_torus(60, 60), (0,)).system,
    "cube-maniplex-5": lambda: cube_maniplex(5),
}


@pytest.mark.parametrize("name", list(MAKERS))
def test_cutover_below_and_above_gives_the_same_system(name):
    # The name is kept from the removed row-count cutover; the two routes
    # left to compare are the calling thread and a worker thread.
    system = MAKERS[name]()
    text = write_flag_text(system)
    threads, serial = (_outcome_on_caller(text, pooled) for pooled in (True, False))
    assert threads == serial == system
    for a, b in zip(threads.connections, serial.connections):
        assert a.dtype == b.dtype == np.intp
        assert not a.flags.writeable and not b.flags.writeable


@functools.cache
def _mutations():
    """Damaged copies of tri-torus 60 60's file, each named for what it tests."""
    lines = write_flag_text(tri_torus(60, 60)).split("\n")
    head, (r0, r1, r2) = "\n".join(lines[:2]), lines[2:5]
    mid = r1.index(" ", len(r1) // 2)
    junk_r1 = r1[:mid + 1] + "x" + r1[mid + 2:]  # an image in the middle starts with 'x'
    return {
        # row 1's junk is found before row 2's head is read
        "junk-r1-bad-r2-head": "\n".join([head, r0, junk_r1, "r3:" + r2[3:], ""]),
        "bad-r2-head": "\n".join([head, r0, r1, "r3:" + r2[3:], ""]),
        "negative-in-r0": "\n".join([head, r0[:r0.rindex(" ")] + " -1", r1, r2, ""]),
        "junk-end-r2": "\n".join([head, r0, r1, r2 + " 1e0", ""]),
        "r1-too-short": "\n".join([head, r0, r1[:r1.rindex(" ")], r2, ""]),
        "r0-not-an-involution": "\n".join([head, r0.replace(" 0 ", " 2 ", 1), r1, r2, ""]),
        "missing-r2": "\n".join([head, r0, r1, ""]),
    }


@pytest.mark.parametrize("what", list(_mutations()))
@pytest.mark.parametrize("pooled", [True, False], ids=["threads", "serial"])
def test_large_damaged_files_raise_the_reference_error(what, pooled):
    text = _mutations()[what]
    with pytest.raises(Exception):
        reference_parse(text)
    assert_parses_like_reference(text, pooled)
