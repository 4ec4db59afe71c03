"""Connection rows decoded on fileio's thread pool.

Above fileio._PARALLEL_ROWS characters the parser hands each connection
line of ASCII to a thread, which decodes it when it is digits and spaces,
and reads the result in place of its own np.fromstring call.  Parsing
with the cutover below and above a file must give the same system, and
the same error at the same line and column as the token-loop reference,
in the same order.  A child made by fork must not wait on its parent's
threads.
"""

import functools
import os
import signal
import time
import warnings

import numpy as np
import pytest

import mapforge.fileio as fileio
from fileio_reference import parse_flag_text as reference_parse
from mapforge import cube_maniplex, i_double, parse_flag_text, tri_torus, write_flag_text
from test_fileio import assert_parses_like_reference

NAMES = ["tri-torus-60-60", "tri-torus-60-60-double", "cube-maniplex-5"]


@functools.cache
def text_of(name):
    system = {
        "tri-torus-60-60": lambda: tri_torus(60, 60),
        "tri-torus-60-60-double": lambda: i_double(tri_torus(60, 60), (0,)).system,
        "cube-maniplex-5": lambda: cube_maniplex(5),
    }[name]()
    return write_flag_text(system)


@pytest.fixture
def decoded(monkeypatch):
    """The lines handed to _digit_row, in the order the threads took them."""
    lines = []
    real = fileio._digit_row

    def counted(line):
        lines.append(line)
        return real(line)

    monkeypatch.setattr(fileio, "_digit_row", counted)
    return lines


@pytest.mark.parametrize("name", NAMES)
def test_cutover_below_and_above_gives_the_same_system(monkeypatch, decoded, name):
    text = text_of(name)
    rows = text.splitlines()[2:]
    systems = []
    for cutover in (0, 10 ** 9):
        monkeypatch.setattr(fileio, "_PARALLEL_ROWS", cutover)
        decoded.clear()
        systems.append(parse_flag_text(text))
        if cutover == 0 and fileio._decoders() is not None:
            assert sorted(decoded) == sorted(rows)
        if cutover > 0:
            assert decoded == []
    threads, serial = systems
    assert threads == serial
    for a, b in zip(threads.connections, serial.connections):
        assert a.dtype == b.dtype == np.intp
        assert not a.flags.writeable and not b.flags.writeable


def _mutations(text):
    """Damaged copies of a large file, each named for what it tests."""
    lines = text.split("\n")
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


@pytest.mark.parametrize("what", list(_mutations(text_of(NAMES[0]))))
@pytest.mark.parametrize("cutover", [0, 10 ** 9], ids=["threads", "serial"])
def test_large_damaged_files_raise_the_reference_error(monkeypatch, what, cutover):
    monkeypatch.setattr(fileio, "_PARALLEL_ROWS", cutover)
    text = _mutations(text_of(NAMES[0]))[what]
    with pytest.raises(Exception):
        reference_parse(text)
    assert_parses_like_reference(text)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_parses_a_large_file_after_a_pooled_parse(decoded):
    text = text_of(NAMES[0])
    want = parse_flag_text(text)
    if not decoded:
        pytest.skip("one usable core: the parser starts no threads")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if parse_flag_text(text) == want else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("a child forked after a pooled parse hung parsing a large file")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0
