"""Damaged flag files never crash a verb: every run exits 0, 1 or 2."""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from mapforge import invoke_generator, write_flag_text
from mapforge.cli import main

SEEDS = [write_flag_text(invoke_generator(text)).encode()
         for text in ("polygon aA", "tetrahedron", "crosscap 2", "cube-maniplex 3")]

# bytes that move a parse across its branches: digits, separators, header
# letters, a sign, comments, and bytes that are not UTF-8
NOISE = b"0123456789 \t\n:-#rflagsn\x00\x80\xc3\xff"


@st.composite
def damaged_flag_files(draw):
    data = bytearray(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("truncate", "replace", "insert", "delete")))
        byte = draw(st.sampled_from(NOISE))
        if edit == "truncate":
            del data[pos:]
        elif edit == "insert":
            data[pos:pos] = draw(st.binary(max_size=3)) + bytes([byte])
        elif pos < len(data):
            if edit == "replace":
                data[pos] = byte
            else:
                del data[pos]
    return bytes(data)


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(damaged_flag_files(), st.sampled_from(("validate", "info", "tgroup")))
def test_damaged_flag_files_exit_cleanly(data, verb):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "damaged.flags")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, path])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
