"""Plain-text flag file format.

Canonical form, written byte-for-byte by write_flag_text:

    rank 2
    flags 8
    r0: 1 0 3 2 5 4 7 6
    r1: 7 2 1 4 3 6 5 0
    r2: 5 4 7 6 1 0 3 2

Lines starting with '#' and blank lines are skipped on input.  Flags are
0-based; an image is a base-10 integer with an optional sign, read as
int() reads it.  Everything else is rejected with a line/column
diagnostic.  A path that cannot be read or written is a FlagFileError.
Rows are written by one gather from a table of every value's digits
(_digit_table), 8 bytes a value below 10**7 and 16 from there on.

Lines are found by str.find, which runs memchr; text that is not ASCII
or holds another line break of str.splitlines (CR, VT, FF and the
separators 0x1c-0x1e) is first rejoined by LF, so line numbers are
those of str.splitlines.  When the rank+1 lines after the header total
at least _PARALLEL_ROWS characters and more than one core is usable, a
small thread pool (a thread per usable core, started at first use)
decodes them with np.fromstring, which releases the GIL, while the
parser checks each line in order as before and reads the decoded row in
place of its own call.  It copies the row first: each thread allocates
in a malloc arena of its own, at the same offsets, and rows read side by
side from there ran _orbits about 40% slower (cache sets shared).  A
thread takes only rows of ASCII digits and spaces, which raise no numpy
warning; every other row is read on the calling thread inside
warnings.catch_warnings, which is not thread-safe.  So every result and
every error, with its line and column, is the same.  A child made by
fork drops the pool, whose threads it lacks, and starts its own.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import FlagFileError
from .flagsys import FlagSystem, validate

__all__ = ["parse_flag_text", "write_flag_text", "read_flag_file", "write_flag_file"]


def _int_field(token: str, lineno: int, column: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FlagFileError(lineno, column, f"expected integer {what}, got {token!r}") from None


def _significant_lines(text: str) -> list[tuple[int, str]]:
    """(line number, line) of every line that is neither blank nor a comment.
    Lines are found by str.find, which runs memchr; text with any other
    line break str.splitlines knows is first rejoined by LF alone."""
    if not text.isascii() or any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e"):
        text = "\n".join(text.splitlines())
    lines = []
    start = lineno = 0
    while start <= len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        raw = text[start:end]
        lineno += 1
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, raw))
        start = end + 1
    return lines


# characters in the connection lines from which threads decode them.  On
# two cores of a Xeon VM, handing rows to the pool costs 0.15-0.2 ms: rows
# of 118,359 and 140,679 characters in all parse 7-10% slower by threads,
# 161,079 (tri-torus 30 30) 6% slower to 15% faster from run to run,
# 464,343 (tri-torus 48 48) 12% faster and tri-torus 60 60 18% faster
_PARALLEL_ROWS = 200_000

# the row decoders, made at first use (setdefault keeps one if two threads
# make one at once); a child made by fork has none of its parent's
# threads, so it makes its own
_pool: dict = {}
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.clear)


def _decoders() -> ThreadPoolExecutor | None:
    """The pool of row decoders, up to a thread per usable core, each started
    when a row finds no idle one, so at most one per row; None on one core."""
    pool = _pool.get("pool")
    if pool is None:
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        if cores < 2:
            return None
        pool = _pool.setdefault("pool", ThreadPoolExecutor(cores, "mapforge-rows"))
    return pool


def _digit_row(line: str) -> np.ndarray | None:
    """np.fromstring of an ASCII line's part after the colon when that is
    digits and spaces, else None.  Such rows raise no numpy warning, so a
    thread may read them outside the parser's warnings.catch_warnings,
    which is not thread-safe."""
    rest = line.partition(":")[2]
    if rest.encode("ascii").translate(None, b"0123456789 "):
        return None
    return np.fromstring(rest, dtype=np.intp, sep=" ")


def _decode_ahead(ahead: list[tuple[int, str]]) -> list:
    """For each of the lines `ahead`, which the parser reads as connection
    rows next, a future of its _digit_row, or None where the parser decodes
    it: ASCII lines go to the pool once they total at least _PARALLEL_ROWS
    characters and more than one core is usable."""
    if sum(len(raw) for _, raw in ahead) < _PARALLEL_ROWS or (pool := _decoders()) is None:
        return [None] * len(ahead)
    return [pool.submit(_digit_row, raw) if raw.isascii() else None for _, raw in ahead]


def parse_flag_text(text: str) -> FlagSystem:
    """Parse and validate a flag file; raises FlagFileError on bad syntax."""
    lines = _significant_lines(text)
    pending = iter(lines)

    def take(expect: str) -> tuple[int, str]:
        item = next(pending, None)
        if item is None:
            last = lines[-1][0] if lines else 1
            raise FlagFileError(last, None, f"unexpected end of file, expected {expect}")
        return item

    lineno, raw = take("'rank <n>'")
    parts = raw.split()
    if len(parts) != 2 or parts[0] != "rank":
        raise FlagFileError(lineno, raw.index(parts[0]) + 1 if parts else 1,
                            f"expected 'rank <n>', got {raw.strip()!r}")
    rank = _int_field(parts[1], lineno, raw.index(parts[1]) + 1, "rank")
    if rank < 1:
        raise FlagFileError(lineno, raw.index(parts[1]) + 1, f"rank must be >= 1, got {rank}")

    lineno, raw = take("'flags <N>'")
    parts = raw.split()
    if len(parts) != 2 or parts[0] != "flags":
        raise FlagFileError(lineno, 1, f"expected 'flags <N>', got {raw.strip()!r}")
    count = _int_field(parts[1], lineno, raw.index(parts[1]) + 1, "flag count")
    if count < 1:
        raise FlagFileError(lineno, raw.index(parts[1]) + 1,
                            f"flag count must be >= 1, got {count}")

    connections = []
    decoded = _decode_ahead(lines[2:rank + 3])
    # numpy reads "- 0" as one image and a blank row as [0], saturates past
    # int64 and before 2.0 only warns on junk: such rows take the token loop
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(rank + 1):
            lineno, raw = take(f"'r{i}: ...'")
            head, sep, rest = raw.partition(":")
            if not sep or head.strip() != f"r{i}":
                raise FlagFileError(lineno, 1,
                                    f"expected connection line 'r{i}: ...', got {raw.strip()!r}")
            row = None
            if "-" not in rest and "+" not in rest and not rest.isspace():
                if decoded[i] is not None:
                    row = decoded[i].result()
                    # each thread allocates in its own malloc arena, at the
                    # same offsets, so its rows would share cache sets
                    row = row if row is None else row.copy()
                if row is None:
                    with contextlib.suppress(ValueError, Warning):
                        row = np.fromstring(rest, dtype=np.intp, sep=" ")
            if row is None or row.size != count or not row.max() < count:  # unsigned, so >= 0
                tokens = rest.split()
                if len(tokens) != count:
                    raise FlagFileError(lineno, len(head) + 2,
                                        f"connection r{i} lists {len(tokens)} images, expected {count}")
                row = []
                column = len(head) + 2
                for tok in tokens:
                    column = raw.index(tok, column - 1) + 1
                    row.append(_int_field(tok, lineno, column, "flag image"))
                    column += len(tok)
            connections.append(row)

    extra = next(pending, None)
    if extra is not None:
        raise FlagFileError(extra[0], 1, f"trailing content {extra[1].strip()!r}")
    return validate(rank, count, connections)


def _digit_table(top: int) -> np.ndarray:
    """Entry v <= top: v's digits and a space behind zero bytes, 8 or 16 bytes wide."""
    table = np.zeros((top + 1, 8 if top < 10 ** 7 else 16), dtype=np.uint8)
    table[:, -1] = ord(" ")
    for k in range(len(str(top))):
        step = 10 ** k
        cycle = np.repeat(np.frombuffer(b"0123456789", np.uint8)[:top // step + 1], step)
        low = step if k else 0  # no leading zeros, but 0 keeps its digit
        table[low:, -2 - k] = np.tile(cycle, top // cycle.size + 1)[low:top + 1]
    return table.view(f"V{table.shape[1]}")[:, 0]


# the largest _digit_table built so far; growing it rebinds the list item,
# so the module's own attributes stay as they were
_kept = [_digit_table(0)]


def _digits(top: int) -> np.ndarray:
    """_digit_table(top), sliced from the kept table.  Generated maps stay
    below the 10**7-flag cap, so it is 8 bytes a value and at most 80 MB; a
    parsed file of more flags keeps a 16-byte table of its size."""
    if _kept[0].size <= top:
        _kept[0] = _digit_table(top)
    return _kept[0][:top + 1]


def _row(values, table=None) -> str:
    """Non-negative integers joined by single spaces, via a _digit_table."""
    table = _digits(int(values.max(initial=0))) if table is None else table
    return table[values].tobytes().translate(None, b"\0")[:-1].decode("ascii")


def write_flag_text(system: FlagSystem) -> str:
    """Canonical text form; parse(write(M)) round-trips byte-for-byte."""
    table = _digits(system.flag_count - 1)
    rows = "".join(f"r{i}: {_row(conn, table)}\n" for i, conn in enumerate(system.connections))
    return f"rank {system.rank}\nflags {system.flag_count}\n{rows}"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FlagFileError(None, None, f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FlagFileError(None, None, f"{path} is not UTF-8 text: {exc}") from None


def read_flag_file(path: str) -> FlagSystem:
    return parse_flag_text(_read_text(path))


def _write_text(path: str, text: str, mkdir: bool = False) -> None:
    try:
        if mkdir:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FlagFileError(None, None, f"cannot write {path}: {exc.strerror}") from None


def write_flag_file(system: FlagSystem, path: str) -> None:
    _write_text(path, write_flag_text(system))
