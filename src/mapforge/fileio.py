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
those of str.splitlines.  Connection rows are decoded on the calling
thread by np.fromstring, with a token loop for rows it cannot read.
"""

from __future__ import annotations

import contextlib
import os
import warnings

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


def parse_flag_text(text: str, *, _first=None) -> FlagSystem:
    """Parse and validate a flag file; raises FlagFileError on bad syntax.
    _first, private, is validate's connectivity pass (see validate)."""
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
    return validate(rank, count, connections, _first=_first)


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
