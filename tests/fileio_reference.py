"""Token-loop reference for the flag-file parser.

This is parse_flag_text as it was before connection rows were read
with numpy.  The body is kept as it was so that the equivalence tests
can require the array parser to return the same system, or raise the
same error at the same line and column with the same message.
"""

from __future__ import annotations

from mapforge.errors import FlagFileError
from mapforge.flagsys import FlagSystem, validate


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def _int_field(token: str, lineno: int, column: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FlagFileError(lineno, column, f"expected integer {what}, got {token!r}") from None


def parse_flag_text(text: str) -> FlagSystem:
    """Parse and validate a flag file; raises FlagFileError on bad syntax."""
    lines = list(_significant_lines(text))
    pos = 0

    def take(expect: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise FlagFileError(last, None, f"unexpected end of file, expected {expect}")
        item = lines[pos]
        pos += 1
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
    for i in range(rank + 1):
        lineno, raw = take(f"'r{i}: ...'")
        head, sep, rest = raw.partition(":")
        if not sep or head.strip() != f"r{i}":
            raise FlagFileError(lineno, 1,
                                f"expected connection line 'r{i}: ...', got {raw.strip()!r}")
        tokens = rest.split()
        if len(tokens) != count:
            raise FlagFileError(lineno, len(head) + 2,
                                f"connection r{i} lists {len(tokens)} images, expected {count}")
        try:
            row = list(map(int, tokens))
        except ValueError:
            # Convert token by token to report where the bad one sits.
            row = []
            column = len(head) + 2
            for tok in tokens:
                column = raw.index(tok, column - 1) + 1
                row.append(_int_field(tok, lineno, column, "flag image"))
                column += len(tok)
        connections.append(row)

    if pos < len(lines):
        lineno, raw = lines[pos]
        raise FlagFileError(lineno, 1, f"trailing content {raw.strip()!r}")
    return validate(rank, count, connections)
