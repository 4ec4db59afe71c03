import itertools
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mapforge.fileio as fileio
from cases import relabeled
from fileio_reference import parse_flag_text as reference_parse
from mapforge import (
    cube_maniplex,
    grid_map,
    i_double,
    invoke_generator,
    is_isomorphic,
    medial,
    parse_flag_text,
    platonic,
    polygon_gluing,
    read_flag_file,
    tri_torus,
    validate,
    write_flag_file,
    write_flag_text,
)
from mapforge.errors import FlagFileError, ValidationError


def test_round_trip_is_bit_exact():
    for system in (platonic("cube"), polygon_gluing("abAB"), tri_torus(2, 3)):
        text = write_flag_text(system)
        again = parse_flag_text(text)
        assert again == system
        assert write_flag_text(again) == text


def test_round_trip_through_files(tmp_path):
    path = tmp_path / "cube.flags"
    cube = platonic("cube")
    write_flag_file(cube, str(path))
    assert read_flag_file(str(path)) == cube


def test_canonical_layout():
    system = validate(2, 4, ([1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1]))
    assert write_flag_text(system) == (
        "rank 2\nflags 4\nr0: 1 0 3 2\nr1: 3 2 1 0\nr2: 2 3 0 1\n")


def test_comments_and_blank_lines_ignored():
    text = (
        "# a one-vertex map\n"
        "\n"
        "rank 2\n"
        "  \n"
        "flags 4\n"
        "# connections follow\n"
        "r0: 1 0 3 2\n"
        "r1: 3 2 1 0\n"
        "r2: 2 3 0 1\n")
    assert parse_flag_text(text).flag_count == 4


def test_missing_rank_line():
    with pytest.raises(FlagFileError) as info:
        parse_flag_text("flags 4\nr0: 1 0 3 2\n")
    assert info.value.line == 1


def test_bad_rank_token():
    with pytest.raises(FlagFileError):
        parse_flag_text("rank two\nflags 4\n")


def test_missing_flags_line():
    with pytest.raises(FlagFileError) as info:
        parse_flag_text("rank 2\nr0: 1 0 3 2\n")
    assert info.value.line == 2


def test_wrong_connection_header():
    text = "rank 2\nflags 4\nr1: 1 0 3 2\nr0: 3 2 1 0\nr2: 2 3 0 1\n"
    with pytest.raises(FlagFileError) as info:
        parse_flag_text(text)
    assert info.value.line == 3


def test_wrong_image_count():
    text = "rank 2\nflags 4\nr0: 1 0 3\nr1: 3 2 1 0\nr2: 2 3 0 1\n"
    with pytest.raises(FlagFileError) as info:
        parse_flag_text(text)
    assert info.value.line == 3
    assert info.value.column is not None


def test_non_integer_image():
    text = "rank 2\nflags 4\nr0: 1 0 3 x\nr1: 3 2 1 0\nr2: 2 3 0 1\n"
    with pytest.raises(FlagFileError) as info:
        parse_flag_text(text)
    assert info.value.line == 3


def test_bad_token_late_in_long_row_reports_its_column():
    system = tri_torus(6, 6)
    lines = write_flag_text(system).splitlines()
    tokens = lines[3].split()
    tokens[-3] = "1O"
    lines[3] = "  " + "  ".join(tokens)
    with pytest.raises(FlagFileError) as info:
        parse_flag_text("\n".join(lines) + "\n")
    assert info.value.line == 4
    assert info.value.column == lines[3].index(" 1O ") + 2
    assert "'1O'" in str(info.value)


def test_missing_connection_line():
    with pytest.raises(FlagFileError):
        parse_flag_text("rank 2\nflags 4\nr0: 1 0 3 2\nr1: 3 2 1 0\n")


def test_trailing_content_rejected():
    text = ("rank 2\nflags 4\nr0: 1 0 3 2\nr1: 3 2 1 0\nr2: 2 3 0 1\n"
            "r3: 0 1 2 3\n")
    with pytest.raises(FlagFileError) as info:
        parse_flag_text(text)
    assert info.value.line == 6


def test_grammatical_but_invalid_raises_validation_error():
    text = "rank 2\nflags 4\nr0: 1 0 3 2\nr1: 1 0 3 2\nr2: 0 1 2 3\n"
    with pytest.raises(ValidationError):
        parse_flag_text(text)


def test_error_message_carries_location():
    try:
        parse_flag_text("rank 2\nflags 4\nr0: 1 0 3\n")
    except FlagFileError as exc:
        assert "line 3" in str(exc)
    else:
        pytest.fail("expected FlagFileError")


def test_random_round_trips():
    rng = np.random.default_rng(3)
    base = platonic("octahedron")
    for _ in range(8):
        shuffled = relabeled(base, rng.permutation(base.flag_count))
        assert parse_flag_text(write_flag_text(shuffled)) == shuffled


# --- the array parser against the token-loop reference ------------------


def _outcome(parse, text):
    """The parsed system, or the error's type, line, column and message."""
    try:
        return parse(text)
    except Exception as exc:  # any difference in what is raised must show
        return (type(exc), getattr(exc, "line", None), getattr(exc, "column", None),
                str(exc))


def assert_parses_like_reference(text):
    assert _outcome(parse_flag_text, text) == _outcome(reference_parse, text)


EIGHT = "rank 2\nflags 8\nr0: 1 0 3 2 5 4 7 6\nr1: 3 2 1 0 7 6 5 4\nr2: 4 5 6 7 0 1 2 3\n"


@pytest.mark.parametrize("r0", [
    "1 0 3 2 5 4 7 6",                           # canonical
    "+1 0 3 2 5 4 7 6",                          # explicit sign
    "1 0 3 2 5 4 007 6",                         # leading zeros
    "1 0 3 2 5 4 7 06",
    "1 -0 3 2 5 4 7 6",                          # negative zero
    "1 0 3 2 5 4 1_0 6",                         # int() reads 10
    "\u0661 0 3 2 5 4 7 6",                      # Arabic-Indic one
    "1\u00a00 3 2 5 4 7 6",                      # no-break space separator
    "1\u20030 3 2 5 4 7 6",                      # em space separator
    "1\t0 3 2\x0b5 4 7 6  ",                     # ASCII whitespace
    "1 0 3 2 5 4 7 " + "6" * 24,                 # 24 digits
    "1 0 3 2 5 4 7 18446744073709551617",        # 2**64 + 1
    "1 0 3 2 5 4 7 9223372036854775808",         # 2**63
    "1 0 3 2 5 4 7 -99999999999999999999",
    "1 0 3 2 5 4 7 -1",
    "1 0 3 2 5 4 7 8",
    "1 0 3 2 5 4 7 3x",
    "1 0 3 2 5 4 7 1.0",
    "1 0 3 2 5 4 7 0x1",
    "1 0 3 2 5 4 7 1e0",
    "1 - 0 3 2 5 4 7 6",                         # numpy reads "- 0" as one image
    "+ 1 0 3 2 5 4 7 6",
    "1 0 3 2 5 4 7 6\x00",
    "1 0 3 2 5 4 7",                             # one image too few
    "1 0 3 2 5 4 7 6 5",                         # one too many
    "1 0 3 2 5 4 7 6 #",
    "",
    "   ",
])
def test_array_parser_matches_reference(r0):
    assert_parses_like_reference(EIGHT.replace("1 0 3 2 5 4 7 6", r0))


@pytest.mark.parametrize("r0", ["", " ", "\t", "0", "+0", "- 0"])
def test_array_parser_matches_reference_on_one_flag(r0):
    # numpy reads a blank row as [0], which at one flag is the right count
    assert_parses_like_reference(f"rank 1\nflags 1\nr0:{r0}\nr1: 0\n")


def _fromstring_1x(string, dtype, sep):
    """numpy before 2.0: warns on unmatched data and returns the numbers read so far."""
    tokens = string.split()
    numbers = list(itertools.takewhile(str.isdigit, tokens))
    if len(numbers) < len(tokens):
        warnings.warn("string or file could not be read to its end due to "
                      "unmatched data", DeprecationWarning, stacklevel=2)
    return np.array([int(t) for t in numbers], dtype=dtype)


def _assert_trailing_junk_fails(monkeypatch, count):
    swap = " ".join(str(f ^ 1) for f in range(count))
    text = f"rank 1\nflags {count}\nr0: {swap} x\nr1: {swap}\n"
    for patch in (False, True):
        if patch:
            monkeypatch.setattr(fileio.np, "fromstring", _fromstring_1x)
        with pytest.raises(FlagFileError) as info:
            parse_flag_text(text)
        assert (info.value.line, info.value.column) == (3, 4)
        assert f"connection r0 lists {count + 1} images, expected {count}" in str(info.value)


def test_numpy_1x_trailing_junk_warning_is_a_failure(monkeypatch):
    _assert_trailing_junk_fails(monkeypatch, 2)


def test_numpy_1x_trailing_junk_warning_is_a_failure_above_the_cutover(monkeypatch):
    # the rows total 1,457,788 characters, above fileio._PARALLEL_ROWS: a
    # thread decodes r1 and declines r0, which the parser reads itself
    _assert_trailing_junk_fails(monkeypatch, 120_000)


ORACLE_SEEDS = [write_flag_text(invoke_generator(text)).encode()
                for text in ("polygon aA", "tetrahedron", "crosscap 2", "cube-maniplex 3")]

# digits, signs, separators (ASCII, no-break space, em space), line
# breaks of str.splitlines other than LF (CR, VT, 0x1c, the line
# separator), the bytes of an Arabic-Indic one, letters and punctuation
# int() or numpy accept in some other form, NUL and a byte that is not UTF-8
ORACLE_NOISE = [bytes([b]) for b in b"0123456789+- \t\x0b\r\x1c\n:#x._e\x00\xff"] + [
    "\u00a0".encode(), "\u2003".encode(), "\u2028".encode(), "\u0661".encode()]


@st.composite
def mutated_flag_texts(draw):
    data = bytearray(draw(st.sampled_from(ORACLE_SEEDS)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        noise = draw(st.sampled_from(ORACLE_NOISE))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert" or pos == len(data):
            data[pos:pos] = noise
        elif edit == "replace":
            data[pos:pos + 1] = noise
        else:
            del data[pos]
    return data.decode("utf-8", errors="surrogateescape")


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_flag_texts())
def test_array_parser_matches_reference_on_mutated_files(text):
    assert_parses_like_reference(text)


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_flag_texts())
def test_pooled_parser_matches_reference_on_mutated_files(text):
    # every connection line goes to the decoding threads, where there are two cores
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_PARALLEL_ROWS", 0)
        assert_parses_like_reference(text)


# every line break of str.splitlines but LF, which the parser finds by str.find
SEPARATORS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
@pytest.mark.parametrize("where", ["header", "between-rows", "inside-row", "end",
                                   "before-trailing-line"])
@pytest.mark.parametrize("sep", SEPARATORS, ids=ascii)
def test_line_breaks_parse_like_reference(monkeypatch, sep, where, pooled):
    if pooled:
        monkeypatch.setattr(fileio, "_PARALLEL_ROWS", 0)
    text = {
        "header": EIGHT.replace("rank 2\n", "rank 2" + sep),
        "between-rows": EIGHT.replace("6\nr1:", "6" + sep + "r1:"),
        "inside-row": EIGHT.replace("r1: 3 2 1 0", "r1: 3 2" + sep + "1 0"),
        "end": EIGHT[:-1] + sep,
        # the trailing line's number shows how the break was counted
        "before-trailing-line": EIGHT + sep + "x" + sep,
    }[where]
    assert_parses_like_reference(text)


# --- byte identity at scale ---------------------------------------------


def _joined(values):
    return " ".join(map(str, values.tolist()))


def _text_of(system):
    return f"rank {system.rank}\nflags {system.flag_count}\n" + "".join(
        f"r{i}: {_joined(conn)}\n" for i, conn in enumerate(system.connections))


@pytest.mark.parametrize("make", [
    lambda: tri_torus(60, 60),
    lambda: grid_map(2, 600, 0),
    lambda: medial(tri_torus(60, 60)),
], ids=["tri-torus-60-60", "grid-2-600-0", "medial-tri-torus-60-60"])
def test_large_maps_write_the_joined_text_and_round_trip(make):
    system = make()
    text = write_flag_text(system)
    assert text == _text_of(system)
    assert parse_flag_text(text) == system


def test_sidecar_and_mapping_rows_are_the_joined_text():
    system = tri_torus(60, 60)
    projection = i_double(system, (0,)).projection
    assert fileio._row(projection) == _joined(projection)
    perm = np.random.default_rng(5).permutation(system.flag_count)
    mapping = is_isomorphic(system, relabeled(system, perm))
    assert mapping is not None
    assert fileio._row(mapping) == _joined(mapping)


# --- the digit-table writer ----------------------------------------------


# 0, 9, 10, 99, 100, ..., 9,999,999, 10,000,000
_BOUNDARIES = [0] + [v for k in range(1, 8) for v in (10 ** k - 1, 10 ** k)]


def test_rows_at_digit_boundaries_below_ten_million():
    values = np.array(_BOUNDARIES[:-1])
    table = fileio._digit_table(int(values.max()))
    assert table.itemsize == 8
    for row in (values, values[::-1], np.repeat(values, 2)):
        assert fileio._row(row, table) == _joined(row)
    assert fileio._row(values[:3]) == "0 9 10"


def test_rows_from_ten_million_take_sixteen_bytes_a_value():
    values = np.array(_BOUNDARIES + [12_345_678])
    table = fileio._digit_table(int(values.max()))
    assert table.itemsize == 16
    assert fileio._row(values, table) == _joined(values)
    assert fileio._row(values[::-1], table) == _joined(values[::-1])


def test_writes_reuse_the_largest_digit_table(monkeypatch):
    real, built = fileio._digit_table, []
    monkeypatch.setattr(fileio, "_kept", [real(0)])
    monkeypatch.setattr(fileio, "_digit_table", lambda top: built.append(top) or real(top))
    small, big = cube_maniplex(3), tri_torus(10, 10)
    for system in (small, big, small, big):
        assert write_flag_text(system) == _text_of(system)
    assert fileio._row(np.array([5, 0, 599])) == "5 0 599"
    assert fileio._digits(9).size == 10
    assert built == [small.flag_count - 1, big.flag_count - 1]


def test_empty_row_is_empty():
    empty = np.array([], dtype=np.intp)
    assert fileio._row(empty) == ""
    assert fileio._row(empty, fileio._digit_table(7)) == ""


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 10 ** 6), max_size=300), st.integers(0, 10 ** 5))
def test_row_matches_the_joined_text(values, slack):
    row = np.array(values, dtype=np.intp)
    assert fileio._row(row) == _joined(row)
    top = int(row.max(initial=0)) + slack
    assert fileio._row(row, fileio._digit_table(top)) == _joined(row)


def test_rank_1_and_rank_4_systems_write_the_joined_text():
    ring = np.arange(24)
    rank1 = validate(1, 24, [ring ^ 1, (ring + np.where(ring % 2, 1, -1)) % 24])
    for system in (rank1, cube_maniplex(5)):
        text = write_flag_text(system)
        assert text == _text_of(system)
        assert parse_flag_text(text) == system
