import numpy as np
import pytest

from cases import relabeled
from mapforge import (
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
