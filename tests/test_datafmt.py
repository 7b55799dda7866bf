"""The line-oriented text container for snapshot datasets."""

import numpy as np
import pytest

from covstruct.datafmt import (
    DataFormatError,
    dumps_dataset,
    loads_dataset,
    read_dataset,
    write_dataset,
)

from conftest import random_dataset


GOOD_TEXT = """\
covstruct-data v1
# a comment line
N 2
K 3

cut 1.0 0.0 0.5 -0.25
steering 0.7071067811865476 0.0 0.7071067811865476 0.0
secondary-row 1.0 2.0 3.0 4.0 5.0 6.0   # trailing comment
secondary-row -1.0 -2.0 -3.0 -4.0 -5.0 -6.0
"""


def bits(values):
    """The float64 bit patterns of a complex array's real and imaginary parts."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def assert_same_bits(got, want):
    np.testing.assert_array_equal(bits(got), bits(want))


def test_round_trip_is_bit_exact(rng):
    ds = random_dataset(rng, 5, 9)
    back = loads_dataset(dumps_dataset(ds))
    assert_same_bits(back.secondary, ds.secondary)
    assert_same_bits(back.cut, ds.cut)
    assert_same_bits(back.steering, ds.steering)


def test_round_trip_keeps_signed_zeros(rng):
    # -0.0 in either part, beside a part of either sign, reads back as -0.0.
    ds = random_dataset(rng, 2, 3)
    zeros = np.array([complex(-0.0, 1.0), complex(-0.0, -0.0), complex(0.0, -0.0)])
    secondary = ds.secondary.copy()
    secondary[0] = zeros
    cut = np.array([complex(-0.0, 0.0), complex(2.5, -0.0)])
    signed = type(ds)(secondary=secondary, cut=cut, steering=ds.steering)
    back = loads_dataset(dumps_dataset(signed))
    assert_same_bits(back.secondary, secondary)
    assert_same_bits(back.cut, cut)
    assert str(back.secondary[0, 0]) == "(-0+1j)"


def test_round_trip_without_cut(rng):
    ds = random_dataset(rng, 4, 7, with_cut=False)
    back = loads_dataset(dumps_dataset(ds))
    assert_same_bits(back.secondary, ds.secondary)
    assert back.cut is None and back.steering is None


def test_round_trip_survives_awkward_floats(rng):
    ds = random_dataset(rng, 3, 5)
    scaled = type(ds)(
        secondary=ds.secondary * (1.0 / 3.0) * 1e-17,
        cut=ds.cut * np.pi,
        steering=ds.steering,
    )
    back = loads_dataset(dumps_dataset(scaled))
    assert_same_bits(back.secondary, scaled.secondary)
    assert_same_bits(back.cut, scaled.cut)


def test_file_round_trip(tmp_path, rng):
    ds = random_dataset(rng, 3, 6)
    path = tmp_path / "snapshots.txt"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert_same_bits(back.secondary, ds.secondary)
    # Writing the re-read dataset reproduces the file byte for byte.
    again = tmp_path / "again.txt"
    write_dataset(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_comments_and_blank_lines_ignored():
    ds = loads_dataset(GOOD_TEXT)
    assert ds.n == 2 and ds.k == 3
    assert ds.cut[1] == 0.5 - 0.25j
    assert ds.secondary[1, 2] == -5.0 - 6.0j


def expect_error(text, *needles):
    with pytest.raises(DataFormatError) as info:
        loads_dataset(text)
    for needle in needles:
        assert needle in str(info.value), (needle, str(info.value))


def test_missing_header():
    expect_error("N 2\nK 3\n", ":1:", "expected header")
    expect_error("", "empty file")
    expect_error("covstruct-data v2\n", ":1:", "expected header")


def test_unknown_directive_named_with_line():
    text = "covstruct-data v1\nN 2\nK 3\nvelocity 1 2\n"
    expect_error(text, ":4:", "unknown directive", "velocity")


def test_data_before_sizes():
    expect_error("covstruct-data v1\ncut 1 0 2 0\n", ":2:", "before N and K")


def test_bad_integer_and_bad_float():
    expect_error("covstruct-data v1\nN two\n", ":2:", "bad integer")
    expect_error("covstruct-data v1\nN 0\n", ":2:", "positive")
    text = "covstruct-data v1\nN 2\nK 3\ncut 1 0 x 0\n"
    expect_error(text, ":4:", "bad float")


def test_wrong_value_count():
    text = "covstruct-data v1\nN 2\nK 3\ncut 1 0 2\n"
    expect_error(text, ":4:", "4 floats", "got 3")
    rows = "covstruct-data v1\nN 2\nK 3\nsecondary-row 1 0 2 0\n"
    expect_error(rows, ":4:", "6 floats")


def test_non_finite_rejected():
    text = "covstruct-data v1\nN 2\nK 3\ncut 1 0 inf 0\n"
    expect_error(text, ":4:", "non-finite")


def test_duplicate_vectors_rejected():
    text = "covstruct-data v1\nN 2\nK 3\ncut 1 0 2 0\ncut 1 0 2 0\n"
    expect_error(text, ":5:", "duplicate cut")
    # A repeated size line is refused too, even with the same value; the
    # last one used to win silently.
    expect_error("covstruct-data v1\nN 2\nK 9\nN 2\nK 3\n", ":4:", "duplicate N")
    expect_error("covstruct-data v1\nN 2\nK 9\nK 3\n", ":4:", "duplicate K")


def test_secondary_row_count_enforced():
    base = "covstruct-data v1\nN 2\nK 3\n"
    row = "secondary-row 1 0 2 0 3 0\n"
    expect_error(base + row, "expected N=2 secondary-row lines, found 1")
    expect_error(base + row * 3, ":6:", "more than N=2")


def test_dataset_validation_funnels_to_format_error():
    # K <= N is a dataset-level rule; the parser reports it as a format error.
    base = "covstruct-data v1\nN 3\nK 2\n"
    rows = "".join(f"secondary-row {i} 0 {i} 0\n" for i in range(3))
    expect_error(base + rows, "K > N")


def test_read_names_the_file(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("covstruct-data v1\nN 2\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="broken.txt"):
        read_dataset(path)
