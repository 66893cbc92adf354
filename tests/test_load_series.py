"""The whole-file series reader against the row-by-row reader it replaced."""

import csv
import gzip
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavekernel import InvalidInputError
from wavekernel.cli import load_series, main


def reference_load_series(path) -> np.ndarray:
    """The row-by-row reader, kept as the oracle for values and errors."""
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"input file not found: {p}")
    values = []
    with p.open(newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or not row[0].strip():
                continue
            token = row[0].strip()
            try:
                v = float(token)
            except ValueError:
                if row_no == 1 and not values:
                    continue  # header row
                raise InvalidInputError(
                    f"{p}: cannot parse row {row_no}: {token!r}"
                ) from None
            if not np.isfinite(v):
                raise InvalidInputError(f"{p}: non-finite value at row {row_no}")
            values.append(v)
    if not values:
        raise InvalidInputError(f"{p}: no numeric data")
    return np.array(values)


def outcome(reader, path):
    """Values as bytes (so -0.0 and 0.0 differ), or the error class and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = reader(path)
    except Exception as exc:  # the error itself is what is compared
        return type(exc), str(exc)
    return values.dtype, values.shape, values.tobytes()


doubles = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(doubles.map(repr), doubles.map(lambda x: f"{x:.17g}"),
                    st.sampled_from(["1e308", "-1e308", "5e-324", "-0.0",
                                     "2.2250738585072014e-308"]))
specials = st.sampled_from(["value", "t", "", " ", "\t", "nan", "-inf", "inf",
                            "1e400", "1_000", "١٢", "１", "0x10"])
tokens = st.one_of(numbers, numbers, numbers, specials)
first_fields = st.one_of(tokens, tokens.map(lambda t: f'"{t}"'),
                         tokens.map(lambda t: f" {t}\t"))
extras = st.lists(st.one_of(tokens, st.just('"a,b"'), st.just('"x\ny"')), max_size=2)
lines = st.tuples(first_fields, extras).map(lambda fe: ",".join([fe[0], *fe[1]]))
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    rows = draw(st.lists(lines, max_size=12))
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from(["value", "t", '"value"', "value,t"])))
    text = "".join(row + draw(line_ends) for row in rows)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@settings(max_examples=400, deadline=None)
@given(csv_files())
@example("0.1\n-2.5e-07\n")                  # repr doubles
@example("5e-324\n2.2250738585072014e-308\n")  # subnormals
@example("1e308\n-1e308\n")
@example("value\n1\n2\n")
@example("t\r\n1\r\n")
@example("1\nvalue\n2\n")                    # header in row 2
@example("\nvalue\n1\n")                     # row 1 blank, header in row 2
@example("1\n\n2\n")                         # empty row
@example("1\n \n2\n")                        # whitespace-only row
@example("1\r\n2\r\n")
@example("1\r2\r3")
@example("1,2\n3,\n4,a,b\n")                 # trailing and extra columns
@example('"1.5"\n"2"\n')                     # quoted numbers
@example('"value"\n"1\n"\n')                 # quoted field across lines
@example(",5\n1\n")
@example("1\nnan\n")
@example("1\ninf\n")
@example("1\n1e400\n")
@example("1\n1_000\n")
@example("1_000\n2\n")                       # row 1 is read by float()
@example("1\n١\n")                      # Unicode digit
@example(" 1 \n\t2\t\n")
@example("")
@example("value\n")
@example("value\n\n\r\n")
@example('value,"a\n1,"\n2\n3\n')            # quoted row 1 over two lines
def test_matches_row_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        with path.open("w", newline="") as fh:
            fh.write(text)
        assert outcome(load_series, path) == outcome(reference_load_series, path)


@pytest.mark.parametrize("text", ["", "\n", "value\n", "value\n\n\r\n", "\r\n\r\n"])
def test_no_data_rejected_without_warning(tmp_path, text):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="no numeric data"):
            load_series(path)


# the bad byte in row 1's read, or past it, inside the whole-file parse
@pytest.mark.parametrize("rows", [1, 4096])
def test_non_utf8_input_is_runtime_error(tmp_path, capsys, rows):
    path = tmp_path / "x.csv"
    path.write_bytes(b"value\n" + b"1.0\n" * rows + b"\xff\xfe\n")
    code = main(["predict", "--input", str(path), "--p", "2", "--h", "1",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "text" in capsys.readouterr().err


def test_directory_input_is_runtime_error(tmp_path, capsys):
    code = main(["predict", "--input", str(tmp_path), "--p", "2", "--h", "1",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "cannot read input file" in capsys.readouterr().err


# a field over csv's 131072-character limit, in row 1 or in a later row
# whose failed whole-file parse sends the file to the row reader
@pytest.mark.parametrize("text", ["1" * 200_000 + "\n1\n2\n",
                                  "value\n1\n2\n" + "x" * 200_000 + "\n3\n"],
                         ids=["row1", "later_row"])
def test_overlong_field_is_runtime_error(tmp_path, capsys, text):
    path = tmp_path / "x.csv"
    path.write_text(text)
    code = main(["predict", "--input", str(path), "--p", "2", "--h", "1",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert f"{path}: cannot parse: field larger than field limit" in capsys.readouterr().err


# a byte-order mark is not part of the first value, nor of a header
@pytest.mark.parametrize("text, want", [
    ("\ufeff1.5\n2.5\n3.5\n4.5\n", [1.5, 2.5, 3.5, 4.5]),
    ("\ufeff1.5\n1_000\n", [1.5, 1000.0]),  # via the row reader
    ("\ufeffvalue\n1.5\n2.5\n", [1.5, 2.5]),
])
def test_byte_order_mark_skipped(tmp_path, text, want):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode("utf-8"))
    np.testing.assert_array_equal(load_series(path), want)


# numpy's loadtxt would decompress a path with these suffixes
@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_names_read_as_plain_text(tmp_path, suffix):
    text = "\ufeffvalue\r\n1.5\r\n-0.0\r\n2.5e-300\r\n"
    plain, named = tmp_path / "x.csv", tmp_path / f"x.csv{suffix}"
    for path in (plain, named):
        path.write_bytes(text.encode("utf-8"))
    assert outcome(load_series, named) == outcome(load_series, plain)
    np.testing.assert_array_equal(load_series(named), [1.5, -0.0, 2.5e-300])


def test_gzip_bytes_are_runtime_error(tmp_path, capsys):
    path = tmp_path / "x.csv.gz"
    path.write_bytes(gzip.compress(b"value\n1.0\n2.0\n3.0\n4.0\n"))
    code = main(["predict", "--input", str(path), "--p", "2", "--h", "1",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "text" in capsys.readouterr().err
