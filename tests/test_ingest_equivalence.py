"""Count-table CSV ingest against the per-row path it replaced.

The reference below is the earlier ``load_dataset`` / ``_read_rows`` code,
kept verbatim apart from names, from its line numbers, which now count
physical lines (``reader.line_num``) as ``load_dataset``'s do, not CSV
records, and from what ``load_dataset`` has gained since: it reads a leading
byte-order mark as nothing, and it raises undecodable text and the csv
module's own errors as ``NotUtf8Error`` and ``DatasetError``.  It built and
checked one ``FeatureVector`` per row and let ``LabeledDataset(rows)`` fold
each into its cell.  The current ``load_dataset``, which counts a plain file
straight from its text and every other one through the csv module, must give
the same counts, or raise the same error type with the same ``path:line:``
message.
"""

import csv
import tracemalloc
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sourcescope import pipeline
from sourcescope.errors import (
    DatasetError,
    EmptyDataError,
    EmptyFileError,
    NonBinaryCellError,
    NotUtf8Error,
)
from sourcescope.features import FeatureVector
from sourcescope.model import CELL_INDEX, LabeledDataset
from sourcescope.pipeline import DATASET_COLUMNS, _validate_header, load_dataset


def reference_load_dataset(path: str | Path) -> LabeledDataset:
    """Read the labeled CSV (header: label,padlock,contact,telephone,about,terms[,url]).

    The ``url`` column is validated as a column but its values are not kept.
    """
    path = Path(path)
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyFileError(f"{path}: file is empty") from None
            header = [cell.strip() for cell in header]
            _validate_header(header, path)
            try:
                return LabeledDataset(_reference_read_rows(reader, len(header), path))
            except EmptyDataError:
                raise EmptyFileError(f"{path}: no data rows") from None
        except UnicodeDecodeError as exc:
            raise NotUtf8Error(
                f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None
        except csv.Error as exc:
            raise DatasetError(f"{path}:{reader.line_num}: {exc}") from None


def _reference_read_rows(reader, width: int, path: Path) -> Iterator[tuple[FeatureVector, int]]:
    """Validated (features, label) pairs of the CSV body, one at a time."""
    for row in reader:
        line_no = reader.line_num
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise NonBinaryCellError(
                f"{path}:{line_no}: expected {width} cells, found {len(row)}")
        cells = [cell.strip() for cell in row[:len(DATASET_COLUMNS)]]
        for name, cell in zip(DATASET_COLUMNS, cells):
            if cell not in ("0", "1"):
                raise NonBinaryCellError(
                    f"{path}:{line_no}: column {name!r} has non-binary value {cell!r}")
        label, *bits = map(int, cells)
        yield FeatureVector(**dict(zip(DATASET_COLUMNS[1:], bits))), label


def outcome(load, path):
    """The loaded counts, or the type and message of the error raised."""
    try:
        return load(path).counts
    except Exception as exc:
        return type(exc), str(exc)


HEADER = ",".join(DATASET_COLUMNS)
# CSV source of one binary cell: exact, padded with whitespace, quoted, or
# quoted around padding or a line break
BINARY = ["0", "1", " 0", "1 ", "\t1", " 0 ", '"1"', '" 0"', '"1 "', '"0\n"']
BAD_CELL = ["2", "x", "", " ", "01", "1.0", "-1", '"1,0"', "０"]
BLANK = ["", " ", "\t", "  \t ", ",,,,,", " , ,", '""', '" "']
# lines that make a plain file one only the csv path can read: blank but not
# empty, short or wide, NUL, a byte-order mark or padding in a cell, a quoted
# url that holds a line break or a carriage return that ends a row, url cells
# at and past the csv module's field limit (131,072)
ODD_LINES = [
    " ", "\t", "  \t ", ",,,,,",
    "1,0,1,0,1,0", "1,0,1,0,1,0,http://a.test/?q=1,2", "1,0,1,0,1,0,http://a.test/,",
    "1,0\0,1,0,1,0", "1,0,1,0,1,0,http://a\0.test/", "\ufeff1,0,1,0,1,0",
    " 1,0,1,0,1,0", "1,0,1,0,1,0 ",
    '1,0,1,0,1,0,"http://a.test/\n0,0,0,0,0,0,b"', "1,0,1,0,1,0,http://a.test/\r0",
    "1,0,1,0,1,0," + "u" * 131_072, "1,0,1,0,1,0," + "u" * 131_073,
]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]


def _rows(binary: list[str], bad_cells: list[str]):
    """Rows of six cells from ``binary``, and rows with one bad cell or the wrong width."""
    row = st.lists(st.sampled_from(binary), min_size=6, max_size=6)
    bad_cell = st.tuples(row, st.integers(0, 5), st.sampled_from(bad_cells)).map(
        lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])
    wrong_width = st.tuples(row, st.sampled_from([-2, -1, 1, 2])).map(
        lambda t: t[0][:6 + t[1]] if t[1] < 0 else t[0] + ["0"] * t[1])
    return row, st.one_of(bad_cell, wrong_width)


# a CSV row as its cells, or a line as its source text
_binary_row, _bad_row = _rows(BINARY, BAD_CELL)
_plain_row, _plain_bad_row = _rows(["0", "1"], [cell for cell in BAD_CELL if '"' not in cell])
_line = st.one_of(_binary_row, st.sampled_from(BLANK))
_plain_line = st.one_of(_plain_row, st.just(""))
_plain_odd_line = st.one_of(_plain_bad_row, st.sampled_from(ODD_LINES))


def _url(i: int, style: int, plain: bool) -> str:
    last = f"http://é{i}.test/ü" if plain else f'"http://site{i}.test/?a=1,2"'
    return [f"http://site{i}.test/", "", f" http://s{i}.test ", last][style]


@st.composite
def csv_files(draw) -> bytes:
    """Bytes of a labeled CSV.

    Half are plain, LF lines of exact cells with no quote, which
    ``load_dataset`` counts from the text; the rest spell cells in every way
    the csv module reads, CRLF included.  Half of each hold one bad or odd
    line at a random place; some start with a byte-order mark, and some hold
    a byte sequence that is not UTF-8 at the start of a random line.
    """
    with_url = draw(st.booleans())
    plain = draw(st.booleans())
    newline = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    body = draw(st.lists(_plain_line, min_size=1, max_size=30) if plain else st.lists(_line, max_size=30))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(_plain_odd_line if plain else _bad_row))
    lines = [HEADER + (",url" if with_url else "")]
    for i, line in enumerate(body):
        if isinstance(line, list):
            line = ",".join(line + [_url(i, draw(st.integers(0, 3)), plain)] * with_url)
        lines.append(line)
    lines = [line.encode("utf-8") for line in lines]
    if draw(st.integers(0, 7)) == 5:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from(NOT_UTF8)) + lines[at]
    bom = b"\xef\xbb\xbf" if draw(st.integers(0, 3)) == 2 else b""
    return bom + newline.encode().join(lines) + draw(st.sampled_from([b"", newline.encode()]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
def test_generated_files_match_reference(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert outcome(load_dataset, path) == outcome(reference_load_dataset, path)


@pytest.mark.parametrize("body", [
    "1,0,0,0,0,0\n 0 ,1,\"1\",1,\" 1\",1\n\n   \n0,0,0,0,0,0\n",
    "1,0,0,0,0,0\r\n0,1,1,1,1\r\n",
    "1,0,0,0,0,0\n0,1,1,1,1,1,0\n",
    "1,0,0,0,0,0\n0,1,2,1,1,1\n",
    "1,0,0,0,0,0\n0,1,,1,1,1\n",
    "\n \n,,,,,\n",
])
def test_fixed_files_match_reference(tmp_path, body):
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "\n" + body, encoding="utf-8", newline="")
    assert outcome(load_dataset, path) == outcome(reference_load_dataset, path)


def test_unique_urls_load(tmp_path):
    # every row is distinct by its url; the table still has 64 cells
    path = tmp_path / "data.csv"
    rows = [f"{i % 2},{i % 3 % 2},0,1,{i % 5 % 2},1,http://site{i}.test/" for i in range(500)]
    path.write_text("\n".join([HEADER + ",url", *rows]) + "\n", encoding="utf-8")
    data = load_dataset(path)
    assert len(data.counts) == 64 and len(data) == 500
    assert outcome(load_dataset, path) == outcome(reference_load_dataset, path)


# lines that change how a plain file is read, to be placed across block boundaries:
# a bad row, a quote, a carriage return, and a multi-byte character in a good row
BOUNDARY_LINES = ["1,0,2,0,1,0", '0,1,1,0,0,1,"u\n1,0,1,0,1,0,v"', "0,1,1,0,0,1,u\r0", "0,1,1,0,0,1,é"]


@pytest.mark.parametrize("with_url", [False, True])
@pytest.mark.parametrize("odd", [None, *BOUNDARY_LINES],
                         ids=["none", "bad-row", "quote", "carriage-return", "multi-byte"])
def test_block_boundaries_match_reference(tmp_path, monkeypatch, with_url, odd):
    rows = ["1,0,1,0,1,0", "0,1,1,0,0,1", "", "0,0,0,0,0,0", "1,1,1,1,1,1"]
    if with_url:
        rows = [row and f"{row},http://ü{i}.test/" for i, row in enumerate(rows)]
    if odd is not None:
        rows.insert(2, odd)
    path = tmp_path / "data.csv"
    for end in ("", "\n"):
        path.write_text("\n".join([HEADER + ",url" * with_url, *rows]) + end, encoding="utf-8", newline="")
        expected = outcome(reference_load_dataset, path)
        for block in range(1, 30):
            monkeypatch.setattr(pipeline, "_BLOCK_CHARS", block)
            assert outcome(load_dataset, path) == expected, (block, end)


@pytest.mark.parametrize("undecodable_first", [False, True])
def test_undecodable_byte_before_or_after_a_bad_row(tmp_path, undecodable_first):
    # the two are 24 KB apart, farther than one read of the csv path
    body = [b"1,0,1,0,1,0"] * 2_000
    bad, undecodable = (1_998, 1) if undecodable_first else (1, 1_998)
    body[bad] = b"1,0,2,0,1,0"
    body[undecodable] = b"\xff" + body[undecodable]
    path = tmp_path / "data.csv"
    path.write_bytes(b"\n".join([HEADER.encode(), *body]) + b"\n")
    expected = outcome(reference_load_dataset, path)
    assert expected[0] is (NotUtf8Error if undecodable_first else NonBinaryCellError)
    assert outcome(load_dataset, path) == expected


# 8 is below the longest header cell, "telephone"; 40 below the header's length
@pytest.mark.parametrize("limit", [8, 40, 60])
@pytest.mark.parametrize("past_limit", [-1, 0, 1])
def test_lowered_field_limit_matches_reference(tmp_path, limit, past_limit):
    path = tmp_path / "data.csv"
    url = "u" * (limit + past_limit)
    path.write_text(f"{HEADER},url\n1,0,1,0,1,0,{url}\n0,0,0,0,0,0,\n", encoding="utf-8")
    old = csv.field_size_limit(limit)
    try:
        assert outcome(load_dataset, path) == outcome(reference_load_dataset, path)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("with_url", [False, True])
def test_plain_files_are_counted_without_the_csv_module(tmp_path, monkeypatch, with_url):
    # a BOM, a padded header in any case, empty lines and no final newline keep a file plain
    spellings = [",".join(key) for key in CELL_INDEX]
    rows = [spellings[i * 7 % 64] + f",http://site{i}.test/" * with_url for i in range(5_000)]
    rows[10:10] = ["", ""]
    path = tmp_path / "data.csv"
    header = " LABEL,Padlock ,contact,telephone,about,terms" + ", Url" * with_url
    path.write_text("\ufeff" + "\n".join([header, *rows]), encoding="utf-8", newline="")
    expected = reference_load_dataset(path).counts

    def refuse(*args, **kwargs):
        raise AssertionError("a plain file went through csv.reader")

    monkeypatch.setattr(pipeline.csv, "reader", refuse)
    assert load_dataset(path).counts == expected


def test_memory_stays_flat_at_a_million_rows(tmp_path):
    spellings = "".join(",".join(key) + "\n" for key in CELL_INDEX)
    path = tmp_path / "data.csv"
    with path.open("w", encoding="utf-8", newline="") as out:
        out.write(HEADER + "\n")
        for _ in range(1_000_000 // 64):
            out.write(spellings)
    tracemalloc.start()
    try:
        data = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.counts == (1_000_000 // 64,) * 64
    assert peak < 1 << 20, f"peak {peak} bytes"
