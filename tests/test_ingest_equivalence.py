"""Count-table CSV ingest against the per-row path it replaced.

The reference below is the earlier ``load_dataset`` / ``_read_rows`` code,
kept verbatim apart from names and from its line numbers, which now count
physical lines (``reader.line_num``) as ``load_dataset``'s do, not CSV
records: it built and checked one ``FeatureVector`` per row and let
``LabeledDataset(rows)`` fold each into its cell.  The current
``load_dataset`` must give the same counts, or raise the same error type
with the same ``path:line:`` message.
"""

import csv
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sourcescope.errors import EmptyDataError, EmptyFileError, NonBinaryCellError
from sourcescope.features import FeatureVector
from sourcescope.model import LabeledDataset
from sourcescope.pipeline import DATASET_COLUMNS, _validate_header, load_dataset


def reference_load_dataset(path: str | Path) -> LabeledDataset:
    """Read the labeled CSV (header: label,padlock,contact,telephone,about,terms[,url]).

    The ``url`` column is validated as a column but its values are not kept.
    """
    path = Path(path)
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
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

_binary_row = st.lists(st.sampled_from(BINARY), min_size=6, max_size=6)
_bad_cell_row = st.tuples(_binary_row, st.integers(0, 5), st.sampled_from(BAD_CELL)).map(
    lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])
_wrong_width_row = st.tuples(_binary_row, st.sampled_from([-2, -1, 1, 2])).map(
    lambda t: t[0][:6 + t[1]] if t[1] < 0 else t[0] + ["0"] * t[1])
# a CSV row as its cells, or a blank line as its source text
_line = st.one_of(_binary_row, st.sampled_from(BLANK))
_bad_row = st.one_of(_bad_cell_row, _wrong_width_row)


def _url(i: int, style: int) -> str:
    return [f"http://site{i}.test/", f'"http://site{i}.test/?a=1,2"', "", f" http://s{i}.test "][style]


@st.composite
def csv_files(draw):
    """Source text of a labeled CSV; half of them hold one bad row at a random line."""
    with_url = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    body = draw(st.lists(_line, max_size=30))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(_bad_row))
    lines = [HEADER + (",url" if with_url else "")]
    for i, line in enumerate(body):
        if isinstance(line, list):
            line = ",".join(line + [_url(i, draw(st.integers(0, 3)))] * with_url)
        lines.append(line)
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
def test_generated_files_match_reference(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
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
