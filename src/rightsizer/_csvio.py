"""Small shared CSV reader: header validation and line-numbered rows."""

from __future__ import annotations

import csv
import io
from typing import Iterator

from .errors import MalformedRowError


def _as_text(source) -> str:
    if isinstance(source, (bytes, bytearray)):
        return bytes(source).decode("utf-8-sig")
    data = source.read()
    if isinstance(data, str):
        return data
    return data.decode("utf-8-sig")


def data_reader(source, header: tuple[str, ...]):
    """Return a csv reader over a CSV byte stream, positioned after its header.

    The first row must equal `header` exactly. The reader's `line_num` is the
    physical line number of the row it returned last. LF and CRLF line
    endings are both accepted.
    """
    reader = csv.reader(io.StringIO(_as_text(source)))
    try:
        first = next(reader)
    except StopIteration:
        raise MalformedRowError(1, f"missing header {','.join(header)!r}") from None
    if first != list(header):
        raise MalformedRowError(1, f"expected header {','.join(header)!r}, got {','.join(first)!r}")
    return reader


def column_count_error(line: int, header: tuple[str, ...], row: list[str]) -> MalformedRowError:
    return MalformedRowError(line, f"expected {len(header)} columns, got {len(row)}")


def iter_rows(source, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, row) for each data row of a CSV byte stream.

    The header is checked as in `data_reader`; every data row must have
    len(header) columns.
    """
    reader = data_reader(source, header)
    for row in reader:
        if len(row) != len(header):
            raise column_count_error(reader.line_num, header, row)
        yield reader.line_num, row
