"""The one reader of CSV inputs: every loader takes its rows from `iter_rows`.

The rules all input files share live here, and a breach of any of them
raises MalformedRowError naming the 1-based physical line:
- the source is UTF-8 bytes (or a binary stream), with an optional BOM;
  a text stream is taken as already decoded;
- lines end in LF or CRLF, and the syntax is the csv module's default dialect;
- the first row equals the loader's header exactly;
- every data row has as many columns as the header;
- a numeric field read through `number` is a finite float.
Loaders check only their own rules on the rows they are given.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Iterator

from .errors import MalformedRowError


def _text(source) -> str:
    data = source if isinstance(source, (bytes, bytearray)) else source.read()
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedRowError(data.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from None
    return data.removeprefix("\ufeff")


def iter_rows(source, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, row) for each data row after the header.

    The line number is the physical line on which the row ends.
    """
    reader = csv.reader(io.StringIO(_text(source)))
    try:
        first = next(reader, None)
        if first is None:
            raise MalformedRowError(1, f"missing header {','.join(header)!r}")
        if first != list(header):
            raise MalformedRowError(1, f"expected header {','.join(header)!r}, got {','.join(first)!r}")
        width = len(header)
        for row in reader:
            if len(row) != width:
                raise MalformedRowError(reader.line_num, f"expected {width} columns, got {len(row)}")
            # a loader's own errors are raised in its frame, not here, so only csv.Error is caught
            yield reader.line_num, row
    except csv.Error as exc:
        raise MalformedRowError(reader.line_num, str(exc)) from None


def number(line: int, name: str, text: str) -> float:
    """The field `text` of column `name` as a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise MalformedRowError(line, f"{name} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise MalformedRowError(line, f"{name} {text!r} is not finite")
    return value
