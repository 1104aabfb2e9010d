"""The one CSV boundary, both ways: every loader takes its rows from
`iter_rows`, and every CSV the package writes comes from `csv_text`.

`csv_text` writes the dialect `iter_rows` reads: the csv module's default,
with LF line ends. It quotes a field that holds a comma, a quote or a line
break, so `iter_rows` reads back every field it wrote but one with a line
break, which no loader accepts anyway.

The rules all input files share live here, and a breach of any of them
raises MalformedRowError naming the 1-based physical line:
- the source is bytes, a bytearray or a binary stream (any iterable of
  bytes lines) of UTF-8, with an optional BOM; text is refused with
  TypeError before it is read;
- lines end in LF or CRLF, and the syntax is the csv module's default dialect;
- no field spans lines: a quoted field must close on the line it opens on,
  the last line included;
- the first row equals the loader's header exactly;
- every data row has as many columns as the header;
- a numeric field read through `number` is a finite float, written in
  ASCII with no whitespace and no `_` (`plain`, which the CLI's number
  flags share);
- an identifier read through `identifier` holds no control character
  (below U+0020, or U+007F), so none reaches a report or `model.dat`.
Loaders check only their own rules on the rows they are given.

The file is read one line at a time and each line is decoded on its own, so
reading holds a line in memory, not the file. Errors are therefore raised
in file order: the first bad line wins, whether its fault is a byte that is
not UTF-8, CSV syntax, the row's shape or a loader's own rule.
"""

from __future__ import annotations

import csv
import io
import math
import re
from codecs import BOM_UTF8
from functools import partial
from itertools import chain
from typing import Iterable, Iterator

from .errors import MalformedRowError

_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
_NOT_BINARY = "CSV input must be bytes, a bytearray or a binary stream: open the file in binary mode ('rb')"


def _lines(source) -> Iterator[str]:
    """The text of each physical line of `source`, BOM removed.

    Bytes are split on LF only and decoded as UTF-8 one line at a time, as
    the line is reached, so a line that is not UTF-8 raises
    UnicodeDecodeError once every line before it has been read. Text raises
    TypeError: a text stream before it is read, since it decodes a whole
    block ahead of the line it gives, and other `str` lines at the first.
    """
    if isinstance(source, (str, io.TextIOBase)):
        raise TypeError(_NOT_BINARY)
    lines = iter(io.BytesIO(source) if isinstance(source, (bytes, bytearray)) else source)
    first = next(lines, None)
    if first is None:
        return iter(())
    if not isinstance(first, bytes):
        raise TypeError(_NOT_BINARY)
    return map(bytes.decode, chain((first.removeprefix(BOM_UTF8),), lines))


def iter_rows(source, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, row) for each data row after the header.

    Rows are read lazily: no line after a row's own is decoded or parsed
    before the row is yielded.
    """
    # `ended.append` is called once, when the lines run out; it returns None,
    # which ends the second iterator
    ended: list = []
    reader = csv.reader(chain(_lines(source), iter(partial(ended.append, True), None)))
    try:
        first = next(reader, None)
        if first is None:
            raise MalformedRowError(1, f"missing header {','.join(header)!r}")
        if first != list(header):
            raise MalformedRowError(1, f"expected header {','.join(header)!r}, got {','.join(first)!r}")
        width = len(header)
        # Every earlier row took one line, so row k began on line k. A row
        # ends with its line unless a quoted field is still open, so a row the
        # reader gave only after reaching the end of the input has one too.
        for line_no, row in enumerate(reader, 2):
            if reader.line_num != line_no or ended:
                raise MalformedRowError(line_no, "quoted field runs past the end of its line")
            if len(row) != width:
                raise MalformedRowError(line_no, f"expected {width} columns, got {len(row)}")
            # a loader's own errors are raised in its frame, not here, so only csv.Error is caught
            yield line_no, row
    except csv.Error as exc:
        raise MalformedRowError(reader.line_num, str(exc)) from None
    except UnicodeDecodeError:
        # the reader counts the lines it has been given, and this one it was not
        raise MalformedRowError(reader.line_num + 1, "not valid UTF-8") from None


def csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    """The header and then each row as CSV lines; None is an empty field, other values their `str`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def plain(text: str) -> bool:
    """Whether `float` and `int` read `text` by their plain grammar alone.

    Both also read surrounding whitespace, `_` between digits and non-ASCII
    digits. On ASCII text with no `_` and no whitespace at either end they
    read exactly the plain grammar, so every number the package reads from
    a file or a flag must pass this first.
    """
    return text.isascii() and "_" not in text and text.strip() == text


def number(line: int, name: str, text: str) -> float:
    """The field `text` of column `name` as a finite float in plain notation (see `plain`)."""
    try:
        if not plain(text):
            raise ValueError
        value = float(text)
    except ValueError:
        raise MalformedRowError(line, f"{name} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise MalformedRowError(line, f"{name} {text!r} is not finite")
    return value


def identifier(line: int, name: str, text: str) -> str:
    """The field `text` of column `name`, refused if it holds a control character."""
    if _CONTROL.search(text):
        raise MalformedRowError(line, f"{name} {text!r} holds a control character")
    return text
