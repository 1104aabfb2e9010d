"""The shared CSV boundary: every loader decodes and parses its file the same way."""

import io

import pytest

from rightsizer import ingest_metrics, load_bindings, load_catalog, load_policy
from rightsizer._csvio import iter_rows
from rightsizer.errors import MalformedRowError


def metrics_stats(data):
    return {w: {m: s.stats() for m, s in by_metric.items()}
            for w, by_metric in ingest_metrics(data).items()}


# each loader with a valid file of at least two data rows and a comparable result
LOADERS = {
    "catalog": (load_catalog, b"key,cpu_ecu,mem_gib,cost_per_hour\n"
                              b"lin.a.small.r1,2,4,0.1\n"
                              b"lin.b.medium.r1,4,8,0.2\n"),
    "metrics": (metrics_stats, b"workload_id,timestamp,metric,value\n"
                               b"w1,100,cpu,10\n"
                               b"w1,200,cpu,30\n"
                               b"w1,100,mem,20\n"
                               b"w1,200,mem,25\n"),
    "bindings": (load_bindings, b"workload_id,current_type\n"
                                b"w1,lin.a.small.r1\n"
                                b"w2,lin.b.medium.r1\n"),
    "policy": (lambda data: load_policy(data, default=1.5), b"workload_id,delta\n"
                                                            b"w1,2\n"
                                                            b"w2,3.5\n"),
}


def with_line_3_prefixed(data: bytes, prefix: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[2] = prefix + lines[2]
    return b"\n".join(lines)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("prefix", [b"\xff", b"x" * 200_000], ids=["invalid-utf8", "long-field"])
def test_bad_bytes_on_line_3_name_the_line(loader, prefix):
    load, valid = LOADERS[loader]
    with pytest.raises(MalformedRowError) as exc:
        load(with_line_3_prefixed(valid, prefix))
    assert str(exc.value).startswith("line 3: ")


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_an_empty_file_names_its_missing_header(loader):
    load, valid = LOADERS[loader]
    header = valid.split(b"\n")[0].decode()
    with pytest.raises(MalformedRowError) as exc:
        load(b"")
    assert str(exc.value) == f"line 1: missing header {header!r}"


@pytest.mark.parametrize("loader, data, message", [
    ("catalog", b"key,cpu_ecu,mem_gib,cost_per_hour\nlin.a.small.r1,inf,4,0.1\n", "cpu_ecu 'inf'"),
    ("policy", b"workload_id,delta\nw1,nan\n", "delta 'nan'"),
])
def test_a_numeric_field_that_is_not_finite_names_its_line(loader, data, message):
    load, _ = LOADERS[loader]
    with pytest.raises(MalformedRowError) as exc:
        load(data)
    assert str(exc.value) == f"line 2: {message} is not finite"


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("variant", [
    lambda data: b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"),
    bytearray,
    io.BytesIO,
    lambda data: io.StringIO(data.decode()),
], ids=["bom-crlf", "bytearray", "binary-stream", "text-stream"])
def test_every_form_of_a_file_loads_the_same(loader, variant):
    load, valid = LOADERS[loader]
    assert load(variant(valid)) == load(valid)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("broken", [
    # an unterminated quote, which would swallow line 3 into one field
    lambda line: b'"' + line,
    # a quoted first field that closes on line 3 and leaves the column count right
    lambda line: b'"' + line[:1] + b"\n" + line[1:].replace(b",", b'",', 1),
], ids=["unterminated", "closes-on-next-line"])
def test_a_field_spanning_lines_names_the_line_it_began_on(loader, broken):
    load, valid = LOADERS[loader]
    lines = valid.split(b"\n")
    lines[1] = broken(lines[1])
    with pytest.raises(MalformedRowError) as exc:
        load(b"\n".join(lines))
    assert str(exc.value) == "line 2: quoted field runs past the end of its line"


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("newline", [b"\n", b""], ids=["newline", "no-newline"])
def test_an_unterminated_quote_on_the_last_line_names_that_line(loader, newline):
    load, valid = LOADERS[loader]
    lines = valid.rstrip(b"\n").split(b"\n")
    head, _, last = lines[-1].rpartition(b",")
    lines[-1] = head + b',"' + last  # the last field opens a quote and never closes it
    with pytest.raises(MalformedRowError) as exc:
        load(b"\n".join(lines) + newline)
    assert str(exc.value) == f"line {len(lines)}: quoted field runs past the end of its line"


@pytest.mark.parametrize("newline", [b"\n", b""], ids=["newline", "no-newline"])
def test_a_stray_quote_that_opens_no_field_still_loads(newline):
    # the csv module's default dialect keeps text after a closing quote and
    # a quote inside an unquoted field as they are
    data = b'workload_id,current_type\n"w1"x,lin.a.small.r1\nw2,a"b' + newline
    assert load_bindings(data) == {"w1x": "lin.a.small.r1", "w2": 'a"b'}


def long_bindings(rows: int) -> bytes:
    return b"workload_id,current_type\n" + b"".join(b"w%d,lin.a.small.r1\n" % k for k in range(rows))


def test_rows_are_read_lazily():
    stream = io.BytesIO(long_bindings(10_000))
    rows = iter_rows(stream, ("workload_id", "current_type"))
    assert next(rows) == (2, ["w0", "lin.a.small.r1"])
    assert stream.tell() < len(stream.getvalue()) // 100


def test_a_bad_byte_on_the_last_line_of_a_long_file_names_that_line():
    data = long_bindings(10_000) + b"w\xff,lin.a.small.r1\n"
    with pytest.raises(MalformedRowError) as exc:
        load_bindings(io.BytesIO(data))
    assert str(exc.value) == "line 10002: not valid UTF-8"


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_the_first_bad_line_in_the_file_wins(loader):
    # Lines are decoded as they are read, so a malformed row on line 2 is
    # reported before a byte that is not UTF-8 on line 5.
    load, valid = LOADERS[loader]
    header, line_2 = valid.split(b"\n")[:2]
    data = b"\n".join([header, line_2 + b",extra", b"x", b"x", b"\xff", b""])
    with pytest.raises(MalformedRowError) as exc:
        load(data)
    assert str(exc.value).startswith("line 2: expected ")


def test_a_text_stream_that_fails_to_decode_names_a_line_at_or_before_the_bad_byte():
    # the wrapper decodes its first block before the first line is given,
    # so the whole file fails on the first read
    stream = io.TextIOWrapper(io.BytesIO(long_bindings(3) + b"w\xff,lin.a.small.r1\n"), encoding="utf-8")
    with pytest.raises(MalformedRowError) as exc:
        load_bindings(stream)
    assert exc.value.line <= 5
    assert str(exc.value).endswith(": not valid UTF-8")
