"""The shared CSV boundary: every loader decodes and parses its file the same way."""

import io

import pytest

from rightsizer import ingest_metrics, load_bindings, load_catalog, load_policy
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
@pytest.mark.parametrize("variant", [
    lambda data: b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"),
    bytearray,
    io.BytesIO,
    lambda data: io.StringIO(data.decode()),
], ids=["bom-crlf", "bytearray", "binary-stream", "text-stream"])
def test_every_form_of_a_file_loads_the_same(loader, variant):
    load, valid = LOADERS[loader]
    assert load(variant(valid)) == load(valid)
