"""Property tests: a catalog the loader accepts survives `dump_catalog` and loading back."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from rightsizer import Catalog, InstanceType, dump_catalog, load_catalog  # noqa: E402

PROPERTY_SETTINGS = settings(deadline=None, database=None, derandomize=True)

# Characters that need quoting or once broke a hand-joined writer, then any
# other character a key may hold: not a C0 control character or DEL, which
# the loader refuses, not a surrogate, which UTF-8 cannot encode, and not the
# dot that separates segments.
key_characters = st.sampled_from('," é日\u0085') | st.characters(
    exclude_categories=("Cs",), exclude_characters="".join(map(chr, range(0x20))) + "\x7f.")
segments = st.text(key_characters, min_size=1, max_size=6)
keys = st.lists(segments, min_size=3, max_size=5).map(".".join)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
catalogs = st.lists(st.builds(InstanceType, keys, positive, positive, positive),
                    min_size=1, max_size=6, unique_by=lambda e: e.key).map(tuple).map(Catalog)


@PROPERTY_SETTINGS
@given(catalogs)
@example(Catalog((InstanceType("a.b,c.d", 1.0, 2.0, 0.5),
                  InstanceType('"x.y.z', 3.0, 4.0, 1.5),
                  InstanceType('p.q "r".s,', 5.0, 6.0, 2.5))))
def test_dump_then_load_gives_the_catalog_back(catalog):
    dumped = dump_catalog(catalog)
    assert load_catalog(dumped) == catalog
    # a field is quoted only when it holds a comma or a quote
    if not any(c in e.key for e in catalog.entries for c in ',"'):
        assert b'"' not in dumped
