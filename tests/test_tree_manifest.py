"""Every command's output, pinned against the manifest in tests/data/tree_manifest.json.

Each entry is one CLI command run in process on the inputs built here: its
exit code, stdout, stderr and the SHA-256 of every file it wrote, by path
relative to its output directory. The inputs are pinned the same way. They
are the benchmark's three workloads at seed 1, written by
`perfbench/inputs.py` (loaded by path, not modified); `ingest-day`'s rows
sorted by time and with jittered times; a per-workload policy; the
quoted-key catalog; and a catalog whose price ties decide rows. So a change
to any output tree fails here, not only one the fixture goldens show.

A change that alters output on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_tree_manifest.py

and names each changed entry and its reason in CHANGES.md. The script needs
no pytest, so the same command on another interpreter, followed by
`git diff --exit-code tests/data/tree_manifest.json`, checks that version's
trees against the pinned ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from helpers import load_perfbench_inputs
from rightsizer import cli

DATA = Path(__file__).parent / "data"
MANIFEST = DATA / "tree_manifest.json"
SEED = 1

FIXTURE = "inputs/ingest-day"
WIDE_SWEEP = "inputs/sweep-wide"
WIDE_EXPORT = "inputs/export-wide"


def _inputs(directory: str, metrics: str = "metrics.csv", catalog: str | None = None) -> list[str]:
    return ["--catalog", catalog or f"{directory}/catalog.csv", "--metrics", f"{directory}/{metrics}",
            "--bindings", f"{directory}/bindings.csv"]


# entry name -> CLI arguments; each writes into out/<entry name>
COMMANDS = {
    "synth-42": ["synth", "--catalog", "inputs/catalog.csv", "--seed", "42",
                 "--count", "60", "--samples", "10"],
    "synth-quoted": ["synth", "--catalog", "inputs/catalog_quoted_keys.csv", "--seed", "7",
                     "--count", "40", "--samples", "13"],
    **{f"optimize-{fmt}": ["optimize", *_inputs(FIXTURE), "--delta", "1.5", "--format", fmt]
       for fmt in ("json", "text", "csv")},
    **{f"optimize-infeasible-{fmt}": ["optimize", *_inputs(FIXTURE), "--delta", "20", "--format", fmt]
       for fmt in ("json", "text", "csv")},
    "optimize-by-time": ["optimize", *_inputs(FIXTURE, "metrics-by-time.csv"), "--delta", "1.5"],
    "optimize-jittered": ["optimize", *_inputs(FIXTURE, "metrics-jittered.csv"), "--delta", "1.5"],
    "optimize-quoted": ["optimize", *_inputs("out/synth-quoted", catalog="inputs/catalog_quoted_keys.csv"),
                        "--delta", "1.5", "--format", "csv"],
    "optimize-ties": ["optimize", *_inputs("out/synth-42", catalog="inputs/catalog_ties.csv"),
                      "--delta", "1.5", "--format", "csv"],
    **{f"sweep-{fmt}": ["sweep", *_inputs(WIDE_SWEEP), "--format", fmt] for fmt in ("json", "text", "csv")},
    **{f"sweep-infeasible-{fmt}": ["sweep", *_inputs(WIDE_SWEEP), "--sweep", "1:46:5", "--format", fmt]
       for fmt in ("json", "csv")},
    "export-ampl": ["export-ampl", *_inputs(WIDE_EXPORT), "--delta", "1.5"],
    "export-ampl-policy": ["export-ampl", *_inputs(WIDE_EXPORT), "--policy", f"{WIDE_EXPORT}/policy.csv",
                           "--delta", "1.5"],
}


def _rows(path: Path) -> tuple[bytes, list[bytes]]:
    header, *rows = path.read_bytes().splitlines(keepends=True)
    return header, rows


def _tie_catalog(fixture: bytes) -> bytes:
    # every fixture type and a twin at its price with 1.5x its CPU and 3/4 of
    # its memory: a row that fits both takes the one with less CPU
    header, *rows = fixture.decode("utf-8").splitlines()
    twins = []
    for row in rows:
        key, cpu, mem, price = row.split(",")
        os_, family, size, region = key.split(".")
        twins.append(f"{os_}.{family}t.{size}.{region},{float(cpu) * 1.5!r},{float(mem) * 0.75!r},{price}")
    return "\n".join([header, *rows, *twins, ""]).encode("utf-8")


def write_inputs(root: Path) -> None:
    """Write every input of COMMANDS under root (the synth entries' outputs are inputs too)."""
    perfbench = load_perfbench_inputs()
    for name in ("ingest-day", "sweep-wide", "export-wide"):
        perfbench.write_inputs(perfbench.WORKLOADS[name], SEED, root / "inputs" / name)

    day = root / FIXTURE
    header, rows = _rows(day / "metrics.csv")
    # stably sorted by time, so each time's rows keep series order
    by_time = sorted(rows, key=lambda row: int(row.split(b",", 2)[1]))
    (day / "metrics-by-time.csv").write_bytes(b"".join([header, *by_time]))
    # each time moved 0-9 s later, by line number: every series keeps its
    # order but not a regular grid
    jittered = []
    for line_no, row in enumerate(rows, start=2):
        workload, time, rest = row.split(b",", 2)
        jittered.append(b"%s,%d,%s" % (workload, int(time) + line_no % 10, rest))
    (day / "metrics-jittered.csv").write_bytes(b"".join([header, *jittered]))

    _, bindings = _rows(root / WIDE_EXPORT / "bindings.csv")
    policy = [b"workload_id,delta\n"]
    policy += [b"%s,%.1f\n" % (row.split(b",")[0], 1.0 + 0.5 * (k % 4))
               for k, row in enumerate(bindings) if k % 5 == 0]
    (root / WIDE_EXPORT / "policy.csv").write_bytes(b"".join(policy))

    fixture = (DATA / "catalog.csv").read_bytes()
    (root / "inputs" / "catalog.csv").write_bytes(fixture)
    (root / "inputs" / "catalog_ties.csv").write_bytes(_tie_catalog(fixture))
    (root / "inputs" / "catalog_quoted_keys.csv").write_bytes((DATA / "catalog_quoted_keys.csv").read_bytes())


def _digests(directory: Path) -> dict[str, str]:
    return {path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def _run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def build_manifest(root: Path) -> dict:
    """Write the inputs under root, run every command there and record what each one did."""
    write_inputs(root)
    manifest = {"inputs": {"files": _digests(root / "inputs")}}
    cwd = os.getcwd()
    os.chdir(root)  # the commands take paths relative to root, so stderr names no temporary path
    try:
        for name, argv in COMMANDS.items():
            manifest[name] = _run([*argv, "--out", f"out/{name}"])
            manifest[name]["files"] = _digests(root / "out" / name)
    finally:
        os.chdir(cwd)
    return manifest


def to_text(manifest: dict) -> str:
    return json.dumps(manifest, indent=1, sort_keys=True, ensure_ascii=False) + "\n"


# before pytest is imported, so an interpreter without pytest can re-pin
if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        MANIFEST.write_text(to_text(build_manifest(Path(work))), encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
    raise SystemExit

import pytest  # noqa: E402

# absent only before the first regeneration, when every entry reads as new
EXPECTED = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return build_manifest(tmp_path_factory.mktemp("tree"))


def test_the_manifest_names_every_command(actual):
    assert sorted(actual) == sorted(EXPECTED)


@pytest.mark.parametrize("entry", sorted(EXPECTED))
def test_each_command_writes_its_pinned_tree(actual, entry):
    assert actual.get(entry) == EXPECTED[entry]


@pytest.mark.parametrize("layout", ["optimize-by-time", "optimize-jittered"])
def test_each_row_layout_writes_the_series_order_tree(actual, layout):
    # the same rows in another order or at jittered times give the same
    # demand stats, so the same files; a re-pin alone would accept a change
    assert actual[layout]["files"] == actual["optimize-json"]["files"]
