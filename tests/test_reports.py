"""Golden output trees: every text and CSV report, byte for byte.

The fixture in tests/data/reports has five workloads on a three-type
catalog. At factor 1.5 every workload fits (one moves to a cheaper type, so
a cost delta is negative); at 2.5 two workloads fit no type, so the same
inputs give an infeasible assignment and a sweep whose last case has `-`
totals, a left-aligned `unplaceable` cell and empty CSV cells. To refresh a
golden tree after an intended output change, run the command in RUNS with
`--out tests/data/reports/golden/<name>` and review the diff.
"""

from pathlib import Path

import pytest

from rightsizer.cli import EXIT_INFEASIBLE, EXIT_OK, main, parse_sweep_spec

DATA = Path(__file__).parent / "data" / "reports"
GOLDEN = DATA / "golden"

# golden tree name -> (expected exit code, CLI arguments besides the input files)
RUNS = {
    "optimize-text": (EXIT_OK, ("optimize", "--delta", "1.5", "--format", "text")),
    "optimize-csv": (EXIT_OK, ("optimize", "--delta", "1.5", "--format", "csv")),
    "infeasible-text": (EXIT_INFEASIBLE, ("optimize", "--delta", "2.5", "--format", "text")),
    "infeasible-csv": (EXIT_INFEASIBLE, ("optimize", "--delta", "2.5", "--format", "csv")),
    "sweep-text": (EXIT_OK, ("sweep", "--sweep", "1.0:2.5:0.5", "--format", "text")),
    "sweep-csv": (EXIT_OK, ("sweep", "--sweep", "1.0:2.5:0.5", "--format", "csv")),
}


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_tree_matches_golden(name, tmp_path):
    code, (command, *flags) = RUNS[name]
    out = tmp_path / name
    assert main([command, "--catalog", str(DATA / "catalog.csv"),
                 "--metrics", str(DATA / "metrics.csv"),
                 "--bindings", str(DATA / "bindings.csv"),
                 *flags, "--out", str(out)]) == code
    assert tree_bytes(out) == tree_bytes(GOLDEN / name)


def test_sweep_text_labels_read_back_as_their_factors(tmp_path):
    # one workload at exactly the small type's capacity: it fits there at 1.0
    # and needs the dearer medium type at 1.000001, so the bill exceeds the
    # baseline between two factors that `:g` would both print as "1"
    (tmp_path / "metrics.csv").write_text(
        "workload_id,timestamp,metric,value\n"
        "w1,100,cpu,100\nw1,200,cpu,100\nw1,100,mem,100\nw1,200,mem,100\n")
    (tmp_path / "bindings.csv").write_text("workload_id,current_type\nw1,lin.a.small.r1\n")
    spec = "1.0:1.00001:0.000001"
    out = tmp_path / "out"
    assert main(["sweep", "--catalog", str(DATA / "catalog.csv"),
                 "--metrics", str(tmp_path / "metrics.csv"),
                 "--bindings", str(tmp_path / "bindings.csv"),
                 "--sweep", spec, "--format", "text", "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep_report.txt").read_text().splitlines()
    assert "  break-even       between 1 and 1.000001" in lines
    labels = [line.split()[0] for line in lines[lines.index("") + 2:]]
    assert labels == ["1", "1.000001", "1.000002", "1.000003", "1.000004", "1.000005",
                      "1.000006", "1.000007", "1.000008", "1.000009", "1.00001"]
    assert tuple(map(float, labels)) == parse_sweep_spec(spec)
