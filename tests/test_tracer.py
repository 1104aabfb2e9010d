"""The benchmark tracer must still find every layer the CLI calls.

perfbench/tracer.py wraps functions by the names `rightsizer.cli` and
`rightsizer.analysis` call them through. A layer whose name the program no
longer calls reads 0 in the benchmark without any error, so this test runs
the tracer (loaded by path, not modified) and checks that each command
records at least one span per layer it uses.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data" / "reports"

INPUT_LAYERS = {"catalog.load", "metrics.ingest", "metrics.bindings", "metrics.build_fleet",
                "model.build"}
# run_sweep solves through solve_sweep, not solve_exact, so a sweep records no solve.exact span
COMMANDS = {
    "optimize": (("--delta", "1.5"), INPUT_LAYERS | {"solve.exact", "analysis.reports"}),
    "sweep": ((), INPUT_LAYERS | {"analysis.sweep"}),
    "export-ampl": (("--delta", "1.5"), INPUT_LAYERS | {"model.export"}),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_tracer_records_every_layer_the_command_uses(command, tmp_path):
    tracer_module = load_tracer()
    flags, layers = COMMANDS[command]
    tracer = tracer_module.Tracer("test")
    argv = [command, "--catalog", str(DATA / "catalog.csv"), "--metrics", str(DATA / "metrics.csv"),
            "--bindings", str(DATA / "bindings.csv"), *flags, "--out", str(tmp_path / "out")]
    assert tracer_module.traced_main(argv, tracer) == 0
    recorded = {span["name"] for span in tracer.spans}
    assert layers <= recorded, f"no span for {sorted(layers - recorded)}"
