import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rightsizer import (
    Infeasible,
    UtilizationPolicy,
    build_fleet,
    build_model,
    consolidation_report,
    export_ampl,
    ingest_metrics,
    load_bindings,
    load_catalog,
    project_costs,
    reports,
    solve_exact,
    utilization_report,
)
from rightsizer.cli import MAX_SWEEP_CASES, main, parse_sweep_spec
from rightsizer.analysis import default_sweep_deltas
from rightsizer.errors import ConfigError

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"

CATALOG = """key,cpu_ecu,mem_gib,cost_per_hour
lin.a.small.r1,2.0,4.0,0.10
lin.b.medium.r1,4.0,8.0,0.20
lin.c.large.r1,8.0,16.0,0.40
"""

# two samples at 75% on a 2 ECU / 4 GiB type: demand 1.5 ECU / 3.0 GiB
METRICS = """workload_id,timestamp,metric,value
w1,100,cpu,75
w1,200,cpu,75
w1,100,mem,75
w1,200,mem,75
"""

BINDINGS = """workload_id,current_type
w1,lin.a.small.r1
"""


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "catalog.csv").write_text(CATALOG)
    (tmp_path / "metrics.csv").write_text(METRICS)
    (tmp_path / "bindings.csv").write_text(BINDINGS)
    return tmp_path


def run(inputs, *extra):
    return main([
        *extra[:1],
        "--catalog", str(inputs / "catalog.csv"),
        "--metrics", str(inputs / "metrics.csv"),
        "--bindings", str(inputs / "bindings.csv"),
        *extra[1:],
    ])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# --- optimize -----------------------------------------------------------------

def test_optimize_happy_path(inputs, tmp_path):
    out = tmp_path / "out"
    assert run(inputs, "optimize", "--delta", "1.5", "--out", str(out)) == 0
    payload = json.loads((out / "assignment.json").read_text())
    assert payload["status"] == "optimal"
    assert payload["assignments"][0]["target_type"] == "lin.b.medium.r1"
    assert payload["total_hourly_cost"] == pytest.approx(0.20)
    for name in ("cost_report.json", "utilization_report.json", "consolidation_report.json",
                 "plot_costs.csv", "plot_utilization.csv", "plot_flow.csv"):
        assert (out / name).exists()
    costs = json.loads((out / "cost_report.json").read_text())
    assert costs["baseline_hourly"] == pytest.approx(0.10)
    assert costs["target_hourly"] == pytest.approx(0.20)


def test_optimize_rejects_delta_below_one(inputs, tmp_path, capsys):
    code = run(inputs, "optimize", "--delta", "0.5", "--out", str(tmp_path / "out"))
    assert code == 1
    assert ">= 1" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_optimize_rejects_non_finite_delta(inputs, tmp_path, capsys, delta):
    code = run(inputs, "optimize", "--delta", delta, "--out", str(tmp_path / "out"))
    assert code == 1
    assert "--delta must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_optimize_infeasible_writes_diagnostics(inputs, tmp_path):
    out = tmp_path / "out"
    # 1.5 ECU demand at factor 6 needs 9.0 ECU, above every column
    assert run(inputs, "optimize", "--delta", "6.0", "--out", str(out)) == 2
    payload = json.loads((out / "assignment.json").read_text())
    assert payload["status"] == "infeasible"
    assert payload["infeasible"][0]["workload_id"] == "w1"
    assert payload["infeasible"][0]["cpu_required"] == pytest.approx(9.0)


def test_optimize_missing_file_is_input_error(inputs, tmp_path):
    code = main([
        "optimize",
        "--catalog", str(inputs / "nope.csv"),
        "--metrics", str(inputs / "metrics.csv"),
        "--bindings", str(inputs / "bindings.csv"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1


def test_optimize_bad_byte_in_metrics_exits_one_with_its_line(inputs, tmp_path):
    lines = METRICS.encode().split(b"\n")
    lines[2] = b"\xff" + lines[2]
    (inputs / "metrics.csv").write_bytes(b"\n".join(lines))
    done = subprocess.run(
        [sys.executable, "-m", "rightsizer.cli", "optimize",
         "--catalog", str(inputs / "catalog.csv"), "--metrics", str(inputs / "metrics.csv"),
         "--bindings", str(inputs / "bindings.csv"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 1
    assert done.stderr.startswith("error: line 3:")
    assert "Traceback" not in done.stderr


def modules_loaded_by(code: str) -> set[str]:
    """The modules loaded once `code` has run in a fresh interpreter."""
    # -S keeps site-packages out, and with it any module a .pth file imports
    code += "\nimport sys; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    return set(done.stdout.split())


def modules_loaded_by_importing_the_cli() -> set[str]:
    return modules_loaded_by("import rightsizer.cli")


def modules_loaded_by_running(command: str, flags: tuple, out: Path) -> set[str]:
    inputs = ["--catalog", str(DATA / "reports" / "catalog.csv")]
    if command != "synth":
        inputs += ["--metrics", str(DATA / "reports" / "metrics.csv"),
                   "--bindings", str(DATA / "reports" / "bindings.csv")]
    argv = [command, *inputs, *flags, "--out", str(out)]
    loaded = modules_loaded_by(f"from rightsizer.cli import main; assert main({argv!r}) == 0")
    assert "rightsizer.cli" in loaded
    return loaded


def test_the_cli_imports_only_the_standard_library():
    loaded = {name.partition(".")[0] for name in modules_loaded_by_importing_the_cli()}
    assert "rightsizer" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"__main__", "rightsizer"}


# layers only some commands run, and modules that only those layers, or no
# command, need: pathlib alone brings urllib.parse, ipaddress and fnmatch
LAYERS_NOT_AT_START_UP = {"rightsizer.analysis", "rightsizer.solve", "rightsizer.reports", "rightsizer.synth"}
NOT_AT_START_UP = LAYERS_NOT_AT_START_UP | {"json", "pathlib", "urllib", "ipaddress", "random"}


def test_the_cli_loads_no_module_that_start_up_does_not_need():
    # dataclasses (with inspect) and statistics (with fractions and decimal)
    # once took half of the CLI's import time; only the t-tests use statistics
    loaded = modules_loaded_by_importing_the_cli()
    assert "rightsizer.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "statistics", "fractions", "decimal"})
    assert loaded.isdisjoint(NOT_AT_START_UP), sorted(loaded & NOT_AT_START_UP)


# `statistics` and the modules it loads; the means and variances
# of the utilization report come from exact integer sums instead
EXACT_RATIONAL_STACK = {"statistics", "fractions", "decimal", "numbers", "random"}


@pytest.mark.parametrize("command, flags, layers", [
    ("optimize", ("--delta", "1.5"), {"analysis", "reports", "solve"}),
    ("sweep", ("--sweep", "1.0:2.0:0.5"), {"analysis", "reports", "solve"}),
    ("export-ampl", ("--delta", "1.5"), set()),
    ("synth", ("--count", "3", "--samples", "4"), {"synth"}),
    ("optimize", ("--delta", "1.5", "--format", "text"), {"analysis", "reports", "solve"}),
    ("optimize", ("--delta", "1.5", "--format", "csv"), {"analysis", "reports", "solve"}),
])
def test_each_command_loads_only_the_layers_it_runs(command, flags, layers, tmp_path):
    loaded = modules_loaded_by_running(command, flags, tmp_path / "out")
    assert loaded & LAYERS_NOT_AT_START_UP == {f"rightsizer.{layer}" for layer in layers}
    assert ("json" in loaded) == ("reports" in layers)
    # only synth draws random numbers
    assert loaded & EXACT_RATIONAL_STACK == ({"random"} if command == "synth" else set())
    assert os.listdir(tmp_path / "out")


def test_optimize_text_format(inputs, tmp_path):
    out = tmp_path / "out"
    assert run(inputs, "optimize", "--delta", "1.5", "--format", "text",
               "--out", str(out)) == 0
    text = (out / "cost_report.txt").read_text()
    assert "baseline hourly" in text
    assert (out / "assignment.txt").exists()


def test_optimize_policy_override(inputs, tmp_path):
    (inputs / "policy.csv").write_text("workload_id,delta\nw1,1.0\n")
    out = tmp_path / "out"
    assert run(inputs, "optimize", "--delta", "1.5",
               "--policy", str(inputs / "policy.csv"), "--out", str(out)) == 0
    payload = json.loads((out / "assignment.json").read_text())
    # at factor 1.0 the small type still fits
    assert payload["assignments"][0]["target_type"] == "lin.a.small.r1"


def test_optimize_is_deterministic(inputs, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(inputs, "optimize", "--delta", "1.5", "--out", str(out1)) == 0
    assert run(inputs, "optimize", "--delta", "1.5", "--out", str(out2)) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_optimize_reruns_leave_only_their_own_outputs(inputs, tmp_path):
    out = tmp_path / "out"
    (out / "keep").mkdir(parents=True)
    (out / "notes.txt").write_text("not an output")
    assert run(inputs, "optimize", "--delta", "1.5", "--out", str(out)) == 0
    assert run(inputs, "optimize", "--delta", "50", "--out", str(out)) == 2
    assert sorted(p.name for p in out.iterdir()) == ["assignment.json", "keep", "notes.txt"]

    assert run(inputs, "optimize", "--delta", "1.5", "--out", str(out)) == 0
    assert run(inputs, "optimize", "--delta", "1.5", "--format", "text", "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "assignment.txt", "consolidation_report.txt", "cost_report.txt", "keep", "notes.txt",
        "plot_costs.csv", "plot_flow.csv", "plot_utilization.csv", "utilization_report.txt"]


def test_optimize_renders_only_the_requested_format(inputs, tmp_path, monkeypatch):
    calls = []
    for name in ("to_json", "render_text", "render_csv"):
        def counted(*args, _name=name, _render=getattr(reports, name)):
            calls.append(_name)
            return _render(*args)
        monkeypatch.setattr(reports, name, counted)
    # the three plot CSVs are rendered in every format; with csv, that one
    # render is also the report's own .csv
    for fmt, requested in (("json", ["to_json"] * 4), ("text", ["render_text"] * 4),
                           ("csv", ["render_csv"])):
        calls.clear()
        out = tmp_path / fmt
        assert run(inputs, "optimize", "--delta", "1.5", "--format", fmt, "--out", str(out)) == 0
        assert sorted(calls) == sorted(["render_csv"] * 3 + requested)
    csv_out = tmp_path / "csv"
    for report, plot in (("cost_report", "plot_costs"), ("utilization_report", "plot_utilization"),
                         ("consolidation_report", "plot_flow")):
        assert (csv_out / f"{report}.csv").read_bytes() == (csv_out / f"{plot}.csv").read_bytes()


# --- sweep ---------------------------------------------------------------------

def test_sweep_default_has_31_cases(inputs, tmp_path):
    out = tmp_path / "out"
    assert run(inputs, "sweep", "--out", str(out)) == 0
    cases = sorted(out.glob("case-*.json"))
    assert len(cases) == 31
    report = json.loads((out / "sweep_report.json").read_text())
    assert len(report["cases"]) == 31
    assert (out / "plot_annual_cost.csv").exists()


def test_sweep_degenerate_range_is_one_case(inputs, tmp_path):
    out = tmp_path / "out"
    assert run(inputs, "sweep", "--sweep", "1.0:1.0:0.1", "--out", str(out)) == 0
    assert len(list(out.glob("case-*.json"))) == 1


def test_sweep_backwards_range_is_input_error(inputs, tmp_path, capsys):
    assert run(inputs, "sweep", "--sweep", "2.0:1.0:0.1",
               "--out", str(tmp_path / "out")) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_case_files_carry_assignments(inputs, tmp_path):
    out = tmp_path / "out"
    assert run(inputs, "sweep", "--sweep", "1.0:1.5:0.5", "--out", str(out)) == 0
    case1 = json.loads((out / "case-1.json").read_text())
    assert case1["delta"] == 1.0
    assert case1["assignment"] == {"w1": "lin.a.small.r1"}
    case2 = json.loads((out / "case-2.json").read_text())
    assert case2["assignment"] == {"w1": "lin.b.medium.r1"}


def test_shorter_sweep_removes_stale_case_files(inputs, tmp_path):
    out = tmp_path / "out"
    (out / "keep").mkdir(parents=True)
    (out / "case-notes.json").write_text("{}")
    assert run(inputs, "sweep", "--out", str(out)) == 0
    assert len(list(out.glob("case-*.json"))) == 31 + 1
    assert run(inputs, "sweep", "--sweep", "1.0:1.4:0.1", "--out", str(out)) == 0
    cases = sorted(p.name for p in out.glob("case-[0-9]*.json"))
    assert cases == [f"case-{k}.json" for k in range(1, 6)]
    assert (out / "case-notes.json").exists() and (out / "keep").is_dir()
    report = json.loads((out / "sweep_report.json").read_text())
    assert len(report["cases"]) == 5


def test_sweep_rerun_in_another_format_replaces_its_report(inputs, tmp_path):
    out = tmp_path / "out"
    assert run(inputs, "sweep", "--sweep", "1.0:1.2:0.1", "--out", str(out)) == 0
    assert run(inputs, "sweep", "--sweep", "1.0:1.1:0.1", "--format", "csv", "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "case-1.json", "case-2.json", "plot_annual_cost.csv", "sweep_report.csv"]
    assert (out / "sweep_report.csv").read_bytes() == (out / "plot_annual_cost.csv").read_bytes()


def test_parse_sweep_spec_matches_default():
    assert default_sweep_deltas() == (
        1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9,
        2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9,
        3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9,
        4.0)
    assert parse_sweep_spec("1.0:1.0:0.1") == (1.0,)
    with pytest.raises(ConfigError):
        parse_sweep_spec("0.5:2.0:0.1")
    with pytest.raises(ConfigError):
        parse_sweep_spec("1.0:2.0")
    with pytest.raises(ConfigError):
        parse_sweep_spec("1.0:2.0:0")
    with pytest.raises(ConfigError, match="non-numeric"):
        parse_sweep_spec("1.0:abc:0.1")
    with pytest.raises(ConfigError, match="non-finite"):
        parse_sweep_spec("1.0:inf:0.1")


def test_a_sweep_spec_whose_factors_collapse_when_rounded_is_refused_before_input(inputs, tmp_path, capsys):
    # factors are rounded to 10 decimals, which makes these eleven all 1.0
    spec = "1.0:1.00000000001:1e-12"
    with pytest.raises(ConfigError, match=f"sweep spec '{spec}' has factors that are equal"):
        parse_sweep_spec(spec)
    (inputs / "metrics.csv").unlink()
    out = tmp_path / "out"
    assert run(inputs, "sweep", "--sweep", spec, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: argument --sweep: sweep spec '{spec}' has factors")
    assert not out.exists()


def test_sweep_spec_case_count_is_bounded_before_allocation(inputs, tmp_path, capsys):
    assert len(parse_sweep_spec("1.0:4.0:0.1")) == 31
    assert len(parse_sweep_spec(f"1.0:{MAX_SWEEP_CASES}.0:1.0")) == MAX_SWEEP_CASES
    with pytest.raises(ConfigError, match=f"more than {MAX_SWEEP_CASES} cases"):
        parse_sweep_spec(f"1.0:{MAX_SWEEP_CASES + 1}.0:1.0")
    with pytest.raises(ConfigError):
        parse_sweep_spec("1.0:1e308:1e-300")  # the case count overflows to inf
    assert run(inputs, "sweep", "--sweep", "1.0:2.0:0.00001",  # 100 001 cases
               "--out", str(tmp_path / "out")) == 1
    assert "more than" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, message", [
    ("1.0:2.0", "sweep spec '1.0:2.0' must be start:end:step"),
    ("1:2:1_5", "sweep spec '1:2:1_5' has a non-numeric part"),
    ("1.0:inf:0.1", "sweep spec '1.0:inf:0.1' has a non-finite part"),
    ("0.5:2.0:0.1", "sweep start must be >= 1 (utilization factors are >= 1)"),
    ("1.0:2.0:0", "sweep step must be > 0"),
    ("2.0:1.0:0.1", "sweep end must be >= start"),
    ("1.0:2.0:0.00001", f"sweep spec '1.0:2.0:0.00001' asks for more than {MAX_SWEEP_CASES} cases"),
    ("1.0:1.00000000001:1e-12",
     "sweep spec '1.0:1.00000000001:1e-12' has factors that are equal once rounded to 10 decimals"),
], ids=["part-count", "non-numeric", "non-finite", "start-below-1", "step-not-positive",
        "end-below-start", "too-many-cases", "equal-when-rounded"])
def test_a_refused_sweep_spec_names_its_flag(inputs, tmp_path, capsys, spec, message):
    assert run(inputs, "sweep", "--sweep", spec, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: argument --sweep: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("hours", [10**306, 10**307, 10**400], ids=["1e306", "1e307", "1e400"])
@pytest.mark.parametrize("command", [["optimize", "--delta", "1.5"], ["sweep"]], ids=["optimize", "sweep"])
def test_an_annual_cost_too_large_for_a_float_is_an_input_error(inputs, tmp_path, capsys, command, hours):
    # w1's 100 USD/h baseline stays finite over 10**306 hours; the 200 USD/h
    # type it takes at a factor of 1.5 does not
    (inputs / "catalog.csv").write_text("""key,cpu_ecu,mem_gib,cost_per_hour
lin.a.small.r1,2.0,4.0,100
lin.b.medium.r1,4.0,8.0,200
lin.c.large.r1,8.0,16.0,400
""")
    out = tmp_path / "out"
    assert run(inputs, *command, "--hours-per-year", str(hours), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hours per year too large: ") and err.count("\n") == 1
    assert not out.exists() or not any(out.iterdir())


# --- number flags ---------------------------------------------------------------------

# each number flag as (command, flag, value with the spelling put at {}); every
# spelling below reads through float or int as a value the flag would take
NUMBER_FLAGS = {
    "delta": ("optimize", "--delta", "{}"),
    "hours-per-year": ("optimize", "--hours-per-year", "{}"),
    "sweep-start": ("sweep", "--sweep", "{}:20:5"),
    "sweep-end": ("sweep", "--sweep", "1:{}:1"),
    "sweep-step": ("sweep", "--sweep", "1:2:{}"),
    "seed": ("synth", "--seed", "{}"),
    "count": ("synth", "--count", "{}"),
    "samples": ("synth", "--samples", "{}"),
}
LENIENT_SPELLINGS = {"underscore": "1_5", "leading-space": " 2", "arabic-indic-five": "\u0665"}


@pytest.mark.parametrize("spelling", sorted(LENIENT_SPELLINGS))
@pytest.mark.parametrize("flag_name", sorted(NUMBER_FLAGS))
def test_a_number_flag_reads_only_plain_ascii(inputs, tmp_path, capsys, flag_name, spelling):
    command, flag, value = NUMBER_FLAGS[flag_name]
    value = value.format(LENIENT_SPELLINGS[spelling])
    out = tmp_path / "out"
    if command == "synth":
        code = main(["synth", "--catalog", str(inputs / "catalog.csv"), flag, value, "--out", str(out)])
    else:
        code = run(inputs, command, flag, value, "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    named = f"error: argument {flag}: " + (f"sweep spec {value!r} has a non-numeric part" if flag == "--sweep"
                                           else "invalid ")
    assert err.startswith(named) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value, expected", [("+2", 2.0), ("2.", 2.0), (".5e1", 5.0), ("1E0", 1.0)])
def test_a_sweep_part_still_reads_a_sign_a_bare_point_and_an_exponent(inputs, tmp_path, value, expected):
    assert run(inputs, "sweep", "--sweep", f"{value}:{value}:1", "--out", str(tmp_path / "out")) == 0
    assert parse_sweep_spec(f"{value}:{value}:1") == (expected,)


# --- export-ampl ------------------------------------------------------------------

def test_export_ampl_files(inputs, tmp_path):
    out = tmp_path / "out"
    assert run(inputs, "export-ampl", "--delta", "1.5", "--out", str(out)) == 0
    mod = (out / "model.mod").read_text()
    assert "subject to Total{i in SERV}:" in mod
    assert "minimize Total_Cost:" in mod
    dat = (out / "model.dat").read_text()
    assert "'w1'" in dat


def test_export_ampl_writes_the_exported_texts_byte_for_byte(tmp_path):
    files = {"catalog": DATA / "catalog.csv", "metrics": DATA / "golden_metrics.csv",
             "bindings": DATA / "golden_bindings.csv"}
    out = tmp_path / "out"
    assert main(["export-ampl", *(f"--{k}={v}" for k, v in files.items()), "--delta", "2.5",
                 "--out", str(out)]) == 0
    catalog = load_catalog(files["catalog"].read_bytes())
    fleet = build_fleet(ingest_metrics(files["metrics"].read_bytes()), catalog,
                        load_bindings(files["bindings"].read_bytes()))
    exported = export_ampl(build_model(fleet, catalog, UtilizationPolicy.uniform(2.5)))
    assert (out / "model.dat").read_bytes() == exported.data_text.encode()
    assert (out / "model.mod").read_bytes() == exported.model_text.encode()


def test_export_ampl_rerun_identical(inputs, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(inputs, "export-ampl", "--out", str(out1)) == 0
    assert run(inputs, "export-ampl", "--out", str(out2)) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_export_ampl_empty_catalog_is_input_error(inputs, tmp_path):
    (inputs / "catalog.csv").write_text("key,cpu_ecu,mem_gib,cost_per_hour\n")
    assert run(inputs, "export-ampl", "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("flag", [["--format", "json"], ["--hours-per-year", "8760"]])
def test_export_ampl_refuses_report_flags(inputs, tmp_path, capsys, flag):
    # export-ampl writes no report, so a report flag is a usage error, not ignored
    assert run(inputs, "export-ampl", *flag, "--out", str(tmp_path / "out")) == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- control characters in identifiers -----------------------------------------------

# (file, the row added to it, the line that row lands on); each row is quoted, so
# the csv module hands the character to the loader, and names nothing the run uses
BAD_IDENTIFIER_ROWS = {
    "catalog-key": ("catalog.csv", '"lin.d{c}.small.r1",2.0,4.0,0.10', 5),
    "metrics-workload_id": ("metrics.csv", '"w{c}2",100,cpu,75', 6),
    "bindings-workload_id": ("bindings.csv", '"w{c}2",lin.a.small.r1', 3),
    "bindings-current_type": ("bindings.csv", 'w2,"lin.a{c}.small.r1"', 3),
    "policy-workload_id": ("policy.csv", '"w{c}2",2.0', 3),
}


@pytest.mark.parametrize("char", ["\r", "\x00", "\t", "\x7f"], ids=["CR", "NUL", "TAB", "DEL"])
@pytest.mark.parametrize("case", sorted(BAD_IDENTIFIER_ROWS))
def test_an_identifier_with_a_control_character_exits_1_naming_its_line(inputs, tmp_path, capsys, case, char):
    name, row, line = BAD_IDENTIFIER_ROWS[case]
    (inputs / "policy.csv").write_text("workload_id,delta\nw1,2.0\n")
    path = inputs / name
    path.write_bytes(path.read_bytes() + row.format(c=char).encode() + b"\n")
    out = tmp_path / "out"
    assert run(inputs, "optimize", "--policy", str(inputs / "policy.csv"), "--out", str(out)) == 1
    # Python 3.10's csv module refuses a NUL itself, with its own message
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")
    assert not out.exists()


# --- numbers in catalog and policy files ------------------------------------------

# (file, the row added to it, the line that row lands on, the column of {n})
BAD_NUMBER_ROWS = {
    "catalog-cpu_ecu": ("catalog.csv", "lin.d.small.r1,{n},4.0,0.10", 5, "cpu_ecu"),
    "catalog-mem_gib": ("catalog.csv", "lin.d.small.r1,2.0,{n},0.10", 5, "mem_gib"),
    "catalog-cost_per_hour": ("catalog.csv", "lin.d.small.r1,2.0,4.0,{n}", 5, "cost_per_hour"),
    "policy-delta": ("policy.csv", "w2,{n}", 3, "delta"),
}


# each is a number to `float`, which reads 10.0, 2.5, 2.5 and 4.0
@pytest.mark.parametrize("number", ["1_0", " 2.5", "2.5 ", "\u0664"],
                         ids=["underscore", "leading-space", "trailing-space", "arabic-indic-digit"])
@pytest.mark.parametrize("case", sorted(BAD_NUMBER_ROWS))
def test_a_number_not_in_plain_ascii_exits_1_naming_its_line(inputs, tmp_path, capsys, case, number):
    name, row, line, column = BAD_NUMBER_ROWS[case]
    (inputs / "policy.csv").write_text("workload_id,delta\nw1,2.0\n")
    path = inputs / name
    path.write_bytes(path.read_bytes() + row.format(n=number).encode() + b"\n")
    out = tmp_path / "out"
    assert run(inputs, "optimize", "--policy", str(inputs / "policy.csv"), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: line {line}: {column} {number!r} is not a number\n"
    assert not out.exists()


def test_an_identifier_may_hold_spaces_and_characters_past_ascii(inputs, tmp_path):
    workload = "w 2\u00a0\u00e9\u0085"
    (inputs / "metrics.csv").write_text(METRICS + METRICS.split("\n", 1)[1].replace("w1", workload),
                                        encoding="utf-8")
    (inputs / "bindings.csv").write_text(BINDINGS + f"{workload},lin.a.small.r1\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run(inputs, "export-ampl", "--out", str(out)) == 0
    assert f"'{workload}'" in (out / "model.dat").read_text(encoding="utf-8")


# --- synth --------------------------------------------------------------------------

def test_synth_same_seed_same_files(tmp_path):
    catalog = DATA / "catalog.csv"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["synth", "--catalog", str(catalog), "--seed", "42",
                     "--count", "12", "--samples", "6", "--out", str(out)]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_synth_binding_count(tmp_path):
    out = tmp_path / "out"
    assert main(["synth", "--catalog", str(DATA / "catalog.csv"), "--seed", "1",
                 "--count", "108", "--samples", "2", "--out", str(out)]) == 0
    rows = (out / "bindings.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == 108


def test_synth_missing_catalog_is_input_error(tmp_path):
    assert main(["synth", "--catalog", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out")]) == 1


def test_synth_then_optimize_on_keys_that_need_quoting(tmp_path):
    # keys with a comma, a leading and inner quote, a space, non-ASCII and U+0085
    catalog_path = DATA / "catalog_quoted_keys.csv"
    synth = tmp_path / "synth"
    assert main(["synth", "--catalog", str(catalog_path), "--seed", "5",
                 "--count", "30", "--samples", "4", "--out", str(synth)]) == 0
    out = tmp_path / "out"
    code = main(["optimize", "--catalog", str(catalog_path), "--metrics", str(synth / "metrics.csv"),
                 "--bindings", str(synth / "bindings.csv"), "--delta", "1.5", "--format", "csv",
                 "--out", str(out)])
    assert code in (0, 2)
    assert b'"' in (out / "assignment.csv").read_bytes()

    # the reports the run wrote, built in process
    catalog = load_catalog(catalog_path.read_bytes())
    fleet = build_fleet(ingest_metrics((synth / "metrics.csv").read_bytes()), catalog,
                        load_bindings((synth / "bindings.csv").read_bytes()))
    result = solve_exact(build_model(fleet, catalog, UtilizationPolicy.uniform(1.5)))
    if isinstance(result, Infeasible):
        expected = {"assignment.csv": reports.infeasible_spec(result, 1.5)}
    else:
        cost = reports.cost_spec(project_costs(fleet, catalog, result))
        utilization = reports.utilization_spec(utilization_report(fleet, catalog, result))
        flow = reports.consolidation_spec(consolidation_report(fleet, catalog, result))
        expected = {"assignment.csv": reports.assignment_spec(fleet, catalog, result, 1.5),
                    "cost_report.csv": cost, "plot_costs.csv": cost,
                    "utilization_report.csv": utilization, "plot_utilization.csv": utilization,
                    "consolidation_report.csv": flow, "plot_flow.csv": flow}
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, report in expected.items():
        columns = [c for c in report.columns if c.csv is not None]
        cells = [[c.csv for c in columns]]
        cells += [["" if (value := c.get(row)) is None else str(value) for c in columns]
                  for row in report.rows]
        with open(out / name, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == cells, name


# --- argparse behaviour ----------------------------------------------------------------

def test_unknown_flag_maps_to_exit_one(inputs, tmp_path, capsys):
    assert run(inputs, "sweep", "--bogus", "--out", str(tmp_path / "out")) == 1
    assert "error:" in capsys.readouterr().err


def test_synth_generated_inputs_run_end_to_end(tmp_path):
    catalog = DATA / "catalog.csv"
    data_dir = tmp_path / "data"
    assert main(["synth", "--catalog", str(catalog), "--seed", "9",
                 "--count", "10", "--samples", "4", "--out", str(data_dir)]) == 0
    out = tmp_path / "out"
    assert main(["optimize",
                 "--catalog", str(catalog),
                 "--metrics", str(data_dir / "metrics.csv"),
                 "--bindings", str(data_dir / "bindings.csv"),
                 "--delta", "1.5", "--out", str(out)]) in (0, 2)
    assert (out / "assignment.json").exists()
