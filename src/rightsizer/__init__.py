"""Assign running cloud workloads to the cheapest instance types that fit
their observed resource demand, and analyze the cost, utilization, and
consolidation effects of doing so.

Importing the package loads none of its modules. Each name below is
imported from its module on first access and then kept here, so a program
loads only the layers it uses.
"""

__version__ = "0.1.0"

# each public name, by the module that defines it
_NAMES_BY_MODULE = {
    "analysis": (
        "BreakEven",
        "ConsolidationReport",
        "CostReport",
        "FlowEdge",
        "SweepCase",
        "SweepResult",
        "TTestResult",
        "UtilizationMeans",
        "UtilizationReport",
        "WorkloadCost",
        "WorkloadUtilization",
        "consolidation_report",
        "default_sweep_deltas",
        "project_costs",
        "run_sweep",
        "t_test",
        "utilization_report",
    ),
    "catalog": ("HOURS_PER_YEAR", "Catalog", "InstanceType", "dump_catalog", "load_catalog"),
    "metrics": (
        "DemandStats",
        "Fleet",
        "Metric",
        "SeriesAccumulator",
        "WorkloadProfile",
        "build_fleet",
        "compute_demand_stats",
        "ingest_metrics",
        "load_bindings",
    ),
    "model": (
        "AmplExport",
        "AssignmentModel",
        "UtilizationPolicy",
        "build_model",
        "export_ampl",
        "feasible_set",
        "load_policy",
    ),
    "solve": (
        "AssignmentSolution",
        "Infeasible",
        "InfeasibleRow",
        "Violation",
        "solve_bruteforce",
        "solve_exact",
        "solve_sweep",
        "validate_solution",
    ),
    "synth": ("SynthOutput", "SynthSpec", "generate"),
}
_MODULE_OF = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
