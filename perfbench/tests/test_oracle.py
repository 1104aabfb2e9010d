"""Self-test of the benchmark's output oracle and input generators.

Run from the root of a source checkout:

    PYTHONPATH=src python3 perfbench/tests/test_oracle.py

Each case generates a small workload, runs the real CLI in-process, checks
that the oracle accepts the output, then corrupts one value and checks that
the oracle rejects it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
from inputs import WORKLOADS, cli_args, wide_catalog_rows, write_inputs  # noqa: E402
from rightsizer.cli import main as cli_main  # noqa: E402


def small(name: str, workloads: int = 40, samples: int = 6):
    return dataclasses.replace(WORKLOADS[name], workloads=workloads, samples=samples)


class OracleTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.tmp = Path(tmp.name)

    def run_cli(self, workload, seed=3):
        inputs = write_inputs(workload, seed, self.tmp / "inputs")
        out = self.tmp / "out"
        self.assertEqual(cli_main(cli_args(workload, inputs, out)), 0)
        ref = oracle.reference(workload.command, inputs)
        self.assertEqual(oracle.check(ref, out), [])
        return ref, out

    def test_rejects_swapped_optimize_target(self):
        ref, out = self.run_cli(small("ingest-day"))
        path = out / "assignment.json"
        doc = json.loads(path.read_text())
        rows = doc["assignments"]
        wrong = next(r for r in rows[1:] if r["target_type"] != rows[0]["target_type"])
        rows[0]["target_type"] = wrong["target_type"]
        path.write_text(json.dumps(doc, indent=2) + "\n")
        problems = oracle.check(ref, out)
        self.assertTrue(any(rows[0]["workload_id"] in p for p in problems), problems)

    def test_rejects_swapped_sweep_target(self):
        ref, out = self.run_cli(small("sweep-wide"))
        path = out / "case-6.json"
        case = json.loads(path.read_text())
        first, second = list(case["assignment"])[:2]
        self.assertNotEqual(case["assignment"][first], case["assignment"][second])
        case["assignment"][first] = case["assignment"][second]
        path.write_text(json.dumps(case, indent=2) + "\n")
        self.assertTrue(any(p.startswith("case 6 ") for p in oracle.check(ref, out)))

    def test_rejects_changed_ampl_demand(self):
        ref, out = self.run_cli(small("export-wide"))
        path = out / "model.dat"
        text = path.read_text()
        line = f"    '{ref.ids[0]}' {ref.cpu_demand[0]!r}\n"
        self.assertIn(line, text)
        path.write_text(text.replace(line, f"    '{ref.ids[0]}' {ref.cpu_demand[0] * 1.001!r}\n", 1))
        self.assertTrue(any(p.startswith("cpu_d:") for p in oracle.check(ref, out)))

    def test_unreadable_output_is_a_problem(self):
        ref, out = self.run_cli(small("ingest-day"))
        (out / "assignment.json").write_text("{")
        self.assertTrue(oracle.check(ref, out)[0].startswith("unreadable output"))


class WideCatalogTest(unittest.TestCase):
    def test_keys_values_and_size(self):
        rows = wide_catalog_rows(11)
        self.assertEqual(rows, wide_catalog_rows(11))
        self.assertGreaterEqual(len(rows), 400)
        self.assertEqual(len({key for key, *_ in rows}), len(rows))
        for key, *values in rows:
            self.assertGreaterEqual(len(key.split(".")), 3)
            self.assertTrue(all(0.0 < v < float("inf") for v in values), key)

    def test_cheapest_type_steps_across_the_sweep(self):
        with tempfile.TemporaryDirectory() as tmp:
            workload = small("sweep-wide", workloads=200, samples=12)
            ref = oracle.reference(workload.command, write_inputs(workload, 5, Path(tmp)))
        per_workload = [{ref.targets[d][i] for d in oracle.SWEEP_DELTAS} for i in range(len(ref.ids))]
        stepping = sum(len(keys) >= 3 for keys in per_workload)
        self.assertGreater(stepping, 0.9 * len(ref.ids))
        self.assertIsNotNone(oracle.break_even(ref))


if __name__ == "__main__":
    unittest.main()
