"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 perfbench/selftest.py

Covers the output checks, the self-time arithmetic on a synthetic span
tree, and one short real run per mode that must print every metric of
BENCHMARK.json by name with its unit.  The real runs take about 20 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import check
import run as bench
import spans

VERIFY_OK = "\n".join(
    f"PASS {o:9s} tau={t} basis=+0.35116609 grid=+0.35116731 |diff|=1.23e-06 tol=1.00e-03"
    for o in ("axial", "tilted", "in_plane") for t in ("0", "1", "2")
) + "\nall verification points passed\n"


def sweep_text(rows: list[list]) -> str:
    lines = ["tau,variant,eps0,eps0_physical,nu_dominant"]
    lines += [f"{tau},{variant},{eps0},{-float(eps0):.12g},{nu}" for tau, variant, eps0, nu in rows]
    return "\n".join(lines) + "\n"


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.ref = bench.load_reference("field_map.json")["tilted5"]

    def test_reference_rows_pass(self):
        self.assertEqual(check.sweep_csv(0, sweep_text(self.ref), self.ref), 0)

    def test_perturbed_eps0_fails(self):
        rows = [list(r) for r in self.ref]
        rows[40][2] = repr(float(rows[40][2]) + 2e-9)
        self.assertEqual(check.sweep_csv(0, sweep_text(rows), self.ref), 1)
        rows[40][2] = repr(float(self.ref[40][2]) + 5e-10)
        self.assertEqual(check.sweep_csv(0, sweep_text(rows), self.ref), 0)

    def test_wrong_nu_fails(self):
        rows = [list(r) for r in self.ref]
        rows[7][3] = rows[7][3] + 1
        self.assertEqual(check.sweep_csv(0, sweep_text(rows), self.ref), 1)

    def test_missing_and_extra_rows_fail(self):
        self.assertEqual(check.sweep_csv(0, sweep_text(self.ref[:-2]), self.ref), 2)
        self.assertEqual(check.sweep_csv(0, sweep_text(self.ref + self.ref[:1]), self.ref), 1)

    def test_nonzero_exit_fails_every_row(self):
        self.assertEqual(check.sweep_csv(3, sweep_text(self.ref), self.ref), len(self.ref))
        self.assertEqual(check.sweep_csv(0, None, self.ref), len(self.ref))

    def test_verify_pass_and_margin(self):
        failed, margin = check.verify_output(0, VERIFY_OK)
        self.assertEqual(failed, 0)
        self.assertAlmostEqual(margin, 1.23e-3)

    def test_verify_fail_line_and_exit(self):
        text = VERIFY_OK.replace("PASS tilted    tau=1", "FAIL tilted    tau=1", 1)
        self.assertEqual(check.verify_output(2, text)[0], 9)
        self.assertEqual(check.verify_output(0, text)[0], 1)
        self.assertEqual(check.verify_output(0, "\n".join(VERIFY_OK.splitlines()[1:]))[0], 1)

    def test_exact_output(self):
        self.assertEqual(check.exact(0, "a\n", "a\n"), 0)
        self.assertEqual(check.exact(0, "a \n", "a\n"), 1)
        self.assertEqual(check.exact(1, "a\n", "a\n"), 1)


class SpanTest(unittest.TestCase):
    # cli.main [0, 10] > grid_solve [1, 6] > eigh [2, 5]; assemble [7, 9] and
    # [8.5, 11] under cli.main, the second overlapping the first and leaking
    # past its parent: each part of the parent is counted covered once.
    SPANS = [
        [0, "cli.main", 0.0, 10.0, None, 0],
        [1, "oracle.grid_solve", 1.0, 6.0, 0, 0],
        [2, "oracle.eigh", 2.0, 5.0, 1, 0],
        [3, "hamiltonian.assemble", 7.0, 9.0, 0, 0],
        [4, "hamiltonian.assemble", 8.5, 11.0, 0, 0],
    ]

    def test_self_times(self):
        self.assertEqual(spans.self_times(self.SPANS), [2.0, 2.0, 3.0, 2.0, 2.5])

    def test_layer_metrics(self):
        dump = {"spans": self.SPANS, "missing": ["solver.eigensolve"], "matrix": [2048, 67108864]}
        m = spans.layer_metrics(dump, traced_wall_s=23.0)
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["oracle.build_s"], 2.0)
        self.assertEqual(m["oracle.grid_solve.busy_s"], 5.0)
        self.assertEqual(m["oracle.eigh.busy_s"], 3.0)
        self.assertEqual(m["hamiltonian.assemble.calls"], 2)
        self.assertEqual(m["hamiltonian.assemble.busy_s"], 4.5)
        self.assertEqual(m["oracle.matrix_dim"], 2048)
        self.assertAlmostEqual(m["trace.coverage"], 0.5)
        self.assertIsNone(m["solver.eigensolve.calls"])
        self.assertIsNone(m["solver.general_share"])
        self.assertEqual(m["solver.eigensolve_general.calls"], 0)

    def test_merge_renumbers(self):
        merged = spans.merge([{"spans": self.SPANS[:2], "missing": [], "matrix": [0, 0]},
                              {"spans": self.SPANS[:2], "missing": ["x"], "matrix": [4, 8]}])
        self.assertEqual([s[0] for s in merged["spans"]], [0, 1, 2, 3])
        self.assertEqual([s[4] for s in merged["spans"]], [None, 0, None, 2])
        self.assertEqual(merged["missing"], ["x"])
        self.assertEqual(merged["matrix"], [4, 8])


class RunTest(unittest.TestCase):
    def run_bench(self, root: Path, trace: int) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_cold", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, timeout=170)

    def test_prints_every_metric_with_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = self.run_bench(bench.ROOT, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            declared = [(n, u) for s, n, u in bench.metric_table() if s == section]
            self.assertEqual(set(result["metrics"]), {n for n, _ in declared})
            for name, unit in declared:
                self.assertEqual(result["metrics"][name]["unit"], unit)
                self.assertTrue(any(line.split()[:1] == [name] and line.split()[2] == unit
                                    for line in lines[:-1]), name)

    def test_fails_without_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shutil.copy(bench.ROOT / "BENCHMARK.json", root)
            shutil.copytree(bench.HERE, root / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.run_bench(root, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
