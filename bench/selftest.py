"""Self-tests of the benchmark: python3 bench/selftest.py (from the repository root).

They check that the tracer intercepts every layer boundary it names, that
deterministic counters repeat for a seed, that a missing entry point turns
into null metrics, that the answer checks reject wrong answers, that an
overrunning workload is killed and counted as failed, that a child process
is killed at its timeout, and that BENCHMARK.json lists what run.py reports.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import dodgsonyoung as dy  # noqa: E402
from dodgsonyoung import exact, homogeneous, reductions  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import BINDINGS, Tracer  # noqa: E402

DETERMINISTIC = (
    "lp.solve_lp_calls",
    "lp.nonzeros_sum",
    "profiles.expanded_voters",
    "homogeneous.program_cols",
)
SAMPLE_CALLS = 24


def _workdir() -> Path:
    run.OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.OUT))


def _traced_sample(name: str, seed: int) -> tuple[Tracer, workloads.Workload]:
    workload = workloads.make(name, seed, run.OUT)
    with Tracer() as tracer:
        for call in workload.calls(0)[:SAMPLE_CALLS]:
            call.run()
    return tracer, workload


class TracerTest(unittest.TestCase):
    def test_every_binding_intercepts_calls(self):
        chain = workloads.CLIChain(1, _workdir())
        try:
            text = (workloads.TESTS / "fixtures" / "cycle.elect").read_text()
            with Tracer() as tracer:
                profile = dy.parse_profile(text)
                # the reduction chain brute-forces Young Winner only on tiny instances
                reductions.young_scores_bruteforce_all(profile)
                for scheme in workloads.SCHEMES:
                    workloads.score(scheme, profile, "A")
                exact.dodgson_winner(profile, "A")
                exact.young_winner(profile, "A")
                homogeneous.dodgson_star_winner(profile, "A")
                homogeneous.young_star_winner(profile, "A")
                for call in chain.calls(0, inprocess=True):
                    call.run()
        finally:
            chain.close()
        idle = [binding for binding, hits in tracer.hits.items() if hits == 0]
        self.assertEqual(idle, [])
        self.assertEqual(tracer.missing, [])
        self.assertTrue(all(value is not None for value in tracer.metrics().values()))

    def test_bindings_are_restored(self):
        before = {(m, p): _attr(m, p) for m, p, _ in BINDINGS}
        with Tracer():
            pass
        self.assertEqual(before, {(m, p): _attr(m, p) for m, p, _ in BINDINGS})

    def test_deterministic_counters_repeat_for_a_seed(self):
        for name in ("ic-distinct", "replicated"):
            with self.subTest(workload=name):
                first, w1 = _traced_sample(name, 7)
                second, w2 = _traced_sample(name, 7)
                other, w3 = _traced_sample(name, 8)
                counts = {k: first.metrics()[k] for k in DETERMINISTIC}
                self.assertTrue(all(counts[k] > 0 for k in DETERMINISTIC[:2]), counts)
                self.assertEqual(counts, {k: second.metrics()[k] for k in DETERMINISTIC})
                self.assertEqual(w1.profiles, w2.profiles)
                self.assertNotEqual(w1.profiles, w3.profiles)

    def test_missing_entry_point_reports_null_with_warning(self):
        bindings = BINDINGS + (("dodgsonyoung.exact", "removed_by_refactor", "exact.gain_matrix"),)
        err = io.StringIO()
        profile = dy.parse_profile((workloads.TESTS / "fixtures" / "cycle.elect").read_text())
        with contextlib.redirect_stderr(err), Tracer(bindings) as tracer:
            dy.dodgson_score(profile, "A")
        metrics = tracer.metrics()
        self.assertIn("removed_by_refactor", err.getvalue())
        for name in ("exact.gain_matrix_ms", "exact.gain_matrix_calls", "exact.self_ms"):
            self.assertIsNone(metrics[name], name)
        self.assertGreater(metrics["lp.solve_ilp_calls"], 0)


def _attr(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class CheckTest(unittest.TestCase):
    def test_wrong_answers_are_rejected(self):
        workload = workloads.ICDistinct(3)
        calls = workload.calls(0)
        for scheme in workloads.SCHEMES:
            with self.subTest(scheme=scheme):
                call = next(c for c in calls if c.kind == scheme and "-n15" in c.key[0])
                value = call.run()
                self.assertIsNone(workload.check(call.key, value))
                wrong = value + 1 if scheme in ("dodgson", "young") else -1
                self.assertIsNotNone(workload.check(call.key, wrong))

    def test_replicated_scaling_is_checked(self):
        workload = workloads.Replicated(3)
        call = next(c for c in workload.calls(0) if c.kind == "dodgson-star" and c.key[0].endswith("-q4"))
        value = call.run()
        self.assertIsNone(workload.check(call.key, value))
        self.assertIsNotNone(workload.check(call.key, value + 1))

    def test_cli_goldens_and_verify_are_checked(self):
        chain = workloads.CLIChain(3, _workdir())
        try:
            for call in chain.calls(0, inprocess=True):
                if call.kind == "verify" or call.key == ("condorcet_cycle.txt",):
                    code, out = call.run()
                    self.assertIsNone(chain.check(call.key, (code, out)))
                    self.assertIsNotNone(chain.check(call.key, (1, out)))
                    if call.key[0] in chain.golden:
                        wrong = out + b" "
                    else:
                        wrong = out.replace(b'"consistent": true', b'"consistent": false')
                    self.assertIsNotNone(chain.check(call.key, (0, wrong)))
        finally:
            chain.close()


class WatchdogTest(unittest.TestCase):
    def test_overrunning_workload_is_killed_and_counted_as_failed(self):
        args = argparse.Namespace(workload="ic-distinct", seed=1, seconds=30.0, trace=0)
        limit, run.COMMAND_LIMIT_S = run.COMMAND_LIMIT_S, 5.0
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                record = run.run_workload(args, time.monotonic())
        finally:
            run.COMMAND_LIMIT_S = limit
        self.assertEqual((record["attempted"], record["failed"]), (1, 1))
        self.assertIn("exceeded", record["reasons"][0])
        self.assertIsNone(record["metrics"]["calls_per_s"]["value"])

    def test_child_process_timeout_kills_the_child(self):
        code, out = workloads.run_child([sys.executable, "-c", "print('ok')"])
        self.assertEqual((code, out.strip()), (0, b"ok"))
        start = time.perf_counter()
        with self.assertRaises(subprocess.TimeoutExpired):
            workloads.run_child([sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5)
        self.assertLess(time.perf_counter() - start, 10)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
