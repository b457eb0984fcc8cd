"""Benchmark of the dodgsonyoung library and CLI, end to end and layer by layer.

    python3 bench/run.py --workload ic-distinct --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

One caller, one call in flight, at most one CLI child at a time (a closed
loop).  Each workload runs in its own child process under a wall-clock
limit.  With ``--trace 0`` the child calls the workload's scorers or CLI
verbs for ``--seconds`` and the end-to-end metrics are printed; with
``--trace 1`` it runs one fixed pass untraced and once more traced, and the
per-layer metrics are printed (the pass is fixed so that counters repeat).
Every answer is checked after the timed window; a wrong answer, an
exception, a nonzero exit or a timeout counts as a failed call and makes
the command exit 1.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Full results, and the
spans of a traced run, are written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("ic-distinct", "replicated", "cli-chain")
PASSES = 8  # passes generated during set-up; a faster program wraps around
SETUP_REPEATS = 6  # set-up is timed in this many fresh processes
COMMAND_LIMIT_S = 170.0  # each workload ends within this many seconds
IMPORT_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "dodgson_p50_ms": "ms",
    "young_p50_ms": "ms",
    "dodgson_star_p50_ms": "ms",
    "young_star_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
SCHEME_METRICS = {
    "dodgson": "dodgson_p50_ms",
    "young": "young_p50_ms",
    "dodgson-star": "dodgson_star_p50_ms",
    "young-star": "young_star_p50_ms",
}
PER_LAYER = {
    "profiles.parse_ms": "ms",
    "profiles.parse_calls": "count",
    "profiles.tally_ms": "ms",
    "profiles.expanded_calls": "count",
    "profiles.expanded_voters": "count",
    "lp.solve_lp_calls": "count",
    "lp.solve_lp_ms": "ms",
    "lp.solve_ilp_calls": "count",
    "lp.solve_ilp_ms": "ms",
    "lp.build_ms": "ms",
    "lp.rows_sum": "count",
    "lp.cols_sum": "count",
    "lp.nonzeros_sum": "count",
    "lp.nodes_per_ilp": "ratio",
    "lp.solution_max_bits": "bits",
    "exact.self_ms": "ms",
    "exact.gain_matrix_ms": "ms",
    "exact.gain_matrix_calls": "count",
    "homogeneous.self_ms": "ms",
    "homogeneous.program_cols": "count",
    "reductions.alpha_ms": "ms",
    "reductions.kappa_ms": "ms",
    "reductions.construct_ms": "ms",
    "reductions.young_ms": "ms",
    "reductions.chain_ms": "ms",
    "cli.import_ms": "ms",
    "cli.inproc_ms": "ms",
    "cli.process_overhead_ms": "ms",
    "trace_overhead_ratio": "ratio",
}


# -- host record ----------------------------------------------------------------


def calibrate(iterations: int = 30_000) -> float:
    """Seconds taken by a fixed pure-Python Fraction loop (host speed probe)."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, iterations + 1):
        x += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, 7)
        if x > 1000:
            x -= 1000
    return time.perf_counter() - start


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_commit": commit,
        "src_lines": src_lines,
    }


class HostSpeed:
    """Calibration slices interleaved with the timed work.

    The speed of a shared host drifts by up to 2x within a minute, and pure
    Python code slows down in proportion.  A short Fraction loop is timed
    every ``EVERY_S`` seconds.  A wall time is scaled by the reference slice
    time over the median of the slices within ``WINDOW_S`` of it, which gives
    the time the work would take on a host where the slice takes
    ``REFERENCE_S``; the median keeps a slice caught by a brief stall from
    skewing the calls around it.
    """

    ITERATIONS = 2_000
    REFERENCE_S = 0.018
    EVERY_S = 0.25
    WINDOW_S = 2.0

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, seconds)
        self._next = 0.0

    def probe(self) -> None:
        start = time.perf_counter()
        self.slices.append((start, self._slice()))
        self._next = time.perf_counter() + self.EVERY_S

    def _slice(self) -> float:
        return calibrate(self.ITERATIONS)

    def maybe_probe(self) -> None:
        if time.perf_counter() >= self._next:
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        starts = [start for start, _ in self.slices]
        lo = min(bisect.bisect_left(starts, t0 - self.WINDOW_S), bisect.bisect_right(starts, t0) - 1)
        hi = max(bisect.bisect_right(starts, t1 + self.WINDOW_S), bisect.bisect_left(starts, t1) + 1)
        near = [seconds for _, seconds in self.slices[max(lo, 0) : hi]]
        return self.REFERENCE_S / statistics.median(near)


class ProcessSpeed(HostSpeed):
    """Host speed for work done in child processes (the CLI calls).

    Process start and imports slow down less than the Fraction loop when the
    host is busy, so the slice is a stdlib-only child process that imports
    what the CLI imports from the standard library.
    """

    REFERENCE_S = 0.075
    EVERY_S = 0.5
    WINDOW_S = 4.0

    def _slice(self) -> float:
        from workloads import run_child

        start = time.perf_counter()
        code, _ = run_child([sys.executable, "-c", "import argparse, fractions, json"])
        if code != 0:
            raise BenchError(f"process speed probe exited with code {code}")
        return time.perf_counter() - start


# -- child process: one workload ------------------------------------------------


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def _run_calls(calls, records: list, speed: HostSpeed, deadline=None, tracer=None) -> bool:
    """Run calls in order, appending (kind, key, t0, t1, value, error).

    Returns True when the deadline stopped the loop.
    """
    perf = time.perf_counter
    for call in calls:
        speed.maybe_probe()
        if tracer is not None:
            tracer.call_id += 1
        t0 = perf()
        try:
            value, error = call.run(), None
        except Exception as exc:  # a failed call is counted, not fatal
            value, error = None, repr(exc)
        t1 = perf()
        records.append((call.kind, call.key, t0, t1, value, error))
        if deadline is not None and t1 >= deadline:
            return True
    return False


def _timed_pass(calls, records: list, speed: HostSpeed, tracer=None) -> float:
    """Run every call once; the summed call time at reference host speed."""
    first = len(records)
    _run_calls(calls, records, speed, tracer=tracer)
    speed.probe()
    return sum((r[3] - r[2]) * speed.scale(r[2], r[3]) for r in records[first:])


def _latency_metrics(records: list, speed: HostSpeed | None) -> dict:
    """Throughput and latency percentiles; at reference speed unless speed is None."""
    ms = [(r[3] - r[2]) * 1000 * (speed.scale(r[2], r[3]) if speed else 1.0) for r in records]
    completed = sum(1 for r in records if r[5] is None)
    out = {
        "calls_per_s": completed / (sum(ms) / 1000),
        "call_p50_ms": statistics.median(ms),
        "call_p90_ms": _percentile(ms, 90),
    }
    # per scheme, the median over distinct inputs of each input's median, so
    # that an input repeated in every pass (a CLI golden) counts once
    by_input: dict[tuple, list[float]] = {}
    for t, r in zip(ms, records):
        by_input.setdefault((r[0], r[1]), []).append(t)
    for scheme, metric in SCHEME_METRICS.items():
        mine = [statistics.median(v) for (kind, _), v in by_input.items() if kind == scheme]
        out[metric] = statistics.median(mine) if mine else None
    return out


def _check(workload, records: list) -> tuple[int, list[str]]:
    """Failed-call count and the first few reasons; each distinct input checked once."""
    verdicts: dict[tuple, str | None] = {}
    answers: dict[tuple, object] = {}
    failed, reasons = 0, []
    for kind, key, _, _, value, error in records:
        if error is None and key not in verdicts:
            try:
                verdicts[key] = workload.check(key, value)
            except Exception as exc:  # an oracle that raises is a failed check
                verdicts[key] = f"check raised {exc!r}"
            answers[key] = value
        elif error is None and answers[key] != value:
            error = f"answer changed between calls: {value!r} != {answers[key]!r}"
        reason = error or verdicts.get(key)
        if reason is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{kind} {key}: {reason}")
    return failed, reasons


def _import_ms() -> float:
    from workloads import cli_env, run_child

    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        code, _ = run_child([sys.executable, "-c", "import dodgsonyoung"], env=cli_env())
        if code != 0:
            raise BenchError(f"import dodgsonyoung exited with code {code}")
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def child(args) -> int:
    import workloads
    from workloads import CLIChain

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, workdir)
    try:
        passes = [workload.calls(i) for i in range(PASSES)]
        workload.warm_up()
        ready = time.monotonic()
        if args.role == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        records: list = []
        result: dict = {"ready": ready}
        if not args.trace:
            speed = ProcessSpeed() if isinstance(workload, CLIChain) else HostSpeed()
            start = time.perf_counter()
            deadline = start + args.seconds
            index = 0
            while not _run_calls(passes[index % PASSES], records, speed, deadline):
                index += 1
            window_s = time.perf_counter() - start
            speed.probe()
            who = resource.RUSAGE_CHILDREN if isinstance(workload, CLIChain) else resource.RUSAGE_SELF
            metrics = _latency_metrics(records, speed)
            metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
            result.update(
                window_s=window_s,
                passes=len(records) / len(passes[0]),
                raw=_latency_metrics(records, None),
                calibration_slices_s=statistics.quantiles([d for _, d in speed.slices], n=4),
            )
        else:
            from tracing import Tracer

            fixed = passes[0]
            metrics = {}
            if isinstance(workload, CLIChain):
                process_s = _timed_pass(fixed, records, ProcessSpeed())
                fixed = workload.calls(0, inprocess=True)
            untraced_s = _timed_pass(fixed, records, HostSpeed())
            with Tracer() as tracer:
                traced_s = _timed_pass(fixed, records, HostSpeed(), tracer)
            metrics.update(tracer.metrics())
            metrics["trace_overhead_ratio"] = traced_s / untraced_s
            metrics["cli.import_ms"] = _import_ms()
            if isinstance(workload, CLIChain):
                metrics["cli.inproc_ms"] = untraced_s / len(fixed) * 1000
                metrics["cli.process_overhead_ms"] = (process_s - untraced_s) / len(fixed) * 1000
            else:
                metrics["cli.inproc_ms"] = metrics["cli.process_overhead_ms"] = 0.0
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-s{args.seed}.json"
            spans_path.write_text(json.dumps({"missing": tracer.missing, "spans": tracer.dump()}))
            result.update(spans=str(spans_path.relative_to(ROOT)), calls_traced=len(fixed))
        failed, reasons = _check(workload, records)
        result.update(attempted=len(records), failed=failed, reasons=reasons, metrics=metrics)
        print(json.dumps(result))
        return 0
    finally:
        workload.close()


# -- parent process ---------------------------------------------------------------


class BenchError(RuntimeError):
    """The benchmark itself could not run (for example, the program is absent)."""


def _spawn(args, role: str, limit: float) -> tuple[dict, float]:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    spawned = time.monotonic()
    # its own process group, so that a CLI child still running is killed too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(limit, 1.0))
    except BaseException as exc:  # a timeout, or this process being stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise TimeoutError(f"{args.workload} {role} process exceeded {limit:.0f} s") from None
        raise
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{args.workload} {role} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def run_workload(args, started: float) -> dict:
    """Set up several times, then measure once; returns the workload's record."""
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record["calibration_s"] = {"before": calibrate()}
    setups, raw_setups = [], []
    speed = HostSpeed()
    try:
        for i in range(SETUP_REPEATS):
            role = "measure" if i == SETUP_REPEATS - 1 else "setup"
            limit = COMMAND_LIMIT_S - (time.monotonic() - started)
            speed.probe()
            data, spawned = _spawn(args, role, limit)
            speed.probe()
            slice_s = (speed.slices[-1][1] + speed.slices[-2][1]) / 2
            raw_setups.append(data["ready"] - spawned)
            setups.append(raw_setups[-1] * HostSpeed.REFERENCE_S / slice_s)
        record.update(attempted=data["attempted"], failed=data["failed"], reasons=data["reasons"])
        metrics = data["metrics"]
        for key in ("window_s", "passes", "raw", "calibration_slices_s", "spans", "calls_traced"):
            if key in data:
                record[key] = data[key]
    except (TimeoutError, BenchError) as exc:
        if isinstance(exc, BenchError) and not setups:
            raise  # the first set-up failed: the program cannot be run at all
        record.update(attempted=1, failed=1, reasons=[str(exc)])
        metrics = {}
    record["calibration_s"]["after"] = calibrate()
    if args.trace:
        names = PER_LAYER
    else:
        names = END_TO_END
        metrics["setup_s"] = statistics.median(setups) if setups else None
        record.setdefault("raw", {})["setup_s"] = statistics.median(raw_setups) if raw_setups else None
    record["metrics"] = {
        name: {"value": metrics.get(name), "unit": unit} for name, unit in names.items()
    }
    return record


def _show(record: dict) -> None:
    ratio = record["failed"] / record["attempted"]
    print(
        f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"attempted={record['attempted']}  failed={record['failed']}  failed_ratio={ratio:.4f}"
    )
    for reason in record["reasons"]:
        print(f"  FAILED {reason}")
    raw = record.get("raw", {})
    if raw:
        print(f"  {'metric':<26} {'reference':>12} {'wall clock':>12}")
    for name, m in record["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        wall = f"{raw[name]:.6g}" if raw.get(name) is not None else ""
        print(f"  {name:<26} {value:>12} {wall:>12} {m['unit']}")
    cal = record["calibration_s"]
    print(f"  calibration loop: {cal['before']:.4f} s before, {cal.get('after', 0):.4f} s after")


def parent(args) -> int:
    # SIGTERM unwinds like an exception, so that the workload process is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            args_one = argparse.Namespace(**{**vars(args), "workload": name})
            records.append(run_workload(args_one, time.monotonic()))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print("environment " + json.dumps(env))
    for record in records:
        _show(record)
    OUT.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"environment": env, "runs": records}, indent=1))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(
        m["value"] is not None for r in records if not r["trace"] for m in r["metrics"].values()
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The calibration slices only track the speed of the CPU they run on; a
    CLI child on another CPU of a shared host runs at a different speed.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "setup", "measure"), default="parent", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _pin_to_one_cpu()
    if args.role != "parent":
        sys.path.insert(0, str(ROOT / "src"))
        return child(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
