"""alloctrader benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train_agent_1m --seed 1 --seconds 40 --trace 0

Run from the repository root. Each iteration of the workload is a fresh
worker process (perfbench/worker.py) with the BLAS thread count pinned, so
set-up is always cold. Set-up-only processes, which stop where set-up ends,
alternate with iterations while the next pair is predicted to end within
--seconds; set-up is sampled at least SETUP_SAMPLES times. With --trace 0 the
last stdout line carries the end-to-end metrics (medians over iterations);
with --trace 1 it alternates untraced and traced iterations and carries the
per-layer metrics of the last traced one.

Every iteration's outputs are checked (see worker.py) and their sha256
digests must agree across iterations, across traced and untraced runs, and
across runs of the same source tree and seed (kept under .perfbench/digests).
Full results, the environment record and the spans of traced runs are written
under .perfbench/results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("train_agent_1m", "train_allocator", "backtest_100d")
SETUP_SAMPLES = 5
BLAS_THREADS = "1"  # never more than nproc
WORKER_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Sample:
    """One worker process: its parent-side timings and its JSON report."""

    def __init__(self, setup_s: float | None, wall_s: float | None, elapsed: float, report: dict):
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.elapsed = elapsed
        self.report = report


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(workload: str, seed: int, workdir: Path, *, setup_only=False, spans="") -> Sample:
    """Start one worker; time `@setup` and `@work` from the moment of spawn."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--trace", spans]
    marks = {}
    lines = []
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("@"):
                marks[line.strip()[1:]] = perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
        elapsed = perf_counter() - t0
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not lines:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with code {code}")
    return Sample(marks.get("setup"), marks.get("work"), elapsed, json.loads(lines[-1]))


def source_digest() -> str:
    """Identifies the program and benchmark code a digest set belongs to."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


class Ledger:
    """Operations attempted and failed, and the digest set they must share."""

    def __init__(self, workload: str, seed: int):
        self.attempted = 0
        self.failed = 0
        self.digests: dict | None = None
        self.store = STATE / "digests" / source_digest() / f"{workload}-seed{seed}.json"

    def op(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"failed: {name}", file=sys.stderr)

    def add(self, sample: Sample) -> None:
        for name, ok in sample.report["ops"]:
            self.op(name, ok)
        if sample.wall_s is None:
            return
        d = sample.report["digests"]
        if self.digests is None:
            self.digests = d
        else:
            self.op("digests equal across iterations", d == self.digests)

    def check_store(self) -> None:
        """Every run of one source tree and seed must give one digest set."""
        if self.digests is None:
            return
        if self.store.exists():
            self.op("digests equal across runs", json.loads(self.store.read_text()) == self.digests)
        else:
            self.store.parent.mkdir(parents=True, exist_ok=True)
            self.store.write_text(json.dumps(self.digests, indent=1, sort_keys=True))


def completed(samples: list[Sample]) -> list[Sample]:
    """Iterations that reached the end of their work (failures are in the ledger)."""
    done = [s for s in samples if s.wall_s is not None and s.report["loop_s"] > 0]
    if not done:
        raise BenchError("no iteration completed its work")
    return done


def end_to_end(iterations: list[Sample], setups: list[float | None]) -> dict:
    iterations = completed(iterations)
    setups = [s for s in setups if s is not None]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(s.wall_s for s in iterations), "s"),
        "steps_per_s": (
            statistics.median(s.report["steps"] / s.report["loop_s"] for s in iterations), "1/s"
        ),
        "peak_rss_mb": (max(s.report["peak_rss_mb"] for s in iterations), "MB"),
    }


def per_layer(traced: list[Sample], plain: list[Sample]) -> dict:
    """Per-layer metrics of the last traced iteration; see README.md for the map."""
    spans = traced[-1].report["trace"]["spans"]
    counters = traced[-1].report["trace"]["counters"]
    out = {}

    def span(name: str, *stats: str) -> None:
        for stat in stats:
            unit = {"calls": "count", "p50_us": "us", "p99_us": "us"}.get(stat, "s")
            out[f"{name}.{stat}"] = (spans[name][stat], unit)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    span("ppo.train", "calls", "s")
    span("ppo.ppo_update", "calls", "s", "self_s")
    span("ppo.ppo_loss_and_grads", "calls", "s")
    out["ppo.minibatches"] = (
        ratio(spans["ppo.ppo_loss_and_grads"]["calls"], spans["ppo.ppo_update"]["calls"]), "count"
    )
    out["ppo.param_count"] = (counters.get("ppo.param_count", 0), "count")
    span("ppo.sample_action", "calls", "s", "p50_us", "p99_us")
    span("ppo.gae", "s")
    span("ppo.greedy_action", "calls", "s")
    for name in ("ppo.save_checkpoint", "ppo.load_checkpoint"):
        span(name, "calls", "s")
        out[f"{name}.bytes"] = (counters.get(f"{name}.bytes", 0), "bytes")
    span("allocator.HierarchyEnv.step", "calls", "s", "self_s", "p50_us", "p99_us")
    steps = spans["allocator.HierarchyEnv.step"]["calls"]
    marked = counters.get("allocator.base_bars_marked", 0)
    out["allocator.base_bars_marked"] = (marked, "count")
    out["allocator.bars_per_decision"] = (ratio(marked, steps), "ratio")
    out["allocator.forced_share"] = (ratio(counters.get("allocator.forced", 0), steps), "ratio")
    span("allocator.HierarchyEnv.init", "s")
    span("envs.TradingEnv.init", "s")
    span("indicators.feature_table", "calls", "s")
    out["indicators.feature_table.rows"] = (counters.get("indicators.feature_table.rows", 0), "count")
    for name in ("market_data.synthesize", "market_data.resample", "config.load_config"):
        span(name, "calls", "s")
    span("envs.TradingEnv.step", "calls", "self_s", "p50_us", "p99_us")
    span("envs.build_observation", "s")
    span("portfolio.mark", "calls", "s")
    span("portfolio.features", "calls", "s")
    for side in ("buy", "sell"):
        name = f"portfolio.{side}_all"
        span(name, "calls")
        out[f"portfolio.{side}_fill_ratio"] = (
            ratio(counters.get(f"{name}.traded", 0), spans[name]["calls"]), "ratio"
        )
    for name in ("evaluation.compute_metrics", "evaluation.quartile_allocation",
                 "evaluation.buy_and_hold", "evaluation.write_equity_csv",
                 "market_data.write_sessions_csv", "cli.synth", "cli.backtest",
                 "cli.analyze", "cli.report"):
        span(name, "s")
    out["ppo.ppo_update.share_of_train"] = (
        ratio(spans["ppo.ppo_update"]["s"], spans["ppo.train"]["s"]), "ratio"
    )
    out["allocator.HierarchyEnv.step.share_of_train"] = (
        ratio(spans["allocator.HierarchyEnv.step"]["s"], spans["ppo.train"]["s"]), "ratio"
    )
    out["check.overnight_carries"] = (traced[-1].report["overnight_carries"], "count")
    out["trace.overhead_share"] = (
        statistics.median(s.wall_s for s in completed(traced))
        / statistics.median(s.wall_s for s in completed(plain)) - 1.0, "ratio"
    )
    return out


def _sample_record(s: Sample) -> dict:
    return {"setup_s": s.setup_s, "wall_s": s.wall_s, "steps": s.report["steps"],
            "loop_s": s.report["loop_s"], "peak_rss_mb": s.report["peak_rss_mb"]}


def declared_metrics() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alloctrader benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "alloctrader" / "__init__.py").is_file():
        print(f"error: no alloctrader sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(args.workload, args.seed)
    traced: list[Sample] = []
    try:
        iterations = [run_worker(args.workload, args.seed, work)]
        ledger.add(iterations[0])
        if args.trace:
            spans_path = str(results / f"{tag}.spans.npz")
            # Untraced and traced iterations alternate while the next pair is
            # predicted to fit; the overhead compares their median wall times.
            while True:
                traced.append(run_worker(args.workload, args.seed, work, spans=spans_path))
                ledger.add(traced[-1])
                pair = max(s.elapsed for s in iterations) + max(s.elapsed for s in traced)
                if perf_counter() - start + pair > args.seconds:
                    break
                iterations.append(run_worker(args.workload, args.seed, work))
                ledger.add(iterations[-1])
            metrics = per_layer(traced, iterations)
            expected = declared_metrics()[1]
        else:
            setups = [iterations[0].setup_s]
            setup_only = []

            def add_setup() -> None:
                setup_only.append(run_worker(args.workload, args.seed, work, setup_only=True))
                ledger.add(setup_only[-1])
                setups.append(setup_only[-1].setup_s)

            # Alternate set-up-only processes with iterations, so both sample
            # the whole run, while the next pair is predicted to fit.
            while True:
                add_setup()
                pair = max(s.elapsed for s in setup_only) + max(s.elapsed for s in iterations)
                if perf_counter() - start + pair > args.seconds:
                    break
                iterations.append(run_worker(args.workload, args.seed, work))
                ledger.add(iterations[-1])
                setups.append(iterations[-1].setup_s)
            while len(setups) < SETUP_SAMPLES:
                add_setup()
            metrics = end_to_end(iterations, setups)
            expected = declared_metrics()[0]
        ledger.check_store()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if sorted(metrics) != sorted(expected):
        print(f"error: metrics {sorted(set(metrics) ^ set(expected))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": iterations[0].report["environment"],
        "iterations": [_sample_record(s) for s in iterations],
        "traced_iterations": [_sample_record(s) for s in traced],
        "overnight_carries": iterations[0].report["overnight_carries"],
        "digests": ledger.digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
