"""One fresh benchmark process: set up one workload, run it once, check it.

Started by run.py with the BLAS thread count pinned in its environment and
`src/` on PYTHONPATH. It prints `@setup` when set-up ends and `@work` when the
workload's work ends, so the parent can time both from process start, then
checks the outputs and prints one JSON line:

    {"ops": [[name, ok], ...], "steps": n, "loop_s": s, "digests": {...},
     "overnight_carries": n, "peak_rss_mb": mb, "environment": {...},
     "trace": {"spans": {...}, "counters": {...}} or null}

With --setup-only it stops at `@setup` and prints the JSON without work.

    python3 perfbench/worker.py --workload train_allocator --seed 3 --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import traceback
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Training runs one rollout-and-update cycle of the 1m agent (n_steps 4096)
# and two of the allocator (n_steps 2048); everything else is the default
# config. The backtest market is 100 days, so the test range (from
# 2024-03-11) holds 50 sessions.
CONFIG_OVERRIDES = {
    "train_agent_1m": {"agent.1m.total_timesteps": "4096"},
    "train_allocator": {"allocator.total_timesteps": "4096"},
    "backtest_100d": {"synth.days": "100"},
}
STRATEGIES = ("hierarchy", "agent:1m", "agent:10m", "agent:1h", "buyhold")
LOG_RETURN_TOLERANCE = 1e-9


class SetupDone(Exception):
    """Raised at the end of set-up in --setup-only mode."""


class Run:
    """Outcome of one worker: the operations it checked and its main-loop timing."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.ops: list[tuple[str, bool]] = []
        self.steps = 0
        self.loop_s = 0.0
        self.overnight_carries = 0

    def setup_done(self) -> None:
        print("@setup", flush=True)
        if self.setup_only:
            raise SetupDone

    def work_done(self) -> None:
        print("@work", flush=True)

    def check(self, name: str, ok: bool) -> None:
        self.ops.append((name, bool(ok)))
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)


def _write_config(path: Path, workload: str, seed: int, out: Path) -> None:
    keys = {"run.seed": str(seed), "run.out_dir": str(out), **CONFIG_OVERRIDES[workload]}
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


def _curve_finite(path: Path) -> bool:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    losses = [float(r[k]) for r in rows for k in ("loss", "policy_loss", "value_loss")]
    return bool(rows) and all(math.isfinite(x) for x in losses)


def _telescopes(log_returns, initial: float, final: float) -> bool:
    return abs(sum(log_returns) - math.log(final / initial)) <= LOG_RETURN_TOLERANCE


def _train(run: Run, make_env, spec, hp, seed: int, ckpt: Path, curve_csv: Path, extra: dict):
    """ppo.train plus the checkpoint and curve writes, as `train-agent` does."""
    from alloctrader import ppo

    t0 = perf_counter()
    params, curve = ppo.train(make_env, spec, hp, seed)
    run.loop_s = perf_counter() - t0
    run.steps = curve.points[-1].timesteps
    ppo.save_checkpoint(str(ckpt), params, hp, seed, extra=extra)
    curve.to_csv(str(curve_csv))
    run.work_done()
    run.check("train", True)
    run.check("curve_losses_finite", _curve_finite(curve_csv))


def train_agent_1m(run: Run, cfg_path: Path, out: Path) -> None:
    from alloctrader import config, envs, market_data, ppo

    cfg = config.load_config(str(cfg_path))
    tf = market_data.Timeframe.ONE_MINUTE
    settings = cfg.agents[tf]
    sessions = market_data.synthesize(cfg.synth, cfg.seed, cfg.synth_days).sessions
    train_sessions = market_data.sessions_in_range(sessions, *cfg.train_range)
    env_config = envs.EnvConfig(
        timeframe=tf,
        window_size=settings.window_size,
        initial_cash=settings.initial_cash,
        fee_per_sell_share=cfg.fee_per_sell_share,
    )
    spec = ppo.NetworkSpec(settings.window_size * 8, settings.hidden, 3)

    def make_env():
        env = envs.TradingEnv(train_sessions, env_config)
        run.setup_done()
        return env

    extra = {"kind": "agent", "timeframe": tf.label, "window_size": settings.window_size,
             "initial_cash": settings.initial_cash}
    _train(run, make_env, spec, settings.hyperparams, cfg.seed,
           out / "agent_1m.ckpt", out / "train_curve_agent_1m.csv", extra)


def _frozen_agents(cfg, seed: int):
    """Default-size agents, initialised from the workload seed."""
    import numpy as np

    from alloctrader import allocator, envs, market_data, ppo

    rng = np.random.default_rng(seed)
    params, agents = {}, {}
    for tf in market_data.TIMEFRAME_ORDER:
        s = cfg.agents[tf]
        params[tf] = ppo.PolicyParameters.initialize(
            ppo.NetworkSpec(s.window_size * 8, s.hidden, 3), rng
        )
        agents[tf] = allocator.RegisteredAgent(
            params=params[tf],
            config=envs.EnvConfig(timeframe=tf, window_size=s.window_size,
                                  initial_cash=s.initial_cash,
                                  fee_per_sell_share=cfg.fee_per_sell_share),
        )
    return params, allocator.AgentRegistry(agents), rng


def train_allocator(run: Run, cfg_path: Path, out: Path) -> None:
    from alloctrader import allocator, config, market_data, ppo

    cfg = config.load_config(str(cfg_path))
    sessions = market_data.synthesize(cfg.synth, cfg.seed, cfg.synth_days).sessions
    train_sessions = market_data.sessions_in_range(sessions, *cfg.train_range)
    _, registry, _ = _frozen_agents(cfg, cfg.seed)
    a = cfg.allocator
    alloc_config = allocator.AllocatorConfig(
        market_window=a.market_window,
        vol_window=a.vol_window,
        initial_cash=a.initial_cash,
        fee_per_sell_share=cfg.fee_per_sell_share,
    )
    spec = ppo.NetworkSpec(allocator.observation_size(alloc_config), a.hidden, 3)
    built = []

    def make_env():
        env = allocator.HierarchyEnv(train_sessions, registry, alloc_config)
        built.append(env)
        run.setup_done()
        return env

    extra = {"kind": "allocator", "market_window": a.market_window,
             "vol_window": a.vol_window, "initial_cash": a.initial_cash}
    _train(run, make_env, spec, a.hyperparams, cfg.seed,
           out / "allocator.ckpt", out / "train_curve_allocator.csv", extra)
    env = built[0]
    values = [v for _, v in env.equity]
    run.check("equity_positive", all(v > 0 for v in values))
    run.check("decision_log_telescopes",
              _telescopes([d.log_return for d in env.decisions], values[0], values[-1]))


def _cli(run: Run, argv: list[str]) -> None:
    from alloctrader import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    run.check("cli " + " ".join(argv[:2]), code == 0)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _session_final_bars(bars_csv: Path, minutes: int) -> set[datetime]:
    """Timestamp of each session's last bar at a timeframe of `minutes`,
    with windows anchored at the session open as `resample` does."""
    first: dict = {}
    count: dict = {}
    for row in _read_csv(bars_csv):
        ts = datetime.fromisoformat(row[0])
        first.setdefault(ts.date(), ts)
        count[ts.date()] = count.get(ts.date(), 0) + 1
    return {
        first[d] + timedelta(minutes=(count[d] - 1) // minutes * minutes) for d in first
    }


def _overnight_carries(out: Path) -> int:
    """Buys at a session's final bar: the position is carried overnight."""
    bars_csv = out / "data" / "synthetic_bars.csv"
    carries = 0
    for name, minutes in (("hierarchy", 1), ("agent_1m", 1), ("agent_10m", 10), ("agent_1h", 60)):
        finals = _session_final_bars(bars_csv, minutes)
        for row in _read_csv(out / "reports" / f"{name}_trades.csv"):
            carries += row[1] == "buy" and datetime.fromisoformat(row[0]) in finals
    return carries


def backtest_100d(run: Run, cfg_path: Path, out: Path) -> None:
    from alloctrader import allocator, config, market_data, ppo

    common = ["--config", str(cfg_path)]
    cfg = config.load_config(str(cfg_path))
    _cli(run, ["synth", *common])
    params, _, rng = _frozen_agents(cfg, cfg.seed)
    ckpts = out / "checkpoints"
    ckpts.mkdir(parents=True, exist_ok=True)
    for tf in market_data.TIMEFRAME_ORDER:
        s = cfg.agents[tf]
        ppo.save_checkpoint(
            str(ckpts / f"agent_{tf.label}_seed{cfg.seed}.ckpt"), params[tf], s.hyperparams,
            cfg.seed, extra={"kind": "agent", "timeframe": tf.label,
                             "window_size": s.window_size, "initial_cash": s.initial_cash},
        )
    a = cfg.allocator
    alloc_spec = ppo.NetworkSpec(
        allocator.observation_size(allocator.AllocatorConfig(a.market_window, a.vol_window)),
        a.hidden, 3,
    )
    ppo.save_checkpoint(
        str(ckpts / f"allocator_seed{cfg.seed}.ckpt"),
        ppo.PolicyParameters.initialize(alloc_spec, rng), a.hyperparams, cfg.seed,
        extra={"kind": "allocator", "market_window": a.market_window,
               "vol_window": a.vol_window, "initial_cash": a.initial_cash},
    )
    run.setup_done()

    for strategy in STRATEGIES:
        t0 = perf_counter()
        _cli(run, ["backtest", strategy, *common])
        run.loop_s += perf_counter() - t0
    _cli(run, ["analyze", "--granularity", "daily", *common])
    _cli(run, ["report", *common])
    run.work_done()

    reports = out / "reports"
    for strategy in STRATEGIES:
        name = strategy.replace(":", "_")
        values = [float(r[1]) for r in _read_csv(reports / f"{name}_equity.csv")]
        run.steps += len(values)
        run.check(f"equity_positive {name}", bool(values) and all(v > 0 for v in values))
        if name == "hierarchy":
            log_returns = [float(r[4]) for r in _read_csv(reports / "hierarchy_allocations.csv")]
            run.check("decision_log_telescopes", _telescopes(log_returns, values[0], values[-1]))
    run.overnight_carries = _overnight_carries(out)


WORKLOADS = {
    "train_agent_1m": train_agent_1m,
    "train_allocator": train_allocator,
    "backtest_100d": backtest_100d,
}


def digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact the workload wrote, by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--trace", default="", help="write spans here and trace the run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import alloctrader
    from alloctrader import cli  # noqa: F401  (loads every module before tracing)

    expected = ROOT / "src" / "alloctrader"
    if Path(alloctrader.__file__).resolve().parent != expected:
        print(f"error: imported {alloctrader.__file__}, expected {expected}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    out = args.workdir / "out"
    out.mkdir(parents=True)
    cfg_path = args.workdir / "run.cfg"
    _write_config(cfg_path, args.workload, args.seed, out)
    run = Run(args.setup_only)
    try:
        WORKLOADS[args.workload](run, cfg_path, out)
    except SetupDone:
        pass
    except Exception:
        traceback.print_exc()
        run.check("workload completed", False)

    report = {
        "ops": run.ops,
        "steps": run.steps,
        "loop_s": run.loop_s,
        "digests": {} if args.setup_only else digests(out),
        "overnight_carries": run.overnight_carries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        "trace": None,
    }
    if tracer is not None:
        tracer.save(args.trace)
        report["trace"] = {"spans": tracer.span_stats(), "counters": dict(tracer.counters)}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
