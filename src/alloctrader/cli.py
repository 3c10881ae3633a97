"""Command-line pipeline: data preparation, agent and allocator training,
backtesting, and report generation.

Every command loads and fully validates the config first, then works inside
the output directory layout `checkpoints/`, `logs/`, `reports/`, `data/`.
Failures print a single `error: ...` line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path
from typing import Callable

from . import AlloctraderError
from .allocator import (
    AgentRegistry,
    AllocatorConfig,
    AllocatorError,
    HierarchyEnv,
    RegisteredAgent,
    read_decision_log,
    run_hierarchy,
    write_decision_log,
)
from .atomic import atomic_write, write_json
from .config import ConfigError, RunConfig, default_config, load_config
from .envs import EnvConfig, EnvError, TradingEnv, run_agent
from .evaluation import (
    EquityCurve,
    EvaluationError,
    annualization_factor,
    buy_and_hold,
    compute_metrics,
    quartile_allocation,
    write_equity_csv,
    write_metrics,
)
from .market_data import (
    MarketDataError,
    Session,
    TIMEFRAME_ORDER,
    Timeframe,
    TradingCalendar,
    ingest_csv,
    iso_timestamps,
    sessions_in_range,
    synthesize,
    write_sessions_csv,
)
from .portfolio import TradeLogEntry, buy_all, write_trade_log
from .ppo import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint, train

STRATEGIES = ("hierarchy", "agent:1m", "agent:10m", "agent:1h", "buyhold")


class _Paths:
    def __init__(self, out_dir: str):
        self.out = Path(out_dir)
        self.checkpoints = self.out / "checkpoints"
        self.logs = self.out / "logs"
        self.reports = self.out / "reports"
        self.data = self.out / "data"
        for p in (self.checkpoints, self.logs, self.reports, self.data):
            p.mkdir(parents=True, exist_ok=True)

    def agent_checkpoint(self, tf: Timeframe, seed: int) -> Path:
        return self.checkpoints / f"agent_{tf.label}_seed{seed}.ckpt"

    def allocator_checkpoint(self, seed: int) -> Path:
        return self.checkpoints / f"allocator_seed{seed}.ckpt"


def _load_run(args) -> tuple[RunConfig, _Paths]:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg, _Paths(cfg.out_dir)


def _materialize_sessions(cfg: RunConfig) -> tuple[Session, ...]:
    if cfg.source == "synthetic":
        return synthesize(cfg.synth, cfg.seed, cfg.synth_days).sessions
    calendar = TradingCalendar.from_file(cfg.calendar_path)
    return ingest_csv(cfg.csv_path, calendar).sessions


def _require_range(sessions, start: date, end: date, label: str):
    picked = sessions_in_range(sessions, start, end)
    if not picked:
        raise MarketDataError(f"no sessions in {label} range {start}..{end}")
    return picked


def _refuse_existing(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise CheckpointError(f"checkpoint exists: {path} (use --force to overwrite)")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg, paths = _load_run(args)
    result = synthesize(cfg.synth, cfg.seed, cfg.synth_days)
    bars_path = paths.data / "synthetic_bars.csv"
    write_sessions_csv(result.sessions, str(bars_path))
    result.calendar.to_file(str(paths.data / "synthetic_calendar.csv"))
    with atomic_write(paths.data / "synthetic_regimes.csv", newline="") as fh:
        fh.write("timestamp,regime\n")
        for session, labels in zip(result.sessions, result.regimes):
            fh.write("".join(map("{},{}\n".format, iso_timestamps(session), labels.tolist())))
    total = sum(len(s) for s in result.sessions)
    print(f"generated {len(result.sessions)} sessions ({total} bars) under {paths.data}")
    return 0


def _train(cfg: RunConfig, paths: _Paths, ckpt_path: Path, title: str, settings, make_env,
           extra: dict) -> int:
    """Train the policy `settings` describes (an AgentSettings or an
    AllocatorSettings) on `make_env`'s environments, then write the
    checkpoint with `extra` and the training curve named after it."""
    params, curve = train(make_env, settings.network, settings.hyperparams, cfg.seed)
    save_checkpoint(str(ckpt_path), params, settings.hyperparams, cfg.seed, extra=extra)
    curve.to_csv(str(paths.logs / f"train_curve_{ckpt_path.stem}.csv"))
    print(f"trained {title} for {settings.hyperparams.total_timesteps} timesteps -> {ckpt_path}")
    return 0


def cmd_train_agent(args) -> int:
    cfg, paths = _load_run(args)
    tf = Timeframe.from_label(args.timeframe)
    settings = cfg.agents[tf]
    ckpt_path = paths.agent_checkpoint(tf, cfg.seed)
    _refuse_existing(ckpt_path, args.force)
    sessions = _materialize_sessions(cfg)
    train_sessions = _require_range(sessions, *cfg.train_range, "train")
    extra = {"kind": "agent", "timeframe": tf.label, "window_size": settings.window_size,
             "initial_cash": settings.initial_cash}
    return _train(cfg, paths, ckpt_path, f"{tf.label} agent", settings,
                  lambda: TradingEnv(train_sessions, settings), extra)


def _extra(path, ckpt: Checkpoint, key: str, convert: Callable):
    """`convert(ckpt.extra[key])`, or CheckpointError naming the file and the key.
    For `int` the value must be an int and for `float` a finite number; a bool is
    neither."""
    if key not in ckpt.extra:
        raise CheckpointError(f"{path}: checkpoint extra has no {key!r}")
    value = ckpt.extra[key]
    kinds = {int: int, float: (int, float)}.get(convert, object)
    try:
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError(f"not a {convert.__name__}")
        result = convert(value)
        if convert is float and not math.isfinite(result):
            raise ValueError("not finite")
        return result
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(
            f"{path}: checkpoint extra {key!r} has a bad value ({value!r:.40})"
        ) from exc


def _require_origin(path, ckpt: Checkpoint, kind: str, seed: int) -> None:
    """CheckpointError naming the file unless the checkpoint was saved as a
    `kind` ("agent" or "allocator") trained at the run's `seed`."""
    if "kind" not in ckpt.extra:
        raise CheckpointError(f"{path}: checkpoint extra has no 'kind'")
    if ckpt.extra["kind"] != kind:
        raise CheckpointError(
            f"{path}: checkpoint extra 'kind' is {ckpt.extra['kind']!r:.40}, expected {kind!r}"
        )
    if ckpt.seed != seed:
        raise CheckpointError(f"{path}: checkpoint of seed {ckpt.seed}, not the run's seed {seed}")


def _load_agent(cfg: RunConfig, paths: _Paths, tf: Timeframe) -> RegisteredAgent:
    """The `tf` agent of this seed; its checkpoint must have been trained at `tf`."""
    path = paths.agent_checkpoint(tf, cfg.seed)
    if not path.exists():
        raise CheckpointError(f"missing checkpoint: {tf.label} (expected {path})")
    ckpt = load_checkpoint(str(path))
    _require_origin(path, ckpt, "agent", cfg.seed)
    trained = _extra(path, ckpt, "timeframe", Timeframe.from_label)
    if trained is not tf:
        raise CheckpointError(
            f"{path}: checkpoint is a {trained.label} agent, expected {tf.label}"
        )
    try:
        env_config = EnvConfig(
            timeframe=tf,
            window_size=_extra(path, ckpt, "window_size", int),
            initial_cash=_extra(path, ckpt, "initial_cash", float),
            fee_per_sell_share=cfg.fee_per_sell_share,
        )
    except EnvError as exc:
        raise CheckpointError(f"{path}: checkpoint extras out of range: {exc}") from exc
    return RegisteredAgent(params=ckpt.params, config=env_config)


def _load_registry(cfg: RunConfig, paths: _Paths) -> AgentRegistry:
    return AgentRegistry({tf: _load_agent(cfg, paths, tf) for tf in TIMEFRAME_ORDER})


def cmd_train_allocator(args) -> int:
    cfg, paths = _load_run(args)
    settings = cfg.allocator
    ckpt_path = paths.allocator_checkpoint(cfg.seed)
    _refuse_existing(ckpt_path, args.force)
    registry = _load_registry(cfg, paths)
    sessions = _materialize_sessions(cfg)
    train_sessions = _require_range(sessions, *cfg.train_range, "train")
    extra = {"kind": "allocator", "market_window": settings.market_window,
             "vol_window": settings.vol_window, "initial_cash": settings.initial_cash}
    return _train(cfg, paths, ckpt_path, "allocator", settings,
                  lambda: HierarchyEnv(train_sessions, registry, settings), extra)


def _write_backtest(
    cfg: RunConfig,
    paths: _Paths,
    name: str,
    curve: EquityCurve,
    trades,
    periods_per_year: float,
) -> None:
    write_equity_csv(curve, str(paths.reports / f"{name}_equity.csv"))
    write_trade_log(trades, str(paths.reports / f"{name}_trades.csv"))
    report = compute_metrics(curve, periods_per_year)
    write_metrics(
        report,
        cfg.seed,
        str(paths.reports / f"{name}_metrics.json"),
        str(paths.reports / f"{name}_metrics.txt"),
    )
    print(f"{name}: {report.to_text()}", end="")


def _backtest_buyhold(cfg: RunConfig, paths: _Paths, test_sessions) -> None:
    curve = buy_and_hold(test_sessions, cfg.allocator.initial_cash)
    first_ts, first_close = test_sessions[0].timestamps[0], float(test_sessions[0].close[0])
    _, shares = buy_all(cfg.allocator.initial_cash, first_close)
    trades = [TradeLogEntry(first_ts, "buy", shares, first_close, 0.0)] if shares else []
    _write_backtest(cfg, paths, "buyhold", curve, trades, annualization_factor(curve.timestamps))


def _backtest_agent(cfg: RunConfig, paths: _Paths, sessions, test_start: date, label: str) -> None:
    tf = Timeframe.from_label(label)
    agent = _load_agent(cfg, paths, tf)
    env = TradingEnv(sessions, agent.config)
    first = next((i for i, ts in enumerate(env.timestamps) if ts.date() >= test_start), None)
    if first is None:
        raise MarketDataError(f"no bars on or after test start {test_start}")
    # The first decision is taken at the close of the first timeframe bar.
    cursor = min(first + tf.minutes - 1, int(env.session_close[first]))
    if cursor < env.min_cursor:
        raise EnvError(
            f"insufficient warmup before test start {test_start}: bar {cursor} "
            f"but observations need {env.min_cursor + 1} bars of history"
        )
    curve = EquityCurve.from_pairs(run_agent(env, agent.params, cursor).equity)
    name = f"agent_{tf.label}"
    _write_backtest(cfg, paths, name, curve, env.trades, annualization_factor(curve.timestamps))


def _backtest_hierarchy(cfg: RunConfig, paths: _Paths, sessions, test_start: date) -> None:
    alloc_path = paths.allocator_checkpoint(cfg.seed)
    if not alloc_path.exists():
        raise CheckpointError(f"missing checkpoint: allocator (expected {alloc_path})")
    registry = _load_registry(cfg, paths)
    ckpt = load_checkpoint(str(alloc_path))
    _require_origin(alloc_path, ckpt, "allocator", cfg.seed)
    try:
        alloc_config = AllocatorConfig(
            market_window=_extra(alloc_path, ckpt, "market_window", int),
            vol_window=_extra(alloc_path, ckpt, "vol_window", int),
            initial_cash=_extra(alloc_path, ckpt, "initial_cash", float),
            fee_per_sell_share=cfg.fee_per_sell_share,
        )
    except AllocatorError as exc:
        raise CheckpointError(f"{alloc_path}: checkpoint extras out of range: {exc}") from exc
    env = run_hierarchy(sessions, registry, ckpt.params, alloc_config, start_day=test_start)
    curve = EquityCurve.from_pairs(env.equity)
    log_path = paths.reports / "hierarchy_allocations.csv"
    write_decision_log(env.decisions, str(log_path))
    write_json(log_path.with_suffix(".json"), {"seed": cfg.seed})
    _write_backtest(cfg, paths, "hierarchy", curve, env.trades,
                    annualization_factor(curve.timestamps))


def cmd_backtest(args) -> int:
    cfg, paths = _load_run(args)
    sessions = _materialize_sessions(cfg)
    test_start, test_end = cfg.test_range
    test_sessions = _require_range(sessions, test_start, test_end, "test")
    # Sessions before the test range stay available as indicator warmup.
    eval_sessions = sessions_in_range(sessions, None, test_end)
    if args.strategy == "buyhold":
        _backtest_buyhold(cfg, paths, test_sessions)
    elif args.strategy.startswith("agent:"):
        _backtest_agent(cfg, paths, eval_sessions, test_start, args.strategy.split(":", 1)[1])
    else:
        _backtest_hierarchy(cfg, paths, eval_sessions, test_start)
    return 0


def cmd_analyze(args) -> int:
    cfg, paths = _load_run(args)
    log_path = Path(args.log or paths.reports / "hierarchy_allocations.csv")
    if not log_path.exists():
        raise AllocatorError(f"allocation log not found: {log_path} (run backtest hierarchy first)")
    seed_path = log_path.with_suffix(".json")
    if not seed_path.exists():
        raise AllocatorError(f"allocation log {log_path} has no seed file {seed_path}")
    seed = _read_object(seed_path, "allocation log seed").get("seed")
    if type(seed) is not int or seed != cfg.seed:
        raise AllocatorError(f"{seed_path}: allocation log of seed {seed!r:.40}, "
                             f"not the run's seed {cfg.seed}")
    decisions = read_decision_log(str(log_path))
    if not decisions:
        raise AllocatorError(f"allocation log {log_path} has no decisions")
    sessions = _materialize_sessions(cfg)
    data_start = sessions[0].timestamps[0]
    data_end = sessions[-1].timestamps[-1]
    log_start = min(d.timestamp for d in decisions)
    log_end = max(d.timestamp for d in decisions)
    if log_start < data_start or log_end > data_end:
        raise AllocatorError(
            f"allocation log spans {log_start}..{log_end} but market data spans "
            f"{data_start}..{data_end}"
        )
    report = quartile_allocation(decisions, sessions, args.granularity)
    stem = paths.reports / f"quartiles_{args.granularity}"
    write_json(f"{stem}.json", {**report.to_json_dict(), "seed": cfg.seed})
    with atomic_write(f"{stem}.txt") as fh:
        fh.write(report.to_text())
    report.to_plot_csv(f"{stem}.csv")
    print(report.to_text(), end="")
    return 0


def _read_object(path: Path, kind: str) -> dict:
    """A JSON object of a report file; anything else is a corrupt `kind` file."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise EvaluationError(f"{path}: corrupt {kind} file ({exc})") from exc
    if not isinstance(data, dict):
        raise EvaluationError(f"{path}: corrupt {kind} file (not a JSON object)")
    return data


def _read_metrics(path: Path) -> dict:
    """A backtest's metrics JSON: an object whose three reported values are
    numbers, except that an undefined `sharpe` is null."""
    data = _read_object(path, "metrics")
    for key in ("cumulative_return_pct", "sharpe", "max_drawdown_pct"):
        if key not in data:
            raise EvaluationError(f"{path}: metrics file has no {key!r}")
        value = data[key]
        if value is None and key == "sharpe":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EvaluationError(f"{path}: metrics {key!r} is not a number ({value!r})")
    return data


def cmd_report(args) -> int:
    """Tabulate every metrics and quartiles file under reports/, each of the run's seed."""
    cfg, paths = _load_run(args)
    metrics = {path: _read_metrics(path) for path in sorted(paths.reports.glob("*_metrics.json"))}
    if not metrics:
        raise EvaluationError(f"no metrics files under {paths.reports}; run backtest first")
    quartiles = sorted(paths.reports.glob("quartiles_*.txt"))
    tagged = dict(metrics)
    for path in quartiles:
        sibling = path.with_suffix(".json")
        tagged[path] = _read_object(sibling, "quartiles") if sibling.exists() else {}
    others = []
    for path, data in tagged.items():
        seed = data.get("seed")
        if type(seed) is not int or seed != cfg.seed:
            others.append(f"{path.name} (seed {seed!r:.40})" if "seed" in data
                          else f"{path.name} (no seed)")
    if others:
        raise EvaluationError(
            f"{paths.reports}: metrics not of the run's seed {cfg.seed}: {', '.join(others)}"
        )
    lines = [
        f"{'strategy':<12} {'return %':>10} {'sharpe':>10} {'mdd %':>10}",
    ]
    for path, data in metrics.items():
        name = path.name.replace("_metrics.json", "")
        sharpe_val = data["sharpe"]
        sharpe_text = "undef" if sharpe_val is None else f"{sharpe_val:.4f}"
        lines.append(
            f"{name:<12} {data['cumulative_return_pct']:>10.2f} {sharpe_text:>10} "
            f"{data['max_drawdown_pct']:>10.2f}"
        )
    for path in quartiles:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise EvaluationError(f"{path}: corrupt quartiles file ({exc})") from exc
        lines.append("")
        lines.append(text.rstrip("\n"))
    text = "\n".join(lines) + "\n"
    with atomic_write(paths.reports / "summary.txt") as fh:
        fh.write(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so that it exits 1 with one
    `error:` line like every other failure. Subparsers take the same class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--out", help="override run.out_dir")
    common.add_argument("--force", action="store_true",
                        help="overwrite existing checkpoints")

    parser = _Parser(
        prog="alloctrader",
        description="Hierarchical multi-timeframe trading agents: train, backtest, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate synthetic minute bars")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-agent", parents=[common], help="train one timeframe agent")
    p.add_argument("timeframe", choices=[tf.label for tf in TIMEFRAME_ORDER])
    p.set_defaults(func=cmd_train_agent)

    p = sub.add_parser("train-allocator", parents=[common],
                       help="train the allocator over frozen agents")
    p.set_defaults(func=cmd_train_allocator)

    p = sub.add_parser("backtest", parents=[common], help="run a strategy over the test range")
    p.add_argument("strategy", choices=list(STRATEGIES))
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("analyze", parents=[common],
                       help="volatility-quartile allocation analysis")
    p.add_argument("--log", help="allocation log CSV (default: reports/hierarchy_allocations.csv)")
    p.add_argument("--granularity", choices=["monthly", "daily", "hourly"], default="daily")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", parents=[common], help="combine emitted reports into a summary")
    p.set_defaults(func=cmd_report)

    return parser


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


def main(argv=None) -> int:
    """Run one command. Afterwards the C heap's free pages go back to the OS
    (glibc's malloc_trim), so a process that runs several commands does not
    keep the largest one's transient arrays resident. glibc trims by itself
    only when the free space is at the top of the heap, which depends on
    where the last live allocation happens to sit."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except AlloctraderError as exc:
        message = str(exc).replace("\n", "; ")
        print(f"error: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
