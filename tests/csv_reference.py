"""Reference CSV writers: the `csv.writer` loops that `atomic.write_csv`
replaced in every table writer, and the regimes file of `cli synth`. Tests
compare their bytes."""

from __future__ import annotations

import csv

from alloctrader.market_data import CSV_HEADER, TIMEFRAME_ORDER


def write_sessions_csv(sessions, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for s in sessions:
            for row in zip(s.timestamps, s.open.tolist(), s.high.tolist(), s.low.tolist(),
                           s.close.tolist(), s.volume.tolist()):
                writer.writerow([row[0].isoformat(), *map(repr, row[1:5]), row[5]])


def write_equity_csv(curve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for ts, v in zip(curve.timestamps, curve.values):
            writer.writerow([ts.isoformat(), repr(float(v))])


def write_regimes_csv(result, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,regime\n")
        for session, labels in zip(result.sessions, result.regimes):
            for ts, regime in zip(session.timestamps, labels.tolist()):
                fh.write(f"{ts.isoformat()},{regime}\n")


def write_trade_log(entries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "side", "shares", "price", "realized_reward"])
        for e in entries:
            writer.writerow(
                [e.timestamp.isoformat(), e.side, e.shares, repr(e.price), repr(e.realized_reward)]
            )


def write_decision_log(decisions, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["timestamp", "chosen_timeframe", "forced_flag", "span_bars", "span_log_return"])
        for d in decisions:
            writer.writerow(
                [d.timestamp.isoformat(), d.timeframe.label, int(d.forced),
                 d.span_bars, repr(d.log_return)]
            )


def write_quartile_plot_csv(report, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["quartile", "units", "vol_min", "vol_max"]
            + [f"share_{tf.label}" for tf in TIMEFRAME_ORDER]
        )
        for i, q in enumerate(report.quartiles):
            writer.writerow(
                [i, q.units, repr(q.vol_min), repr(q.vol_max)]
                + [repr(s) for s in q.shares]
            )


def write_training_curve(curve, path) -> None:
    names = ["timesteps", "mean_step_reward", "mean_episode_return", "loss",
             "policy_loss", "value_loss", "entropy", "clip_fraction"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for p in curve.points:
            writer.writerow([p.timesteps] + [repr(getattr(p, n)) for n in names[1:]])
