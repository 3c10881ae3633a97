"""Reference CSV writers: the row-at-a-time loops that the column writers
`market_data.write_sessions_csv`, `evaluation.write_equity_csv` and the
regimes file of `cli synth` replaced. Tests compare their bytes."""

from __future__ import annotations

import csv

from alloctrader.market_data import CSV_HEADER


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
