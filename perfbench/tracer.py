"""In-memory span tracer for the traced benchmark run.

`install` wraps the public functions of each alloctrader module at every
module attribute that is bound to them, so a call is recorded wherever it is
looked up (`mark` is bound in `envs`, `allocator` and `portfolio`; `ppo.train`
finds `ppo_update` and `sample_action` through `ppo`'s globals). Methods are
wrapped on their class. The package source is never edited.

A span is (name, start, end, parent). Spans live in flat arrays while the
run goes and are written out once, when it ends. Self time is a span's
duration minus the durations of its direct children; the program is
single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Module -> public functions (or Class.method) to wrap, named
# "<module>.<function>" in the report; "cli.cmd_x" is reported as "cli.x".
TARGETS = {
    "config": ("load_config",),
    "market_data": ("synthesize", "resample", "write_sessions_csv"),
    "indicators": ("feature_table",),
    "portfolio": ("mark", "features", "buy_all", "sell_all"),
    "envs": ("build_observation", "TradingEnv.__init__", "TradingEnv.step"),
    "ppo": (
        "train",
        "ppo_update",
        "ppo_loss_and_grads",
        "sample_action",
        "gae",
        "greedy_action",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "allocator": ("HierarchyEnv.__init__", "HierarchyEnv.step"),
    "evaluation": ("compute_metrics", "quartile_allocation", "buy_and_hold", "write_equity_csv"),
    "cli": ("cmd_synth", "cmd_backtest", "cmd_analyze", "cmd_report"),
}


# Hooks run after each successful call of the span they are keyed by, for the
# counts and ratios that a duration cannot give: hook(counters, args, result).
def _saved(c, args, result):
    c["ppo.save_checkpoint.bytes"] += os.path.getsize(args[0])


def _loaded(c, args, result):
    c["ppo.load_checkpoint.bytes"] += os.path.getsize(args[0])


def _feature_rows(c, args, result):
    c["indicators.feature_table.rows"] += len(args[2])


def _bought(c, args, result):
    c["portfolio.buy_all.traded"] += result[1] > 0


def _sold(c, args, result):
    c["portfolio.sell_all.traded"] += result[1] is not None


def _updated(c, args, result):
    c["ppo.param_count"] = sum(a.size for a in args[0].arrays.values())


def _hierarchy_step(c, args, result):
    decision = result.info["decision"]
    c["allocator.base_bars_marked"] += decision.span_bars
    c["allocator.forced"] += decision.forced


HOOKS = {
    "ppo.save_checkpoint": _saved,
    "ppo.load_checkpoint": _loaded,
    "indicators.feature_table": _feature_rows,
    "portfolio.buy_all": _bought,
    "portfolio.sell_all": _sold,
    "ppo.ppo_update": _updated,
    "allocator.HierarchyEnv.step": _hierarchy_step,
}


class Tracer:
    """Records nested call spans into flat arrays plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        counters = self.counters
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total s, self s, p50/p99 of durations in us."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        stats = {}
        for sid, name in enumerate(self.names):
            mask = ids == sid
            d = dur[mask]
            stats[name] = {
                "calls": int(d.size),
                "s": float(d.sum()),
                "self_s": float(own[mask].sum()),
                "p50_us": float(np.percentile(d, 50) * 1e6) if d.size else 0.0,
                "p99_us": float(np.percentile(d, 99) * 1e6) if d.size else 0.0,
            }
        return stats

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _span_name(module: str, target: str) -> str:
    if module == "cli" and target.startswith("cmd_"):
        return "cli." + target[4:]
    return f"{module}.{target.replace('.__init__', '.init')}"


def install(tracer: Tracer, package: str = "alloctrader") -> None:
    """Wrap every TARGETS entry wherever a loaded package module binds it."""
    modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
    for module_name, targets in TARGETS.items():
        module = sys.modules[f"{package}.{module_name}"]
        for target in targets:
            name = _span_name(module_name, target)
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, target)
            wrapped = tracer.wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
