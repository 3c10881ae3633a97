"""Hierarchical multi-timeframe RL trading research engine.

Three PPO agents trade buy/sell/hold at 1-minute, 10-minute and 1-hour bars;
a meta-agent (the allocator) picks which agent is active next and is paid the
log-return of portfolio value over each decision span. The package covers the
whole experiment loop: data ingestion/synthesis, feature computation,
training, backtesting, and evaluation reports. The package itself exports
nothing but `AlloctraderError`: import every other name from its module,
e.g. `alloctrader.ppo.train`.

Importing the package caps BLAS at one thread unless the environment says
otherwise: the PPO update already runs its two nets on two threads, and at
these matrix sizes more BLAS threads only add start-up and contention. The
cap has no effect when numpy was imported before this package.
"""

import os as _os

for _name in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    _os.environ.setdefault(_name, "1")
del _name


class AlloctraderError(Exception):
    """Base of every error the package raises on bad input or misuse. Each
    module's error also derives from ValueError or RuntimeError."""
