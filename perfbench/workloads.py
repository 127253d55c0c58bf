"""The benchmark's three workloads, as engine specs.

Each workload is built from the program's named experiments and then
shifted by the workload seed: every spec's seed grid ``(0, 1, ...)``
becomes ``(seed, seed + 1, ...)``.  The program only ever receives the
generated specs, so a claim can be rechecked on a seed that was not
used while writing a change.  A run measures one or more such seeds
(:func:`seed_sets`).

* ``landscape`` - the sound cross-product of ``landscape`` for n from
  64 to 512, two seeds for randomized solvers, run serially and cold.
* ``separation`` - ``sinkless`` at its defaults plus ``padding`` at its
  default 4096-node budget, run serially and cold.
* ``landscape-pool`` - the specs of ``landscape`` through the process
  pool with the CLI's default worker count, writing a fresh trial
  cache, then replayed warm from that cache.
"""

from __future__ import annotations

import dataclasses

WORKLOADS = ("landscape", "separation", "landscape-pool")

LANDSCAPE_MAX_N = 512

#: Independent seed sets one run measures.  ``separation``'s work swings
#: by a third from seed to seed (its cubic builds resample until
#: simple), so a run averages two seed sets there.
SEED_SETS = {"landscape": 1, "separation": 2, "landscape-pool": 1}
#: Distance between the seed sets of one run.
SEED_SET_STRIDE = 1_000_003
#: Workloads whose step times ``run.py`` scales by the calibration loop.
#: Over the same ten runs the scaling cut the spread of ``run_s`` from
#: 22% to 8% (``landscape``) and to 12% (``landscape-pool``), and widened
#: it from 16% to 27% on ``separation``, whose few long steps do not
#: follow the loop's speed (README, Reference figures).
CALIBRATED = ("landscape", "landscape-pool")


def seed_sets(workload: str, seed: int) -> list[int]:
    """The workload seeds one run with ``--seed seed`` measures."""
    return [seed + k * SEED_SET_STRIDE for k in range(SEED_SETS[workload])]


def build_specs(workload: str, seed: int) -> list:
    """The workload's engine specs, seed grids shifted by ``seed``."""
    from repro.engine import build_experiment

    if workload in ("landscape", "landscape-pool"):
        specs = build_experiment("landscape", max_n=LANDSCAPE_MAX_N, seed_count=2)
    elif workload == "separation":
        specs = build_experiment("sinkless") + build_experiment("padding")
    else:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    return [
        dataclasses.replace(spec, seeds=tuple(seed + s for s in spec.seeds))
        for spec in specs
    ]


def uses_pool(workload: str) -> bool:
    return workload == "landscape-pool"


def renders_table(workload: str) -> bool:
    """Does the CLI print the Figure 1 table for this workload's run?"""
    return workload in ("landscape", "landscape-pool")
