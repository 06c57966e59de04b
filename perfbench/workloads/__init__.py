"""The benchmark's workloads. Each one is a seeded, repeating cycle of ops.

A cycle fixes how many ops of each kind a run holds, and the seed fixes
their inputs: cycle c draws from ``default_rng([seed, c])``, so the same
seed gives the same inputs whatever the run length.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np


class Workload:
    name = ""
    #: What one unit of ``work`` is, for ``work_per_s``.
    work_unit = ""
    #: Percentile of ``op_tail_s``. Each workload fixes its own, so that a
    #: full run leaves at least ten samples beyond it and the percentile falls
    #: inside the workload's slowest kind of op rather than among rare stalls.
    tail_percentile = 99.0
    #: Fresh processes timed for ``setup_s``; the median is reported.
    setup_probes = 5

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed % 2**63

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def setup_probe_argv(self) -> list[str]:
        return [sys.executable, str(self.root / "perfbench" / "run.py"),
                "--workload", self.name, "--seed", str(self.seed), "--setup-only"]

    def setup(self) -> dict[str, float]:
        """Import and warm up in this process; returns set-up layer metrics."""
        return {}

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def prepare(self, op):
        """Build the op's input; runs before the clock starts."""
        return None

    def execute(self, op, inp):
        raise NotImplementedError

    def check(self, op, inp, out) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def work(self, op) -> int:
        return 1

    def op_class(self, op) -> str:
        """The kind of op, for per-kind medians in the detail line."""
        return "op"

    def describe(self, op) -> str:
        return repr(op)

    def counts(self, op, out) -> dict[str, float]:
        """Exact per-op counts summed over the first traced cycle."""
        return {}

    def layer_extras(self, counts: dict[str, float], layers: dict[str, float],
                     samples) -> dict[str, float]:
        """Per-layer metrics derived from the first-cycle counts."""
        return {}

    def probe(self) -> dict[str, float]:
        """Untimed extra jobs of a traced run, reported as per-layer metrics."""
        return {}

    def summary(self) -> dict:
        """Workload-specific entries of the detail line."""
        return {}

    def close(self) -> None:
        pass


def make_workload(name: str, root: Path, seed: int) -> Workload:
    if name == "cli-replay":
        from workloads.cli_replay import CliReplay as cls
    elif name == "batch4-sweep":
        from workloads.batch4_sweep import Batch4Sweep as cls
    elif name == "nsweep-large":
        from workloads.nsweep_large import NsweepLarge as cls
    elif name == "minimize":
        from workloads.minimize import Minimize as cls
    else:
        raise ValueError(f"unknown workload {name!r}")
    return cls(root, seed)
