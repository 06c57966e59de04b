"""Closed-loop run of one workload, its statistics and its result line.

One client, one process: the next op starts when the previous one has
finished and its output has been checked. Time limits are checked between
cycles, so every run holds whole cycles and keeps each workload's mix exact.
"""
from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import OP, Tracer

#: Messages of the first failures, kept for the detail line.
MAX_FAILURE_MESSAGES = 5


@dataclass
class Samples:
    latencies: list[float] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    work: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    cycles: int = 0
    #: Index of the first op of each cycle.
    cycle_starts: list[int] = field(default_factory=list)
    first_cycle_ops: int = 0
    first_cycle_counts: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_cycles(wl, seconds: float, tracer: Tracer | None = None) -> Samples:
    """Run whole cycles of the workload's mix until ``seconds`` have passed."""
    s = Samples()
    deadline = perf_counter() + seconds
    while True:
        ops = wl.cycle(s.cycles)
        s.cycle_starts.append(len(s.latencies))
        for op in ops:
            inp = wl.prepare(op)
            err = None
            out = None
            t0 = perf_counter()
            try:
                with tracer.op_span(len(s.latencies)) if tracer else nullcontext():
                    out = wl.execute(op, inp)
            except Exception as exc:  # an op that raises is a failed op
                err = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if err is None:
                try:
                    err = wl.check(op, inp, out)
                except Exception as exc:  # a check that cannot read the output
                    err = f"check raised {type(exc).__name__}: {exc}"
            s.latencies.append(dt)
            s.classes.append(wl.op_class(op))
            s.work.append(0 if err else wl.work(op))
            if err:
                s.failed += 1
                if len(s.failures) < MAX_FAILURE_MESSAGES:
                    s.failures.append(f"{wl.describe(op)}: {err}")
            elif s.cycles == 0:
                for key, value in wl.counts(op, out).items():
                    s.first_cycle_counts[key] = s.first_cycle_counts.get(key, 0.0) + value
        if s.cycles == 0:
            s.first_cycle_ops = len(ops)
        s.cycles += 1
        if perf_counter() >= deadline:
            return s


def work_rate(samples: Samples) -> float:
    """Median over cycles of the work a cycle completed per second of its ops.

    Every cycle holds the same mix, so its rate is one sample of the
    workload's throughput; the median keeps a few seconds of interference
    from the rest of the machine out of it.
    """
    bounds = samples.cycle_starts + [samples.attempted]
    return statistics.median(sum(samples.work[a:b]) / sum(samples.latencies[a:b])
                             for a, b in zip(bounds, bounds[1:]))


def by_class(samples: Samples) -> dict[str, dict[str, float]]:
    """Op count and median latency of each kind of op in the mix."""
    groups: dict[str, list[float]] = {}
    for cls, dt in zip(samples.classes, samples.latencies):
        groups.setdefault(cls, []).append(dt)
    return {cls: {"count": len(v), "p50_s": statistics.median(v)}
            for cls, v in sorted(groups.items())}


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Latency at percentile ``pct`` (nearest rank), and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(math.ceil(len(ordered) * pct / 100.0), 1)
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_until_ready(argv: list[str], env: dict, cwd: Path) -> float:
    """Seconds from spawning ``argv`` until it prints its first line."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)
    try:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe {argv} exited {code} after {line!r}")
    return t1 - t0


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)")


def import_times(env: dict, cwd: Path, repeats: int = 3) -> dict[str, float]:
    """Median import costs of ``import entpot.cli``, from ``-X importtime``."""
    rows = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import entpot.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, check=True,
        )
        entpot_self = numpy_cum = total = 0
        for m in _IMPORTTIME.finditer(proc.stderr):
            self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(3)
            total += self_us
            if name == "entpot" or name.startswith("entpot."):
                entpot_self += self_us
            elif name == "numpy":
                numpy_cum = cum_us
        rows.append((entpot_self / 1e3, numpy_cum / 1e3, total / 1e3))
    med = [statistics.median(col) for col in zip(*rows)]
    return {"import.entpot_self_ms": med[0], "import.numpy_ms": med[1],
            "import.total_ms": med[2]}


def program_env(root: Path) -> dict:
    """Environment for child processes, with the checkout's sources first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(root: Path, blas_threads: int, seed: int) -> dict:
    """What the numbers depend on, read without touching files outside the checkout."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "ram_gb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def layer_metrics(tracer: Tracer, samples: Samples) -> dict[str, float]:
    """Per-op self time and first-cycle call count of every traced layer."""
    spans = tracer.arrays()
    n_ops = max(samples.attempted, 1)
    first = max(samples.first_cycle_ops, 1)
    in_op = spans["op"] >= 0  # spans outside an op come from untimed checks
    in_first = spans["op"] < samples.first_cycle_ops
    out: dict[str, float] = {}
    for nid, name in enumerate(tracer.names):
        if name == OP:
            continue
        mask = (spans["name"] == nid) & in_op
        out[f"{name}.self_ms"] = float(spans["self"][mask].sum()) / n_ops * 1e3
        out[f"{name}.calls"] = float(np.count_nonzero(mask & in_first)) / first
        out[f"{name}.total_s"] = float((spans["end"] - spans["start"])[mask].sum())
        if name == "reduction.all_balanced_purities":
            dur = spans["end"] - spans["start"]
            for n in (9, 10, 11, 12):
                sel = mask & (spans["tag"] == n)
                if np.any(sel):
                    out[f"{name}.warm_ms.n{n}"] = float(np.median(dur[sel])) * 1e3
    flops = tracer.subset_purity_flops
    busy = out.get("reduction.subset_purity.total_s", 0.0)
    out["reduction.gflop_computed"] = flops / n_ops / 1e9
    out["reduction.gbytes_computed"] = tracer.subset_purity_bytes / n_ops / 1e9
    out["reduction.gflop_per_s"] = flops / busy / 1e9 if busy > 0 else 0.0
    return out
