"""The two kinds of run: end-to-end metrics untraced, per-layer metrics traced."""
from __future__ import annotations

import gc
import json
import statistics
import sys
from pathlib import Path

from harness import (
    by_class,
    import_times,
    layer_metrics,
    peak_rss_mb,
    program_env,
    run_cycles,
    tail,
    time_until_ready,
    work_rate,
)
from tracing import Tracer


def declared(root: Path, kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _result(root: Path, kind: str, values: dict[str, float], attempted: int, failed: int):
    units = declared(root, kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"no value for declared metrics {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def _samples_detail(samples) -> dict:
    return {"samples": samples.attempted, "cycles": samples.cycles, "by_class": by_class(samples),
            "fail_frac": samples.failed / max(samples.attempted, 1),
            "failures": samples.failures}


def settle() -> None:
    """Freeze the objects import and set-up made, before the timed run.

    They live as long as the process. Unfrozen, every full collection walks
    them all (numpy, entpot and the benchmark itself): a 5 ms pause about
    once every 500 commands of ``cli-replay``, which a one-shot CLI process
    never reaches, and the slowest 0.1% of its commands were these pauses.
    """
    gc.collect()
    gc.freeze()


def end_to_end(wl, seconds: float):
    env = program_env(wl.root)
    # compiles the sources once, so no timed probe pays for writing bytecode
    time_until_ready([sys.executable, "-c", "import entpot.cli; print('ready')"], env, wl.root)
    setups = [time_until_ready(wl.setup_probe_argv(), env, wl.root)
              for _ in range(wl.setup_probes)]
    wl.setup()
    settle()
    samples = run_cycles(wl, seconds)
    lat = samples.latencies
    tail_s, beyond = tail(lat, wl.tail_percentile)
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "work_per_s": work_rate(samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = _samples_detail(samples)
    detail.update(tail_percentile=wl.tail_percentile, tail_beyond=beyond, work_unit=wl.work_unit,
                  setup_samples_s=setups, **wl.summary())
    return _result(wl.root, "end_to_end", values, samples.attempted, samples.failed), detail


def per_layer(wl, seconds: float):
    values = {name: 0.0 for name in declared(wl.root, "per_layer")}
    values.update(wl.setup())
    values.update(import_times(program_env(wl.root), wl.root))
    settle()
    base = run_cycles(wl, seconds / 2)
    tracer = Tracer()
    with tracer.patched():
        traced = run_cycles(wl, seconds / 2, tracer=tracer)
    layers = layer_metrics(tracer, traced)
    values.update({k: v for k, v in layers.items() if k in values})
    values.update(wl.layer_extras(traced.first_cycle_counts, layers, traced))
    values.update(wl.probe())
    values["trace.overhead_frac"] = (statistics.median(traced.latencies)
                                     / statistics.median(base.latencies) - 1.0)
    out_dir = wl.root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{wl.name}.npz")
    detail = {"untraced": _samples_detail(base), "traced": _samples_detail(traced),
              "first_cycle_counts": traced.first_cycle_counts,
              "spans": len(tracer.start), **wl.summary()}
    unknown = sorted(set(values) - set(declared(wl.root, "per_layer")))
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics {unknown}")
    return _result(wl.root, "per_layer", values, base.attempted + traced.attempted,
                   base.failed + traced.failed), detail
