"""minimize: ``minimize_potential`` jobs with the CLI's default settings.

A cycle holds one n = 4 job of 20 restarts and four n = 6 jobs of 4
restarts, each with its own seed drawn from the workload seed. An n = 6 job
takes about a third of an n = 4 one, so the median op falls among the
n = 6 jobs and the tail, p90, at the middle of the n = 4 jobs: no figure
rests on the slowest few jobs of a run, which a few seconds of load from
the rest of the machine decide.

n = 7 and 8 (2 restarts each) are not in the timed mix: one restart there
takes 350 to 5000 iterations depending on its start point, so the few jobs
a run can hold make its figures spread by more than any bound the
benchmark could keep. A traced run times one job of each as a probe.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np
from entpot import mmes_search
from entpot.mmes_search import MinimizeConfig

import reference
from workloads import Workload

JOBS = ((4, 20), (6, 4), (6, 4), (6, 4), (6, 4))
PROBE_JOBS = ((7, 2), (8, 2))
#: best_value must equal the reference kernel's pi_ME of best_state to this.
VALUE_TOL = 1e-10


def solved(n: int, value: float) -> bool:
    ref = reference.MINIMIZE_REFERENCE[n]["value"]
    return value - ref <= reference.SOLVED_TOL


class Minimize(Workload):
    name = "minimize"
    work_unit = "restarts"
    tail_percentile = 90.0

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.jobs = 0
        self.solved = 0

    def setup(self):
        rng = self.rng(2**32)
        for n in sorted({n for n, _ in JOBS + PROBE_JOBS}):
            point = rng.standard_normal(1 << (n + 1))
            mmes_search.objective(point)
            mmes_search.gradient(point)
        return {}

    def cycle(self, index):
        rng = self.rng(index)
        seeds = rng.integers(0, 2**63, size=len(JOBS))
        order = rng.permutation(len(JOBS))
        # the first n = 4 job of a run is run twice: results must be identical
        return [(index, int(j), *JOBS[j], int(seeds[j]), index == 0 and j == 0)
                for j in order]

    def execute(self, op, inp):
        _, _, n, restarts, seed, _ = op
        return mmes_search.minimize_potential(
            MinimizeConfig(n_qubits=n, restarts=restarts, seed=seed))

    def check(self, op, inp, out):
        _, _, n, restarts, seed, repeat = op
        if len(out.traces) != restarts or len(out.converged) != restarts:
            return f"{len(out.traces)} traces for {restarts} restarts"
        floor = reference.floor_bound(n)
        if not out.best_value >= floor - 1e-12:
            return f"best value {out.best_value!r} below the floor {floor}"
        value = float(reference.pi_me(out.best_state.amplitudes, n))
        if not abs(value - out.best_value) <= VALUE_TOL:
            return f"best value {out.best_value!r} but best state has pi_ME {value!r}"
        if repeat:
            again = self.execute(op, None)
            if (again.best_value != out.best_value
                    or not np.array_equal(again.best_state.amplitudes,
                                          out.best_state.amplitudes)):
                return "the same (config, seed) gave a different result"
        self.jobs += 1
        self.solved += solved(n, out.best_value)
        return None

    def work(self, op):
        return op[3]

    def op_class(self, op):
        return f"n{op[2]}"

    def describe(self, op):
        return f"minimize n={op[2]} restarts={op[3]} seed={op[4]}"

    def counts(self, op, out):
        return {
            "jobs": 1,
            "restarts": len(out.traces),
            "iters": sum(len(trace) - 1 for trace in out.traces),
            "converged": sum(out.converged),
            "solved": solved(op[2], out.best_value),
        }

    def layer_extras(self, counts, layers, samples):
        restarts = counts.get("restarts", 0)
        iters = counts.get("iters", 0)
        objective_calls = layers.get("mmes_search.objective.calls", 0.0) * samples.first_cycle_ops
        total_restarts = sum(samples.work)
        busy = layers.get("mmes_search.minimize_potential.total_s", 0.0)
        return {
            "mmes_search.iters": iters / restarts if restarts else 0.0,
            "mmes_search.evals_per_iter": objective_calls / iters if iters else 0.0,
            "mmes_search.converged_frac": counts.get("converged", 0) / restarts if restarts else 0.0,
            "mmes_search.solved_frac": counts.get("solved", 0) / counts["jobs"] if counts.get("jobs") else 0.0,
            "mmes_search.ms_per_restart": busy / total_restarts * 1e3 if total_restarts else 0.0,
        }

    def probe(self):
        out = {}
        rng = self.rng(2**32 + 1)
        for n, restarts in PROBE_JOBS:
            t0 = perf_counter()
            result = mmes_search.minimize_potential(MinimizeConfig(
                n_qubits=n, restarts=restarts, seed=int(rng.integers(0, 2**63))))
            out[f"mmes_search.n{n}.s_per_job"] = perf_counter() - t0
            out[f"mmes_search.n{n}.iters"] = float(np.mean([len(t) - 1 for t in result.traces]))
            out[f"mmes_search.n{n}.converged_frac"] = float(np.mean(result.converged))
            out[f"mmes_search.n{n}.solved"] = float(solved(n, result.best_value))
        return out

    def summary(self):
        return {"solved_frac": self.solved / self.jobs if self.jobs else None,
                "solved_jobs": self.solved, "jobs": self.jobs,
                "reference": reference.MINIMIZE_REFERENCE}
