"""batch4-sweep: batches of Haar four-qubit states through both routes.

Each op runs one batch through the partial-trace oracle
(``pi_me_of_amplitudes``) and the closed forms (``k_total_of_amplitudes``).
A cycle holds one batch of 2x10^5 states (51 MB, 1.6x the 32 MiB L3) and
then sixty of 10^3 (256 KB, inside the 2 MiB L2), so the median op shows
per-call overhead and the tail and throughput show memory traffic. The
first small batches after a large one run up to twice as slow (the large
batch's memory is handed back and faulted in again), so the small batches
far outnumber them and the median falls in the middle of the steady ones.
The large batch is 1/61 of the ops, so the tail, p99, falls inside the
large batches. The order is fixed; a seeded order moved the median from
run to run. 2x10^5 keeps the peak near 1.5 GB; 5x10^5 (4x L3) reached
3.4 GB, too much for 8 GB shared with other work.
"""
from __future__ import annotations

import numpy as np
from entpot import closed_form, potential

import reference
from workloads import Workload

SMALL = 1_000
LARGE = 200_000
SIZES = (LARGE,) + (SMALL,) * 60
#: The two routes agree to this on every state: K = 2(3 pi_ME - 1).
ROUTE_TOL = 1e-12
#: States per batch also checked against the benchmark's own kernel.
REFERENCE_STATES = 4


class Batch4Sweep(Workload):
    name = "batch4-sweep"
    work_unit = "states"

    def setup(self):
        z = reference.haar_batch(self.rng(2**32), 8, 4)
        potential.pi_me_of_amplitudes(z, 4)
        closed_form.k_total_of_amplitudes(z)
        return {}

    def cycle(self, index):
        return [(index, j, size) for j, size in enumerate(SIZES)]

    def prepare(self, op):
        index, j, size = op
        return reference.haar_batch(self.rng(index, j), size, 4)

    def execute(self, op, inp):
        return potential.pi_me_of_amplitudes(inp, 4), closed_form.k_total_of_amplitudes(inp)

    def check(self, op, inp, out):
        p, k = out
        if p.shape != (op[2],) or k.shape != (op[2],):
            return f"result shapes {p.shape}, {k.shape}"
        gap = float(np.max(np.abs(k - 2.0 * (3.0 * p - 1.0))))
        if not gap <= ROUTE_TOL:
            return f"|K - 2(3 pi - 1)| = {gap:.3g} > {ROUTE_TOL}"
        if not (np.all(p >= 0.25 - ROUTE_TOL) and np.all(p <= 1.0 + ROUTE_TOL)):
            return "pi_ME outside [1/4, 1]"
        ref = reference.pi_me(inp[:REFERENCE_STATES], 4)
        off = float(np.max(np.abs(ref - p[:REFERENCE_STATES])))
        if not off <= ROUTE_TOL:
            return f"pi_ME differs from the reference kernel by {off:.3g}"
        return None

    def work(self, op):
        return op[2]

    def op_class(self, op):
        return "large" if op[2] == LARGE else "small"

    def describe(self, op):
        return f"batch {op[2]} (cycle {op[0]}, slot {op[1]})"
