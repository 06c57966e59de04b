"""nsweep-large: ``analyze`` on single states at n = 9..12, warm.

The reduction does the job it does in batch4-sweep, but as a few large
2^k x 2^(n-k) products per state behind the unbounded index-table cache, so
a kernel that wins on big matrices and loses on batches, or the reverse,
shows here. A cycle holds 3, 3, 1 and 1 states at n = 9, 10, 11, 12: the
median op falls inside the n = 10 class and the tail inside n = 12. One
state per cycle is GHZ and one a product state, at rotating n. The cold
index-table build for each n happens in set-up. n = 13 and 14 are left out:
their cold build would take tens of seconds and about 450 MB at n = 14.
"""
from __future__ import annotations

from math import comb
from time import perf_counter

import numpy as np
from entpot import potential
from entpot.qstate import PureState

import reference
from harness import peak_rss_mb
from workloads import Workload

NS = (9, 10, 11, 12)
PER_CYCLE = (9, 9, 9, 10, 10, 10, 11, 12)
TOL = 1e-12


class NsweepLarge(Workload):
    name = "nsweep-large"
    work_unit = "states"
    setup_probes = 3

    def setup(self):
        rss0 = peak_rss_mb()
        out = {}
        rng = self.rng(2**32)
        for n in NS:
            state = PureState(n, reference.haar_batch(rng, 1, n)[0])
            t0 = perf_counter()
            potential.analyze(state)
            out[f"reduction.all_balanced_purities.cold_ms.n{n}"] = (perf_counter() - t0) * 1e3
        out["reduction.setup_rss_delta_mb"] = peak_rss_mb() - rss0
        return out

    def cycle(self, index):
        rng = self.rng(index)
        kinds = ["haar"] * len(PER_CYCLE)
        # GHZ takes the first slot of one n, the product state the last slot of another
        kinds[PER_CYCLE.index(NS[index % 4])] = "ghz"
        last = len(PER_CYCLE) - 1 - PER_CYCLE[::-1].index(NS[(index + 2) % 4])
        kinds[last] = "product"
        order = rng.permutation(len(PER_CYCLE))
        # the first op of every cycle is also checked against the reference kernel
        return [(index, int(j), PER_CYCLE[j], kinds[j], pos == 0)
                for pos, j in enumerate(order)]

    def prepare(self, op):
        index, j, n, kind, _ = op
        rng = self.rng(index, j)
        if kind == "ghz":
            amps = reference.ghz(n)
        elif kind == "product":
            amps = reference.product(rng, n)
        else:
            amps = reference.haar_batch(rng, 1, n)[0]
        return PureState(n, amps)

    def execute(self, op, inp):
        return potential.analyze(inp)

    def check(self, op, inp, out):
        _, _, n, kind, with_reference = op
        k = n // 2
        if out.n_qubits != n or len(out.purities) != comb(n, k):
            return f"report for n={out.n_qubits} with {len(out.purities)} purities"
        values = np.array(list(out.purities.values()))
        low = reference.floor_bound(n)
        if not (np.all(values >= low - TOL) and np.all(values <= 1.0 + TOL)):
            return f"a purity outside [{low}, 1]"
        if not abs(out.pi_me - float(np.mean(values))) <= TOL:
            return "pi_ME is not the mean purity"
        expected = {"ghz": 0.5, "product": 1.0}.get(kind)
        if expected is not None and not abs(out.pi_me - expected) <= TOL:
            return f"{kind} state gave pi_ME = {out.pi_me!r}, expected {expected}"
        if n % 2 == 0:
            everyone = set(range(1, n + 1))
            for subset, value in out.purities.items():
                other = tuple(sorted(everyone - set(subset)))
                if not abs(out.purities[other] - value) <= TOL:
                    return f"complement purities of {subset} differ"
        if with_reference:
            ref = reference.purities(inp.amplitudes, n)
            off = max(abs(float(ref[s]) - v) for s, v in out.purities.items())
            if not off <= TOL:
                return f"purities differ from the reference kernel by {off:.3g}"
        return None

    def op_class(self, op):
        return f"n{op[2]}"

    def describe(self, op):
        return f"analyze n={op[2]} {op[3]} (cycle {op[0]}, slot {op[1]})"
