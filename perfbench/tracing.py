"""Spans around calls into entpot's public functions, recorded from outside.

A binding is a (module, attribute) pair: the name a caller actually looks up
at call time. ``cli`` does ``from .ket_parser import eval_ket``, so the span
for its calls has to replace ``entpot.cli.eval_ket``; patching
``entpot.ket_parser.eval_ket`` would only see the calls made inside
``ket_parser``. Several bindings can feed one span name.

Spans stay in flat arrays while the run lasts and are written out at the end.
The self time of a span is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""
from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: (module, attribute, span name, tag) for every wrapped binding. ``tag``
#: names a hook on Tracer that runs before the clock starts and returns an int
#: stored with the span (the qubit count, where one is reported per n).
BINDINGS: tuple[tuple[str, str, str, str | None], ...] = (
    ("entpot.cli", "run", "cli.run", None),
    ("entpot.cli", "parse_ket", "ket_parser.parse_ket", None),
    ("entpot.cli", "eval_ket", "ket_parser.eval_ket", None),
    ("entpot.ket_parser", "parse_ket", "ket_parser.parse_ket", None),
    ("entpot.ket_parser", "eval_ket", "ket_parser.eval_ket", None),
    ("entpot.cli", "format_ket", "ket_parser.format_ket", None),
    ("entpot.cli", "load_state_json", "qstate.load_state_json", None),
    ("entpot.cli", "catalog_state", "qstate.catalog_state", None),
    ("entpot.cli", "analyze", "potential.analyze", None),
    ("entpot.potential", "analyze", "potential.analyze", None),
    ("entpot.potential", "all_balanced_purities",
     "reduction.all_balanced_purities", "_tag_state_n"),
    ("entpot.potential", "pi_me_of_amplitudes", "potential.pi_me_of_amplitudes", None),
    ("entpot.reduction", "subset_purity", "reduction.subset_purity", "_count_subset_purity"),
    ("entpot.potential", "subset_purity", "reduction.subset_purity", "_count_subset_purity"),
    ("entpot.closed_form", "k1_of_amplitudes", "closed_form.k1_of_amplitudes", None),
    ("entpot.closed_form", "k2_of_amplitudes", "closed_form.k2_of_amplitudes", None),
    ("entpot.mmes_search", "objective", "mmes_search.objective", None),
    ("entpot.mmes_search", "gradient", "mmes_search.gradient", None),
    ("entpot.mmes_search", "minimize_potential", "mmes_search.minimize_potential", None),
)

OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP]
        self._ids = {OP: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        #: Computed from array shapes, not measured: complex multiply-adds
        #: count 8 flops, and bytes are the operands each numpy step reads
        #: and writes once.
        self.subset_purity_flops = 0.0
        self.subset_purity_bytes = 0.0

    def _open(self, name_id: int, tag: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.tag.append(tag)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.start[idx] = t0
        self.end[idx] = t1
        self._stack.pop()

    @contextmanager
    def op_span(self, op_index: int):
        """Root span of one benchmark op; every span inside it shares its index."""
        self._op = op_index
        idx = self._open(0, -1)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())
            self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, tag_hook: str | None):
        nid = self._name_id(name)
        hook = getattr(self, tag_hook) if tag_hook else None

        def traced(*args, **kwargs):
            idx = self._open(nid, hook(*args, **kwargs) if hook else -1)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _tag_state_n(state, *_args, **_kwargs) -> int:
        return state.n_qubits

    def _count_subset_purity(self, amps, n, keep, *_args, **_kwargs) -> int:
        batch = amps.size >> n
        dk = 1 << len(keep)
        dt = 1 << (n - len(keep))
        # gather, (dk x dt) @ (dt x dk) complex product, |.|^2 and the sum
        self.subset_purity_flops += batch * (8.0 * dk * dk * dt + 4.0 * dk * dk)
        self.subset_purity_bytes += batch * 16.0 * (
            (1 << n)          # amplitudes read by the gather
            + 2 * dk * dt     # gathered block written, then read by matmul
            + 2 * dk * dk     # rho written, then read by abs
        ) + batch * 8.0 * 2 * dk * dk + 8.0 * dk * dt  # |rho|^2, index table
        return n

    @contextmanager
    def patched(self):
        """Install every binding; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, tag_hook in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, tag_hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns, plus each span's self time."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int32),
            "start": start,
            "end": end,
            "self": dur - child,
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
