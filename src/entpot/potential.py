"""Entanglement potential: mean balanced-bipartition purity, and analysis reports.

For four qubits the maximal-entanglement verdict uses the closed-form
criterion K1 + K2 = 0; at every other qubit count no lower bound on the
potential is known, so the verdict is "not_claimed".
"""
from __future__ import annotations

from dataclasses import dataclass
from sys import float_info
from typing import Mapping

import numpy as np

from .closed_form import k_total
from .errors import ConfigError
from .qstate import PureState
from .reduction import all_balanced_purities, balanced_purities
from .reduction import subset_purity  # noqa: F401  (re-exported; benchmark tracing patches it)

DEFAULT_TOL = 1e-8


def pi_me(state: PureState) -> float:
    """Mean purity over all balanced bipartitions; 1 for product states,
    smaller for more entangled ones."""
    return float(np.mean(balanced_purities(state.amplitudes, state.n_qubits)))


def pi_me_of_amplitudes(amps: np.ndarray, n: int) -> np.ndarray:
    """Batched potential for sweep-style workloads; ``amps`` is (..., 2**n)."""
    return np.mean(balanced_purities(amps, n), axis=-1)


@dataclass(frozen=True)
class BipartitionReport:
    """Consolidated per-state analysis: purities, potential, criterion, verdict."""

    n_qubits: int
    purities: Mapping[tuple[int, ...], float]
    pi_me: float
    k1: float | None
    k2: float | None
    k_total: float | None
    verdict: str  # "mmes" | "not_mmes" | "not_claimed"
    tol: float
    note: str | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "n": self.n_qubits,
            "purities": {
                "".join(str(q) for q in subset): value
                for subset, value in self.purities.items()
            },
            "pi_me": self.pi_me,
        }
        if self.k_total is not None:
            out["k1"] = self.k1
            out["k2"] = self.k2
            out["k_total"] = self.k_total
        out["verdict"] = self.verdict
        out["tol"] = self.tol
        if self.note is not None:
            out["note"] = self.note
        return out


def analyze(state: PureState, tol: float = DEFAULT_TOL) -> BipartitionReport:
    """Full report for one state.

    Four-qubit states get the closed-form criterion verdict (K1 + K2 within
    ``tol`` of zero); other sizes get the verdict ``"not_claimed"`` and a
    note saying so.
    """
    if isinstance(tol, (np.integer, np.floating)):
        tol = tol.item()  # compared exactly below, as Python ints and floats are
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol <= float_info.max:
        raise ConfigError(f"tolerance must be a finite positive float, got {tol!r}")
    purities = all_balanced_purities(state)
    potential = float(np.mean(list(purities.values())))
    n = state.n_qubits

    if n == 4:
        kd = k_total(state)
        verdict = "mmes" if kd.k_total <= tol else "not_mmes"
        return BipartitionReport(
            n, purities, potential, kd.k1, kd.k2, kd.k_total, verdict, tol
        )
    return BipartitionReport(
        n, purities, potential, None, None, None, "not_claimed", tol,
        note=f"no known pi_ME lower bound for n={n}; verdict not claimed",
    )
