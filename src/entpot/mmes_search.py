"""Minimize the entanglement potential over normalized n-qubit pure states.

States are encoded as raw real vectors of length 2**(n+1) (interleaved
real/imaginary parts). The objective normalizes internally, so it is
invariant under scaling of the point and its gradient is automatically
tangential to the sphere; projection is a single renormalization.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateStateError, DimensionError
from .qstate import PureState
from .reduction import balanced_index, gram_purities

#: Armijo sufficient-decrease constant, step shrink factor, and the first
#: step of a backtrack that has no Barzilai-Borwein step to start from.
ARMIJO = 1e-4
SHRINK = 0.5
INITIAL_STEP = 1.0
#: Gradient norm below which a restart is declared converged.
GRAD_TOL = 1e-9
#: Iteration cap per restart, the smallest backtracking step tried, and the
#: objective decrease below which a restart counts as stagnated.
MAX_ITERS = 5000
STEP_TOL = 1e-10
OBJECTIVE_TOL = 1e-12


def _decode(point: np.ndarray) -> tuple[np.ndarray, int]:
    """Complex view of ``point``: interleaved re/im is complex128's own layout."""
    point = np.ascontiguousarray(point, dtype=np.float64)
    if point.ndim != 1 or point.size < 8 or point.size & (point.size - 1):
        raise DimensionError(
            f"point must have length 2**(n+1) with n >= 2, got {point.shape}"
        )
    n = point.size.bit_length() - 2
    return point.view(np.complex128), n


def encode_state(state: PureState) -> np.ndarray:
    """Real encoding of a state's amplitudes (interleaved re/im)."""
    return state.amplitudes.view(np.float64).copy()


@lru_cache(maxsize=None)
def _scatter_index(n: int) -> np.ndarray:
    """Inverse of each gather permutation in ``balanced_index(n)``, (S, 2^n).

    Entries index the flattened (S, 2^k, 2^(n-k)) stack of blocks, so row s
    takes block s back to basis order.
    """
    gather = balanced_index(n)
    gather = gather.reshape(len(gather), -1)
    scatter = np.argsort(gather, axis=1) + gather.shape[1] * np.arange(len(gather))[:, None]
    scatter.flags.writeable = False
    return scatter


def objective(point: np.ndarray) -> float:
    """Potential of the normalized state encoded by ``point``; scale-invariant."""
    return value_and_gradient(point)[0]


def value_and_gradient(point: np.ndarray) -> tuple[float, np.ndarray]:
    """``objective`` and its exact gradient from one pass of the kernel."""
    c, n = _decode(point)
    norm_sq = float(np.real(np.vdot(c, c)))
    if norm_sq == 0.0:
        raise DegenerateStateError("zero point has no direction")
    m = c[balanced_index(n)]
    rho, purities = gram_purities(m)
    # Mean purity of the raw c over the kernel's subsets only; for even n
    # they leave out the complements, whose purities are the same.
    raw = float(purities.sum()) / len(purities)
    # d raw / dc* is the mean over subsets of 2 rho M, scattered back to the
    # basis order. raw(c)/|c|^4 is homogeneous of degree 2 in c and c*, and
    # the gradient in the (re, im) pairs is 2 d/dc*, read as interleaved reals.
    g = np.take(rho @ m, _scatter_index(n)).sum(axis=0)
    grad = (4.0 / len(m) / norm_sq**2) * g - (4.0 * raw / norm_sq**3) * c
    return raw / norm_sq**2, grad.view(np.float64)


def gradient(point: np.ndarray) -> np.ndarray:
    """Exact gradient of ``objective``; validated against central differences."""
    return value_and_gradient(point)[1]


@dataclass(frozen=True)
class MinimizeConfig:
    n_qubits: int
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ConfigError(f"n_qubits must be >= 2, got {self.n_qubits}")
        if self.restarts < 1:
            raise ConfigError("restarts must be positive")


@dataclass(frozen=True)
class MinimizeResult:
    """Best state found plus per-restart traces.

    ``converged[r]`` is True when restart r hit a stopping tolerance
    (gradient norm, step size, or objective stagnation) rather than the
    iteration cap.
    """

    best_state: PureState
    best_value: float
    best_restart: int
    traces: list[list[tuple[int, float]]]
    converged: list[bool]
    seed: int

    @property
    def final_values(self) -> list[float]:
        return [trace[-1][1] for trace in self.traces]


def _normalize(p: np.ndarray) -> np.ndarray:
    return p / np.linalg.norm(p)


def _projected_gradient(
    p: np.ndarray,
) -> tuple[np.ndarray, float, list[tuple[int, float]], bool]:
    """Descent with backtracking line search; renormalize after every step.

    Each backtrack starts at the Barzilai-Borwein step s.s / s.y of the last
    accepted move (s = q - p, y = g_q - g), and at ``INITIAL_STEP`` on the
    first iteration or when s.y <= 0 gives no positive curvature estimate.
    """
    p = _normalize(p)
    f, g = value_and_gradient(p)
    trace = [(0, f)]
    converged = False
    first_step = INITIAL_STEP
    for it in range(1, MAX_ITERS + 1):
        g_sq = float(g @ g)
        if np.sqrt(g_sq) < GRAD_TOL:
            converged = True
            break
        step, accepted = first_step, False
        while step >= STEP_TOL:
            q = _normalize(p - step * g)
            fq, gq = value_and_gradient(q)
            if fq <= f - ARMIJO * step * g_sq:
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            converged = True  # step tolerance reached
            break
        s, y = q - p, gq - g
        sy = float(s @ y)
        first_step = float(s @ s) / sy if sy > 0 else INITIAL_STEP
        improvement = f - fq
        p, f, g = q, fq, gq
        trace.append((it, f))
        if improvement < OBJECTIVE_TOL:
            converged = True  # objective stagnated below ftol
            break
    return p, f, trace, converged


def minimize_potential(config: MinimizeConfig) -> MinimizeResult:
    """Multi-start minimization; deterministic given (config, seed).

    Each restart draws its starting point from its own stream seeded by
    (seed, restart index), so results do not depend on scheduling; the best
    restart is chosen by (value, index) lexicographic order.
    """
    dim = 1 << (config.n_qubits + 1)
    u_seed = config.seed & 0xFFFFFFFFFFFFFFFF
    traces: list[list[tuple[int, float]]] = []
    converged: list[bool] = []
    best: tuple[float, int, np.ndarray] | None = None
    for r in range(config.restarts):
        start = np.random.default_rng([u_seed, r]).standard_normal(dim)
        p, f, trace, ok = _projected_gradient(start)
        traces.append(trace)
        converged.append(ok)
        if best is None or f < best[0]:
            best = (f, r, p)
    assert best is not None
    f_best, r_best, p_best = best
    c, _ = _decode(p_best)
    state = PureState(config.n_qubits, c / np.linalg.norm(c))
    return MinimizeResult(state, f_best, r_best, traces, converged, config.seed)


def export_trace_csv(result: MinimizeResult, path) -> None:
    """Write (restart, iteration, value) rows for every trace sample."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["restart", "iteration", "value"])
        for r, trace in enumerate(result.traces):
            for iteration, value in trace:
                writer.writerow([r, iteration, repr(value)])
