"""Minimize the entanglement potential over normalized n-qubit pure states.

States are encoded as raw real vectors of length 2**(n+1) (interleaved
real/imaginary parts). The objective normalizes internally, so it is
invariant under scaling of the point and its gradient is automatically
tangential to the sphere; projection is a single renormalization.

An evaluation runs in two passes over the kernel's blocks. The value pass
gathers the blocks M of every balanced subset, forms rho = M M^H with
``reduction.gram`` and sums Tr rho^2 as one dot product. The gradient pass
reuses that M and rho for rho M and writes it back to basis order through
the same gather index. The descent gives every Armijo trial point a value
pass and only the accepted point a gradient pass.

It takes n = 2..``CACHED_INDEX_QUBITS`` (10), where every gather table is
cached; larger n are rejected before allocating, since each pass holds all
blocks at once (644 MiB at n = 13). ``analyze`` or ``pi_me`` gives their value.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Literal

import numpy as np

from .errors import (ConfigError, DegenerateStateError, DimensionError, FormatError,
                     NormalizationError)
from .qstate import PureState
from .reduction import CACHED_INDEX_QUBITS, balanced_index, gram

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
#: |c|^2 the value pass takes: there |c|^4, and Tr rho^2 summed over at most
#: 126 subsets (each at least |c|^4 / 32), stay normal float64s.
_NORM_SQ_RANGE = (2.0**-508, 2.0**508)

_LARGER_STATES = "analyze or pi_me gives the potential of larger states"

StopReason = Literal["grad_tol", "step_tol", "ftol", "max_iters"]


def _decode(point: np.ndarray) -> tuple[np.ndarray, int]:
    """Complex view of ``point``: interleaved re/im is complex128's own layout."""
    point = np.asarray(point)
    if point.dtype.kind not in "iuf":
        raise FormatError(f"point must hold real numbers, got dtype {point.dtype}; it is the "
                          "interleaved real encoding of a state (encode_state)")
    point = np.ascontiguousarray(point, dtype=np.float64)
    n = point.size.bit_length() - 2
    if point.ndim != 1 or point.size & (point.size - 1) or not 2 <= n <= CACHED_INDEX_QUBITS:
        raise DimensionError(f"point must have length 2**(n+1) with n in "
                             f"2..{CACHED_INDEX_QUBITS}, got {point.shape}; {_LARGER_STATES}")
    return point.view(np.complex128), n


def encode_state(state: PureState) -> np.ndarray:
    """Real encoding of a state's amplitudes (interleaved re/im)."""
    return state.amplitudes.view(np.float64).copy()


@lru_cache(maxsize=None)
def _write_back_positions(n: int) -> np.ndarray:
    """Flat position of every block entry of ``balanced_index(n)`` in an
    (S, 2^n) array: row s of the index plus s 2^n, flattened."""
    index = balanced_index(n)
    positions = (index.reshape(len(index), -1) + (np.arange(len(index)) << n)[:, None]).ravel()
    positions.flags.writeable = False
    return positions


def _value_pass(c: np.ndarray, n: int) -> tuple[float, np.ndarray, np.ndarray, float]:
    """``objective`` at the complex point c, with the blocks M, rho = M M^H and
    |c|^2 that ``_gradient_pass`` reuses at the same point."""
    norm_sq = float(np.vdot(c, c).real)
    if not _NORM_SQ_RANGE[0] <= norm_sq <= _NORM_SQ_RANGE[1]:
        if not c.any():
            raise DegenerateStateError("zero point has no direction")
        low, high = _NORM_SQ_RANGE
        raise NormalizationError("point has a non-finite entry" if not np.isfinite(c).all() else
                                 f"|point|^2 {'under' if norm_sq < low else 'over'}flows the "
                                 f"minimizer's range {low:.3g}..{high:.3g}; rescale the point")
    m = c[balanced_index(n)]
    rho = gram(m)
    # Mean purity of the raw c over the kernel's subsets only (for even n
    # they leave out the complements, whose purities are the same): the
    # summed Tr rho^2 is one dot of rho's interleaved re/im parts.
    parts = rho.view(np.float64).ravel()
    raw = float(parts @ parts) / len(m)
    return raw / norm_sq**2, m, rho, norm_sq


def _gradient_pass(c: np.ndarray, n: int, value: float, m: np.ndarray,
                   rho: np.ndarray, norm_sq: float) -> np.ndarray:
    """Exact gradient at c, as interleaved reals, from ``_value_pass(c, n)``.

    d raw / dc* is the mean over subsets of 2 rho M, scattered back to the
    basis order: row s of an (S, 2^n) array receives block s of rho M
    through its gather index. That array reuses the memory of M, which is
    overwritten. raw(c)/|c|^4 is homogeneous of degree 2 in c and c*, and
    the gradient in the (re, im) pairs is 2 d/dc*.
    """
    rho_m = rho @ m
    scattered = m.reshape(-1)
    scattered[_write_back_positions(n)] = rho_m.ravel()
    g = scattered.reshape(len(m), -1).sum(axis=0)
    g *= 4.0 / len(m) / norm_sq**2
    g -= (4.0 * value / norm_sq) * c
    return g.view(np.float64)


def objective(point: np.ndarray) -> float:
    """Potential of the normalized state encoded by ``point``; scale-invariant."""
    return _value_pass(*_decode(point))[0]


def value_and_gradient(point: np.ndarray) -> tuple[float, np.ndarray]:
    """``objective`` and its exact gradient: the value pass, then the gradient pass."""
    c, n = _decode(point)
    value, m, rho, norm_sq = _value_pass(c, n)
    return value, _gradient_pass(c, n, value, m, rho, norm_sq)


def gradient(point: np.ndarray) -> np.ndarray:
    """Exact gradient of ``objective``; validated against central differences."""
    return value_and_gradient(point)[1]


@dataclass(frozen=True)
class MinimizeConfig:
    n_qubits: int
    restarts: int = 20
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy ints overflow the seed mask
        if not 2 <= self.n_qubits <= CACHED_INDEX_QUBITS:
            raise ConfigError(f"n_qubits must be in 2..{CACHED_INDEX_QUBITS}, got "
                              f"{self.n_qubits}; {_LARGER_STATES}")
        if self.restarts < 1:
            raise ConfigError("restarts must be positive")


@dataclass(frozen=True)
class MinimizeResult:
    """Best state found plus per-restart traces, stop reasons and value passes.

    ``stop_reasons[r]`` says why restart r stopped: ``grad_tol`` (gradient
    norm below ``GRAD_TOL``), ``step_tol`` (no step down to ``STEP_TOL``
    passed the Armijo test), ``ftol`` (accepted decrease below
    ``OBJECTIVE_TOL``) or ``max_iters``. ``evaluations[r]`` counts its value
    passes, one per trial point; the gradient pass runs once per accepted one.
    """

    best_state: PureState
    best_value: float
    best_restart: int
    traces: list[list[tuple[int, float]]]
    stop_reasons: list[StopReason]
    evaluations: list[int]
    seed: int

    @property
    def converged(self) -> list[bool]:
        """Whether each restart hit a stopping tolerance rather than the cap."""
        return [reason != "max_iters" for reason in self.stop_reasons]

    @property
    def final_values(self) -> list[float]:
        return [trace[-1][1] for trace in self.traces]


def _normalize(p: np.ndarray) -> np.ndarray:
    # bitwise np.linalg.norm's 2-norm of a real vector, without its dispatch
    return p / sqrt(p @ p)


def _projected_gradient(
    point: np.ndarray,
) -> tuple[np.ndarray, float, list[tuple[int, float]], StopReason, int]:
    """Descent with backtracking line search; renormalize after every step.

    Each backtrack starts at the Barzilai-Borwein step s.s / s.y of the last
    accepted move (s = q - p, y = g_q - g), and at ``INITIAL_STEP`` on the
    first iteration or when s.y <= 0 gives no positive curvature estimate.
    Every trial point gets a value pass; only the accepted one a gradient
    pass. Returns the final point, its value, the trace, the stop reason and
    the number of value passes.
    """
    start, n = _decode(point)
    p = _normalize(start.view(np.float64))
    c = p.view(np.complex128)
    f, m, rho, norm_sq = _value_pass(c, n)
    g = _gradient_pass(c, n, f, m, rho, norm_sq)
    evaluations = 1
    trace = [(0, f)]
    reason: StopReason = "max_iters"
    first_step = INITIAL_STEP
    for it in range(1, MAX_ITERS + 1):
        g_sq = float(g @ g)
        if sqrt(g_sq) < GRAD_TOL:
            reason = "grad_tol"
            break
        step = first_step
        while step >= STEP_TOL:
            q = _normalize(p - step * g)
            qc = q.view(np.complex128)
            fq, m, rho, norm_sq = _value_pass(qc, n)
            evaluations += 1
            if fq <= f - ARMIJO * step * g_sq:
                break
            step *= SHRINK
        else:
            reason = "step_tol"
            break
        gq = _gradient_pass(qc, n, fq, m, rho, norm_sq)
        s, y = q - p, gq - g
        sy = float(s @ y)
        first_step = float(s @ s) / sy if sy > 0 else INITIAL_STEP
        improvement = f - fq
        p, f, g = q, fq, gq
        trace.append((it, f))
        if improvement < OBJECTIVE_TOL:
            reason = "ftol"
            break
    return p, f, trace, reason, evaluations


def minimize_potential(config: MinimizeConfig) -> MinimizeResult:
    """Multi-start minimization; deterministic given (config, seed).

    Each restart draws its starting point from its own stream seeded by
    (seed, restart index), so results do not depend on scheduling; the best
    restart is chosen by (value, index) lexicographic order.
    """
    dim = 1 << (config.n_qubits + 1)
    u_seed = config.seed & 0xFFFFFFFFFFFFFFFF
    runs = [_projected_gradient(np.random.default_rng([u_seed, r]).standard_normal(dim))
            for r in range(config.restarts)]
    points, values, traces, reasons, evaluations = map(list, zip(*runs))
    best = values.index(min(values))
    c = points[best].view(np.complex128)
    state = PureState(config.n_qubits, c / np.linalg.norm(c))
    return MinimizeResult(state, values[best], best, traces, reasons, evaluations, config.seed)


def export_trace_csv(result: MinimizeResult, path) -> None:
    """Write (restart, iteration, value) rows for every trace sample."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["restart", "iteration", "value"])
        for r, trace in enumerate(result.traces):
            for iteration, value in trace:
                writer.writerow([r, iteration, repr(value)])
