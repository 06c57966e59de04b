"""Minimize the entanglement potential over normalized n-qubit pure states.

States are encoded as raw real vectors of length 2**(n+1) (interleaved
real/imaginary parts). The objective normalizes internally, so it is
invariant under scaling of the point and its gradient is automatically
tangential to the sphere; projection is a single renormalization.

An evaluation runs in two passes over the kernel's blocks, each over a
stack of points. The value pass gathers the blocks M of every balanced
subset, forms rho = M M^H with ``reduction.gram`` and sums each point's
Tr rho^2 as one dot product. The gradient pass reuses that M and rho for
rho M and gathers it back to basis order through the spread, the inverse
of the gather table. ``objective``, ``value_and_gradient`` and
``gradient`` are passes over one point.

``minimize_potential`` descends along memoryless BFGS directions (L-BFGS
with memory 1: Shanno, Math. Oper. Res. 3, 244 (1978); Nocedal, Math.
Comp. 35, 773 (1980)), all restarts of a job in lockstep rounds. A round
gives the live restarts' trial points one stacked value pass, and the
accepted ones one stacked gradient pass and their next directions. A pass
takes as many points as fit the kernel's ``_CHUNK_ELEMENTS`` gathered
amplitudes (341 at n = 4, 25 at n = 6, 1 from n = 8), in buffers made once
per thread. Every product, sum and dot of a row has the bits it has for
that row alone, so a restart's result depends only on (seed, restart
index), never on the restarts that share its rounds.

It takes n = 2..``CACHED_INDEX_QUBITS`` (10), where every gather table is
cached; larger n are rejected before allocating, since each pass holds all
blocks at once (644 MiB at n = 13). ``analyze`` or ``pi_me`` gives their value.
"""
from __future__ import annotations

import csv
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import Callable, Literal, NamedTuple

import numpy as np

from .errors import (ConfigError, DegenerateStateError, DimensionError, FormatError,
                     NormalizationError)
from .qstate import PureState, _integer, _numbers
from .reduction import _CHUNK_ELEMENTS, CACHED_INDEX_QUBITS, balanced_index, gram

#: Armijo sufficient-decrease constant, step shrink factor, and the step
#: every backtrack starts at: the quasi-Newton step, since the direction
#: carries its own scale (``_directions``).
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
#: |c|^2 a point may have: there |c|^4, and Tr rho^2 summed over at most
#: 126 subsets (each at least |c|^4 / 32), stay normal float64s.
_NORM_SQ_RANGE = (2.0**-508, 2.0**508)

_LARGER_STATES = "analyze or pi_me gives the potential of larger states"

StopReason = Literal["grad_tol", "step_tol", "ftol", "max_iters"]

#: Per-thread work buffers of the passes and their views per n, see ``_work``.
_scratch = threading.local()


def _decode(point: np.ndarray) -> tuple[np.ndarray, int]:
    """Complex view of ``point``: interleaved re/im is complex128's own layout.

    Its |c|^2 must lie in ``_NORM_SQ_RANGE``, checked before any pass runs.
    """
    what = "a flat sequence of 2**(n+1) real numbers, a state's encoding (encode_state)"
    point = _numbers(point, "iuf", FormatError, what, ragged=DimensionError)
    point = np.ascontiguousarray(point, dtype=np.float64)
    n = point.size.bit_length() - 2
    if point.ndim != 1 or point.size & (point.size - 1) or not 2 <= n <= CACHED_INDEX_QUBITS:
        raise DimensionError(f"point must have length 2**(n+1) with n in "
                             f"2..{CACHED_INDEX_QUBITS}, got {point.shape}; {_LARGER_STATES}")
    c = point.view(np.complex128)
    norm_sq = float(np.vdot(c, c).real)
    low, high = _NORM_SQ_RANGE
    if not low <= norm_sq <= high:
        if not c.any():
            raise DegenerateStateError("zero point has no direction")
        raise NormalizationError("point has a non-finite entry" if not np.isfinite(c).all() else
                                 f"|point|^2 {'under' if norm_sq < low else 'over'}flows the "
                                 f"minimizer's range {low:.3g}..{high:.3g}; rescale the point")
    return c, n


def encode_state(state: PureState) -> np.ndarray:
    """Real encoding of a state's amplitudes (interleaved re/im)."""
    return state.amplitudes.view(np.float64).copy()


class _Work(NamedTuple):
    """Views of one thread's work buffer for a pass over a run of rows at n,
    and the gather tables (``_work``, ``_rows``). S is the number of kernel
    subsets, k = floor(n/2) and N = 2^n."""

    #: (S, 2^k, 2^(n-k)) position in a point of each block entry, and (S, N)
    #: position among a point's rho M blocks of each entry, row s in basis
    #: order (``_tables``)
    gather: np.ndarray
    spread: np.ndarray
    #: (rows, 2N) trial points, and as complex (rows, N)
    points: np.ndarray
    complex_points: np.ndarray
    #: (rows, N) conjugated points, then the radial term of the gradient
    conjugates: np.ndarray
    #: (rows, S, 2^k, 2^(n-k)) blocks M, then rho M in basis order (rows, S, N)
    blocks: np.ndarray
    spread_blocks: np.ndarray
    #: conj(M), then rho M, as (rows, S 2^n) too
    conj_blocks: np.ndarray
    rho_m: np.ndarray
    #: (rows, S, 2^k, 2^k), and its floats per point
    rho: np.ndarray
    rho_floats: np.ndarray
    #: (rows, 3, 2N) rows s = q - p, y = g_q - g and g_q of each accepted
    #: move, and its gradient g_q as complex (rows, N) and floats (rows, 2N)
    moves: np.ndarray
    gradients: np.ndarray
    gradient_floats: np.ndarray
    #: (rows, 1, 1) a dot product per point, and (rows, 2, 3) the dots of
    #: its y and g_q with its s, y and g_q
    dots: np.ndarray
    products: np.ndarray


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather table, a copy of ``balanced_index(n)``, and its inverse,
    the spread. Both are writeable, since np.take copies a read-only index
    on every call."""
    index = balanced_index(n)
    subsets = len(index)
    # entry j of a point's rho M blocks lands at positions[j] of an (S, N)
    # array whose row s is block s in basis order
    positions = (index.reshape(subsets, -1) + (np.arange(subsets) << n)[:, None]).ravel()
    spread = np.empty_like(positions)
    spread[positions] = np.arange(positions.size)
    return index.copy(), spread.reshape(subsets, -1)


def _work(n: int, count: int) -> _Work:
    """This thread's work views at n for a pass over ``count`` points, or
    over as many as fit ``_CHUNK_ELEMENTS`` gathered amplitudes if fewer.

    Every n carves its views from the same per-thread buffers, one per kind
    of array (freed heap space serves them better than one buffer for all).
    The views of an n grow to the most points asked for, and each buffer to
    the largest of its kind: a thread's memory follows its largest pass.
    """
    views = getattr(_scratch, "views", {})
    if n not in views or len(views[n].points) < count:
        gather, spread = _tables(n)
        subsets, dim = gather.shape[:2]
        rows = min(count, max(1, _CHUNK_ELEMENTS // spread.size))
        # complex entries per point of points, conjugates, blocks,
        # conj_blocks, rho, moves, and a dot product or six
        sizes = [1 << n] * 2 + [spread.size] * 2 + [subsets * dim * dim, 3 << n, 3]
        buffers = getattr(_scratch, "buffers", [np.empty(0, np.complex128)] * len(sizes))
        if any(len(b) < rows * size for b, size in zip(buffers, sizes)):
            _scratch.buffers = [b if len(b) >= rows * size else np.empty(rows * size, b.dtype)
                                for b, size in zip(buffers, sizes)]
            _scratch.views = views = {}
        (points, conjugates, blocks, conj_blocks, rho, moves,
         dots) = (b[: rows * size].reshape(rows, -1) for b, size in zip(_scratch.buffers, sizes))
        # s, y and g_q each contiguous, as the rows of a (3, rows, 2N) array
        moves, dots = moves.view(np.float64).reshape(3, rows, -1), dots.view(np.float64)
        views[n] = _Work(gather, spread, points.view(np.float64), points, conjugates,
                         blocks.reshape((rows,) + gather.shape), blocks.reshape(rows, subsets, -1),
                         conj_blocks.reshape((rows,) + gather.shape), conj_blocks,
                         rho.reshape(rows, subsets, dim, dim), rho.view(np.float64),
                         moves.transpose(1, 0, 2), moves[2].view(np.complex128), moves[2],
                         dots[:, :1].reshape(rows, 1, 1), dots.reshape(rows, 2, 3))
    return views[n]


def _rows(work: _Work, rows: slice) -> _Work:
    """The views of ``work`` for a pass over its rows ``rows``."""
    return _Work(work.gather, work.spread, *(a[rows] for a in work[2:]))


def _dots(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> list[float]:
    """a[r] . b[r] of each real row as Python numbers, through ``out``
    (rows, 1, 1): a stacked (rows, 1, L) @ (rows, L, 1) matmul gives each row
    the bits of its 1-D BLAS dot, which one row takes at half the cost."""
    if len(a) == 1:
        return [float(a.ravel().dot(b.ravel()))]
    return np.matmul(a[:, None], b[:, :, None], out).ravel().tolist()


def _normalize(x: np.ndarray, out: np.ndarray, dots: np.ndarray) -> np.ndarray:
    """Each real row of x over its 2-norm into ``out``, bitwise the one-row
    ``x[r] / sqrt(x[r] @ x[r])``, through ``dots`` (rows, 1, 1)."""
    if len(x) == 1:
        return np.divide(x, sqrt(float(x.ravel().dot(x.ravel()))), out)
    norms = np.sqrt(np.matmul(x[:, None], x[:, :, None], dots), dots)
    return np.divide(x, norms[:, 0], out)


def _by_row(factors: list[float]) -> float | np.ndarray:
    """One factor per row, to multiply a stack of rows by."""
    return factors[0] if len(factors) == 1 else np.array(factors)[:, None]


def _value_pass(w: _Work) -> tuple[list[float], list[float]]:
    """``objective`` and |c|^2 of each of the points c of ``w``, where it
    leaves their blocks M and rho = M M^H for ``_gradient_pass``."""
    c, norms = w.complex_points, _dots(w.points, w.points, w.dots)
    gram(c.take(w.gather, axis=1, out=w.blocks, mode="clip"), w.conj_blocks, w.rho)
    # Mean purity of the raw c over the kernel's subsets only (for even n
    # they leave out the complements, whose purities are the same): the
    # summed Tr rho^2 is one dot of rho's interleaved re/im parts.
    raws = _dots(w.rho_floats, w.rho_floats, w.dots)
    subsets = len(w.spread)
    return [raw / subsets / norm_sq**2 for raw, norm_sq in zip(raws, norms)], norms


def _gradient_pass(w: _Work, values: list[float], norms: list[float]) -> np.ndarray:
    """Exact gradients, as interleaved reals, at the points of ``w`` from
    their value pass: the blocks M and rho it left there, values and |c|^2.

    d raw / dc* is the mean over subsets of 2 rho M in basis order: the
    spread gathers each subset's rho M back into a row of N entries, and
    the rows are summed. raw(c)/|c|^4 is homogeneous of degree 2 in c and
    c*, and the gradient in the (re, im) pairs is 2 d/dc*. rho M takes the
    place of conj(M), and its spread that of M.
    """
    np.matmul(w.rho, w.blocks, w.conj_blocks)
    g = np.add.reduce(w.rho_m.take(w.spread, axis=1, out=w.spread_blocks, mode="clip"), axis=1,
                      out=w.gradients)
    subsets = len(w.spread)
    g *= _by_row([4.0 / subsets / norm_sq**2 for norm_sq in norms])
    radial = _by_row([4.0 * value / norm_sq for value, norm_sq in zip(values, norms)])
    g -= np.multiply(w.complex_points, radial, w.conjugates)
    return w.gradient_floats


def _one_point(point: np.ndarray) -> _Work:
    """The work views for one point, holding the decoded ``point``."""
    c, n = _decode(point)
    w = _rows(_work(n, 1), slice(1))
    w.complex_points[0] = c
    return w


def objective(point: np.ndarray) -> float:
    """Potential of the normalized state encoded by ``point``; scale-invariant."""
    return _value_pass(_one_point(point))[0][0]


def value_and_gradient(point: np.ndarray) -> tuple[float, np.ndarray]:
    """``objective`` and its exact gradient: the value pass, then the gradient pass."""
    w = _one_point(point)
    values, norms = _value_pass(w)
    return values[0], _gradient_pass(w, values, norms)[0].copy()


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
            # a Python int: numpy ints overflow the seed mask
            object.__setattr__(self, name, _integer(value, name, ConfigError))
        if not 2 <= self.n_qubits <= CACHED_INDEX_QUBITS:
            raise ConfigError(f"n_qubits must be in 2..{CACHED_INDEX_QUBITS}, got "
                              f"{self.n_qubits}; {_LARGER_STATES}")
        if self.restarts < 1:
            raise ConfigError("restarts must be positive")


@dataclass(frozen=True)
class MinimizeResult:
    """Best state found plus per-restart traces, stop reasons and value passes.

    ``stop_reasons[r]`` says why restart r stopped: ``grad_tol`` (gradient
    norm below ``GRAD_TOL``), ``step_tol`` (a backtrack shrank the step
    below ``STEP_TOL`` with no trial point passing the Armijo test), ``ftol``
    (accepted decrease below ``OBJECTIVE_TOL``) or ``max_iters``.
    ``evaluations[r]`` counts its value passes, one per trial point; the
    gradient pass runs once per accepted one.
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


class _Restart:
    """The scalars of one restart's descent, kept as Python numbers."""

    __slots__ = ("index", "value", "slope", "step", "iteration", "evaluations", "trace", "reason")

    def __init__(self, index: int):
        # the start is the first trial point, taken whatever its value
        self.index, self.value, self.slope, self.step = index, float("inf"), 0.0, INITIAL_STEP
        self.iteration, self.evaluations, self.trace = 0, 0, []
        self.reason: StopReason | None = None


def _directions(moves: np.ndarray, fresh: list[bool], products: np.ndarray,
                out: np.ndarray) -> tuple[list[float], list[float]]:
    """Memoryless BFGS directions d = -H g into ``out`` (rows, L) from the
    rows [s; y; g] of ``moves`` (rows, 3, L); returns each slope g.d and g.g.

    H is the BFGS update of gamma I, gamma = s.y / y.y, by the pair (s, y):
    d = (y.g / y.y - 2 s.g / s.y) s + (s.g / y.y) y - gamma g, or -g where
    ``fresh`` (s and y are no move), s.y <= 0 or g.d >= 0. Two stacked
    products, the rows y and g of the Gram of [s; y; g] (``products``) and
    then d, give every row the bits it has alone.
    """
    entries = np.matmul(moves[:, 1:], moves.transpose(0, 2, 1), products).tolist()
    coefficients, slopes, g_sqs = [], [], []
    for ((sy, yy, yg), (sg, _, gg)), first in zip(entries, fresh):
        c = (0.0, 0.0, -1.0)
        if sy > 0 and not first:
            bfgs = (yg / yy - 2.0 * sg / sy, sg / yy, -sy / yy)
            if bfgs[0] * sg + bfgs[1] * yg + bfgs[2] * gg < 0:
                c = bfgs
        coefficients += c
        slopes.append(c[0] * sg + c[1] * yg + c[2] * gg)
        g_sqs.append(gg)
    np.matmul(np.array(coefficients).reshape(-1, 1, 3), moves, out[:, None])
    return slopes, g_sqs


def _descend(starts: np.ndarray) -> tuple[np.ndarray, list[_Restart]]:
    """Descent along ``_directions`` from every row of ``starts``
    (R, 2^(n+1)), all restarts in lockstep; renormalize after every step.

    Each backtrack starts at ``INITIAL_STEP`` and takes the trial point
    q = p + step d by the Armijo test with slope g.d. A round tries one point
    per live restart, in chunks of a pass (``_round``). Returns the final
    points and each restart's scalars, trace and stop reason.
    """
    work = _work(starts.shape[1].bit_length() - 2, len(starts))
    rows = len(work.points)
    # the views for a pass over the first k rows, made once per job and k
    prefix = lru_cache(maxsize=None)(lambda k: _rows(work, slice(k)))
    # a zero direction makes the normalized start the first trial point
    p, finals = starts.copy(), np.empty_like(starts)
    g, d = np.zeros_like(starts), np.zeros_like(starts)
    live = restarts = [_Restart(r) for r in range(len(starts))]
    while live:
        # the passes of every round until a restart stops
        passes = [(live[a : a + rows], p[a : a + rows], g[a : a + rows], d[a : a + rows])
                  for a in range(0, len(live), rows)]
        while not any([_round(work, prefix, *chunk) for chunk in passes]):
            pass
        done = [i for i, r in enumerate(live) if r.reason]
        finals[[live[i].index for i in done]] = p[done]
        kept = [i for i, r in enumerate(live) if r.reason is None]
        live, p, g, d = [live[i] for i in kept], p[kept], g[kept], d[kept]
    return finals, restarts


def _round(work: _Work, prefix: Callable[[int], _Work], live: list[_Restart], p: np.ndarray,
           g: np.ndarray, d: np.ndarray) -> bool:
    """One trial point for each of the live restarts of one pass, at the
    points p with gradients g and directions d, which it updates for the
    accepted ones; ``prefix(k)`` gives the views of ``work`` for its first k
    rows. Returns whether a restart stopped."""
    w = prefix(len(live))
    q = np.multiply(d, _by_row([r.step for r in live]), w.points)
    np.add(p, q, q)
    _normalize(q, q, w.dots)
    values, norms = _value_pass(w)
    accepted, stopped = [], False
    for j, (r, value) in enumerate(zip(live, values)):
        r.evaluations += 1
        if value <= r.value + ARMIJO * r.step * r.slope:
            accepted.append(j)
        else:
            r.step *= SHRINK
            if r.step < STEP_TOL:
                r.reason, stopped = "step_tol", True
    if not accepted:
        return stopped
    k = len(accepted)
    values, norms = [values[j] for j in accepted], [norms[j] for j in accepted]
    if accepted[-1] - accepted[0] + 1 == k:
        # one run of rows: the gradient pass reads them in place
        rows = slice(accepted[0], accepted[0] + k)
        w = prefix(k) if rows.start == 0 else _rows(work, rows)
    else:
        # numpy copies overlapping input first, so each take packs the rows
        rows = accepted
        for a in (w.blocks, w.rho, w.complex_points):
            a.take(rows, axis=0, out=a[:k], mode="clip")
        w = prefix(k)
    gq, q = _gradient_pass(w, values, norms), w.points
    np.subtract(q, p[rows], w.moves[:, 0])
    np.subtract(gq, g[rows], w.moves[:, 1])
    p[rows], g[rows] = q, gq
    fresh = [live[j].iteration == 0 for j in accepted]
    # a run of rows takes its directions in place, and q, kept in p, the others'
    out = d[rows] if type(rows) is slice else q
    slopes, g_sqs = _directions(w.moves, fresh, w.products, out)
    if out is q:
        d[rows] = q
    for j, value, slope, g_sq in zip(accepted, values, slopes, g_sqs):
        r = live[j]
        improvement = r.value - value
        r.value, r.slope, r.step = value, slope, INITIAL_STEP
        r.trace.append((r.iteration, value))
        r.iteration += 1
        if improvement < OBJECTIVE_TOL:
            r.reason = "ftol"
        elif r.iteration > MAX_ITERS:
            r.reason = "max_iters"
        elif sqrt(g_sq) < GRAD_TOL:
            r.reason = "grad_tol"
        stopped = stopped or r.reason is not None
    return stopped


def minimize_potential(config: MinimizeConfig) -> MinimizeResult:
    """Multi-start minimization; deterministic given (config, seed), for a
    fixed BLAS thread count.

    Each restart draws its starting point from its own stream seeded by
    (seed, restart index), and its result depends on those alone, bit for
    bit: restarts share rounds, not arithmetic. The best restart is chosen
    by (value, index) lexicographic order.
    """
    dim = 1 << (config.n_qubits + 1)
    u_seed = config.seed & 0xFFFFFFFFFFFFFFFF
    starts = np.array([np.random.default_rng([u_seed, r]).standard_normal(dim)
                       for r in range(config.restarts)])
    points, restarts = _descend(starts)
    values = [r.value for r in restarts]
    best = values.index(min(values))
    c = points[best].view(np.complex128)
    state = PureState(config.n_qubits, c / np.linalg.norm(c))
    return MinimizeResult(state, values[best], best, [r.trace for r in restarts],
                          [r.reason for r in restarts], [r.evaluations for r in restarts],
                          config.seed)


def export_trace_csv(result: MinimizeResult, path) -> None:
    """Write (restart, iteration, value) rows for every trace sample."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["restart", "iteration", "value"])
        for r, trace in enumerate(result.traces):
            for iteration, value in trace:
                writer.writerow([r, iteration, repr(value)])
