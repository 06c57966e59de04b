"""Partial trace and purity for arbitrary qubit subsets of arbitrary n.

This is the brute-force reference implementation. A gather index lays the
amplitudes out as a 2^k x 2^(n-k) block M per subset (kept qubits by traced
qubits); the reduced density matrix is rho = M M^H and its purity the
squared Frobenius norm. ``balanced_purities`` runs every balanced subset of
one n through chunks of a stacked index, so the whole potential is a few
batched products.

Blocks of at most ``_ENTRY_ROUTE_AMPLITUDES`` = 16 amplitudes (n <= 4)
take a second route through the same chunks and buffers. A batched
product of 4x4 blocks costs about 0.3-0.5 us per block for 64
multiply-adds, nearly all of it per-block overhead, so there the purity is
summed from Gram entries instead:
Tr rho^2 = sum_x G[x, x]^2 + 2 sum_{x<y} |G[x, y]|^2, with
G[x, y] = sum_z M[x, z] conj(M[y, z]) for x <= y, each entry an
elementwise product of two rows gathered from ``balanced_index``. The
route follows the block size alone. Time per call, product route -> entry
route (2-vCPU Intel Xeon, one BLAS thread, numpy 2.4.6; single states:
medians of five alternating processes, batches: medians of seven
interleaved rounds in one process):

    n  block  1 state             10^3 states         2x10^5 states
    2  2x2    19.7 -> 16.9 us     0.32 -> 0.043 ms    63 -> 7.6 ms
    3  2x4    18.6 -> 17.2 us     0.94 -> 0.22 ms     186 -> 30 ms
    4  4x4    20.3 -> 17.8 us     1.13 -> 0.47 ms     226 -> 102 ms
    5  4x8    21.4 -> 20.8 us     4.2 -> 3.1 ms       971 -> 750 ms
    6  8x8    25 -> 30 us         6.4 -> 13.5 ms

n = 5 stays on the product route: its batches would gain 1.3-1.4x, but a
single state gained 3-12% in medians and lost in a quarter of the runs,
within the host's run-to-run spread, and no caller batches five-qubit
states.

The index of a subset is a bit permutation, so index[x, z] splits into
kept[x] + traced[z]. ``balanced_offsets`` keeps only these two parts,
C(n, k) (2^k + 2^(n-k)) entries (3.5 MB at n = 14 against 225 MB for the
table), and the kernel adds them per chunk. The expanded table stays
cached only up to ``CACHED_INDEX_QUBITS``.
The four-qubit closed forms in ``closed_form`` are checked against this
module, never derived from it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, prod
from typing import Iterable, Mapping

import numpy as np

from .errors import ArityError, DimensionError, SubsetError
from .qstate import MAX_QUBITS, PureState

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced density matrix for an ordered subset of kept qubits."""

    kept_qubits: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128)
        dim = 1 << len(self.kept_qubits)
        if m.shape != (dim, dim):
            raise SubsetError(
                f"expected a {dim}x{dim} matrix for {len(self.kept_qubits)} kept "
                f"qubits, got shape {m.shape}"
            )
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise SubsetError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise SubsetError("density matrix trace is not 1 within 1e-12")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; >= -1e-10 up to numerical noise for valid reductions."""
        return float(np.linalg.eigvalsh(self.entries)[0])


#: Gathered amplitudes per chunk of ``balanced_purities``: 256 KiB of complex
#: blocks, so a chunk and its products stay in the L2 cache. Of 2^10..2^18,
#: 2^14 was fastest at n = 9..12 and for 10^3 four-qubit states (2-vCPU AMD
#: EPYC, OpenBLAS on one thread). A chunk holds at least one subset of one state.
_CHUNK_ELEMENTS = 1 << 14

#: Largest n whose expanded balanced index stays cached: the table takes
#: 1 MiB at n = 10, and would take 7.6 MB at n = 11 and 225 MB at n = 14.
#: Expanding per chunk at n <= 10 instead cost 7-58% more kernel time at
#: n = 5..10 (2-vCPU Intel Xeon, one BLAS thread).
CACHED_INDEX_QUBITS = 10

#: Largest block, in amplitudes (2^n), that ``balanced_purities`` sums from
#: Gram entries instead of forming rho = M M^H by batched products: the
#: module docstring gives the measurements behind it.
_ENTRY_ROUTE_AMPLITUDES = 16

#: Per-thread work buffers of ``balanced_purities``, see ``_chunk_buffers``.
_scratch = threading.local()


def _gather_index(n: int, keep: tuple[int, ...]) -> np.ndarray:
    """index[x, z] = full basis index whose kept bits spell x and traced bits spell z.

    Patterns follow the package convention: within both the kept and traced
    groups, ascending qubit number maps to descending bit significance.
    """
    traced = [q for q in range(1, n + 1) if q not in keep]
    axes = [q - 1 for q in keep] + [q - 1 for q in traced]
    return np.arange(1 << n).reshape((2,) * n).transpose(axes).reshape(1 << len(keep), -1)


def balanced_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """All C(n, floor(n/2)) qubit subsets of size floor(n/2), ascending order."""
    if n < 2:
        raise ArityError(f"no balanced bipartition exists for n={n}")
    return tuple(combinations(range(1, n + 1), n // 2))


def _bit_offsets(qubits: np.ndarray, n: int) -> np.ndarray:
    """(S, 2^m) basis-index offsets spelled by each row of m qubits.

    Entry [s, x] sets the bit of qubit q (significance n - q) wherever x
    has the matching bit, with the row's first qubit most significant in x.
    """
    m = qubits.shape[1]
    bits = (np.arange(1 << m, dtype=np.intp)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    return (np.intp(1) << (n - qubits)) @ bits.T


@lru_cache(maxsize=None)
def balanced_offsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Kept and traced offsets, (S, 2^k) and (S, 2^(n-k)), of the kernel's subsets.

    ``kept[s, x] + traced[s, z]`` is ``balanced_index(n)[s, x, z]``. The
    subsets are all of ``balanced_subsets(n)`` for odd n. For even n they
    are its first half, the subsets holding qubit 1: the second half lists
    their complements in reverse order, and Tr rho_A^2 = Tr rho_Abar^2.
    Above ``MAX_QUBITS`` it raises before allocating.
    """
    if n > MAX_QUBITS:
        raise DimensionError(f"{n} qubits exceed the limit of {MAX_QUBITS}")
    subsets = balanced_subsets(n)
    if n % 2 == 0:
        subsets = subsets[: len(subsets) // 2]
    keep = np.array(subsets, dtype=np.intp)
    member = np.zeros((len(keep), n + 1), dtype=bool)
    member[np.arange(len(keep))[:, None], keep] = True
    # the complement of each row, ascending: qubits 1..n not in it
    traced = np.nonzero(~member[:, 1:])[1].reshape(len(keep), -1) + 1
    offsets = _bit_offsets(keep, n), _bit_offsets(traced, n)
    for part in offsets:
        part.flags.writeable = False
    return offsets


def _expand(kept: np.ndarray, traced: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (S, 2^k, 2^(n-k)) gather index of kept and traced offsets."""
    return np.add(kept[:, :, None], traced[:, None, :], out=out)


def _read_only_index(n: int) -> np.ndarray:
    """A new expanded ``balanced_index(n)``."""
    index = _expand(*balanced_offsets(n))
    index.flags.writeable = False
    return index


_cached_index = lru_cache(maxsize=None)(_read_only_index)


def balanced_index(n: int) -> np.ndarray:
    """Read-only stacked gather index (S, 2^k, 2^(n-k)) of the subsets of
    ``balanced_offsets``.

    Up to ``CACHED_INDEX_QUBITS`` it is one cached table; above, each call
    expands a new one from the offsets, which goes when the caller drops it.
    """
    return (_cached_index if n <= CACHED_INDEX_QUBITS else _read_only_index)(n)


def gram(m: np.ndarray, conj: np.ndarray | None = None,
         rho: np.ndarray | None = None) -> np.ndarray:
    """rho = M M^H over the last two axes of gathered blocks M.

    ``conj`` and ``rho``, when given, are arrays shaped like M and like rho
    that receive conj(M) and rho in place of new arrays.
    """
    return np.matmul(m, np.conjugate(m, out=conj).swapaxes(-1, -2), out=rho)


def gram_purities(m: np.ndarray, conj: np.ndarray | None = None,
                  rho: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``gram`` of the blocks M, and Tr rho^2 of each block."""
    rho = gram(m, conj, rho)
    # a complex rho viewed as its real dtype lists re, im interleaved
    parts = rho.view(rho.real.dtype).reshape(rho.shape[:-2] + (-1,))
    return rho, np.einsum("...i,...i->...", parts, parts)


def _canonical_subset(n: int, keep: Iterable[int]) -> tuple[int, ...]:
    subset = tuple(sorted(set(int(q) for q in keep)))
    if not subset:
        raise SubsetError("keep set must be non-empty")
    if subset[0] < 1 or subset[-1] > n:
        raise SubsetError(f"keep set {subset} out of range 1..{n}")
    if len(subset) == n:
        raise SubsetError("keep set must be a proper subset of the qubits")
    return subset


def reduced_density(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace of |psi><psi| down to the kept qubits."""
    subset = _canonical_subset(state.n_qubits, keep)
    return DensityMatrix(subset, gram(state.amplitudes[_gather_index(state.n_qubits, subset)]))


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """Tr(rho^2) as the squared Frobenius norm, exact for Hermitian rho."""
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return float(np.real(np.vdot(m, m)))


def _states_of(amps: np.ndarray, n: int) -> np.ndarray:
    """``amps`` as an array of states along its last axis, which must hold
    2^n amplitudes; any other width raises DimensionError."""
    amps = np.asarray(amps)
    if amps.ndim == 0 or amps.shape[-1] != 1 << n:
        raise DimensionError(
            f"expected {1 << n} amplitudes per state for n={n}, got shape {amps.shape}")
    return amps


def subset_purity(amplitudes: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Batched Tr(rho_A^2) straight from (stacked) amplitude vectors, (..., 2**n)."""
    return gram_purities(_states_of(amplitudes, n)[..., _gather_index(n, keep)])[1]


def _chunk_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Three complex work buffers and one intp buffer of ``_CHUNK_ELEMENTS``
    entries, which hold one subset of one state up to ``MAX_QUBITS``: the
    gathered blocks, their conjugates, rho, and the chunk's gather index
    where ``balanced_index`` is not cached. The Gram-entry route keeps its
    two row gathers in the first two and the chunk's amplitudes, then its
    Gram entries, in the third.

    They are made once per thread and reused. With new arrays for every
    chunk, malloc gave the few hundred KiB back to the system after each
    call and faulted them in again on the next: 73, 96 and 752 page faults
    per ``analyze`` at n = 8, 9 and 10.
    """
    if not hasattr(_scratch, "buffers"):
        _scratch.buffers = tuple(np.empty(_CHUNK_ELEMENTS, dtype=np.complex128)
                                 for _ in range(3)) + (np.empty(_CHUNK_ELEMENTS, dtype=np.intp),)
    return _scratch.buffers


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return buffer[: prod(shape)].reshape(shape)


@lru_cache(maxsize=None)
def _entry_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-pair gather tables of the Gram entries x <= y of every kernel block.

    ``rows_x[z, s, e]`` and ``rows_y[z, s, e]`` are ``balanced_index(n)[s, x, z]``
    and ``[s, y, z]`` for the e-th pair (x, y) of ``triu_indices(2^k)``, so
    G[x, y] = sum_z M[x, z] conj(M[y, z]) is a product of the two gathers
    summed over z. ``weights[e]`` is the weight of |G[x, y]|^2 in Tr rho^2:
    1 on the diagonal, 2 above it for the mirrored entry below.
    """
    index = balanced_index(n)
    x, y = np.triu_indices(index.shape[1])
    rows_x, rows_y = (np.ascontiguousarray(index[:, rows].transpose(2, 0, 1)) for rows in (x, y))
    weights = np.where(x == y, 1.0, 2.0)
    for table in (rows_x, rows_y, weights):
        table.flags.writeable = False
    return rows_x, rows_y, weights


def _entry_purities(flat: np.ndarray, n: int, out: np.ndarray) -> None:
    """Tr rho^2 of the kernel's subsets into ``out`` (states, S), summed from
    Gram entries: the small-block route of ``balanced_purities``.

    Each chunk lays its states out innermost, amplitude by state, so every
    gather copies whole rows and the product, the sum over z and the squares
    run over contiguous runs of states.
    """
    rows_x, rows_y, weights = _entry_tables(n)
    states = max(1, _CHUNK_ELEMENTS // rows_x.size)
    left, right, entries, _ = _chunk_buffers()
    for b0 in range(0, flat.shape[0], states):
        rows = flat[b0 : b0 + states]
        shape = rows_x.shape + (len(rows),)
        # amplitude-major copy of the chunk; rho's buffer is free until the sum below
        columns = _view(entries, (1 << n, len(rows)))
        np.copyto(columns, rows.T)
        m_x = np.take(columns, rows_x, axis=0, mode="clip", out=_view(left, shape))
        m_y = np.take(np.conjugate(columns, out=columns), rows_y, axis=0, mode="clip",
                      out=_view(right, shape))
        g = np.add.reduce(np.multiply(m_x, m_y, out=m_x), axis=0, out=_view(entries, shape[1:]))
        # a complex G viewed as its real dtype lists re, im interleaved
        parts = g.view(np.float64)
        squares = weights @ np.square(parts, out=parts)
        np.add(squares[:, 0::2], squares[:, 1::2], out=out[b0 : b0 + states].T)


def _product_purities(flat: np.ndarray, n: int, out: np.ndarray) -> None:
    """Tr rho^2 of the kernel's subsets into ``out`` (states, S) from gathered
    blocks and batched products rho = M M^H: the route of blocks above
    ``_ENTRY_ROUTE_AMPLITUDES``."""
    kept, traced = balanced_offsets(n)
    cached = balanced_index(n) if n <= CACHED_INDEX_QUBITS else None
    # chunks of subsets x states whose gathered blocks stay cache-sized
    subsets = min(len(kept), max(1, _CHUNK_ELEMENTS >> n))
    states = max(1, _CHUNK_ELEMENTS // (subsets << n))
    gather, conj, rho, scratch_index = _chunk_buffers()
    for s0 in range(0, len(kept), subsets):
        s1 = min(s0 + subsets, len(kept))
        if cached is None:
            index = _expand(kept[s0:s1], traced[s0:s1],
                            _view(scratch_index, (s1 - s0, kept.shape[1], traced.shape[1])))
        else:
            index = cached[s0:s1]
        for b0 in range(0, flat.shape[0], states):
            rows = flat[b0 : b0 + states]
            shape = (len(rows),) + index.shape
            block = np.take(rows, index, axis=1, mode="clip", out=_view(gather, shape))
            out[b0 : b0 + states, s0:s1] = gram_purities(
                block, _view(conj, shape), _view(rho, shape[:-1] + shape[-2:-1]))[1]


def balanced_purities(amps: np.ndarray, n: int) -> np.ndarray:
    """Tr rho_A^2 of every balanced subset, in ``balanced_subsets`` order.

    ``amps`` is (..., 2**n), and any other width raises DimensionError;
    the result is (..., C(n, floor(n/2))). Blocks of at most
    ``_ENTRY_ROUTE_AMPLITUDES`` amplitudes (n <= 4) are summed from their
    Gram entries (``_entry_purities``), larger ones from batched products
    rho = M M^H (``_product_purities``); the module docstring gives the
    crossover. Either way, beyond the result (and a complex128
    copy of input of another dtype), the memory it takes is a chunk-sized
    constant.
    """
    half = len(balanced_offsets(n)[0])
    amps = _states_of(amps, n)
    flat = np.asarray(amps, dtype=np.complex128).reshape(-1, 1 << n)
    out = np.empty((flat.shape[0], comb(n, n // 2)))
    route = _entry_purities if 1 << n <= _ENTRY_ROUTE_AMPLITUDES else _product_purities
    route(flat, n, out[:, :half])
    if n % 2 == 0:
        # the complements, in reverse order; a block of rows at a time, since
        # numpy copies overlapping source columns to a temporary first
        rows = max(1, _CHUNK_ELEMENTS // half)
        for b0 in range(0, flat.shape[0], rows):
            out[b0 : b0 + rows, half:] = out[b0 : b0 + rows, half - 1 :: -1]
    return out.reshape(amps.shape[:-1] + (-1,))


def all_balanced_purities(state: PureState) -> Mapping[tuple[int, ...], float]:
    """Purity of every balanced subset (complements included for even n)."""
    values = balanced_purities(state.amplitudes, state.n_qubits)
    return dict(zip(balanced_subsets(state.n_qubits), values.tolist()))
