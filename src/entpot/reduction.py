"""Partial trace and purity for arbitrary qubit subsets of arbitrary n.

A gather index lays the amplitudes out as a 2^k x 2^(n-k) block M per
subset (kept qubits by traced qubits); the reduced density matrix is
rho = M M^H and its purity the squared Frobenius norm.
``balanced_purities`` gives the purity of every balanced subset of one n,
for one state or a batch, by one of three routes. The block size 2^n
alone picks the route, with no option to choose one, and all three run
in chunks through the same per-thread buffers:

- Gram entries, blocks of at most ``_ENTRY_ROUTE_AMPLITUDES`` = 16
  amplitudes (n <= 4);
- one batched product rho = M M^H per subset, n = 5..10;
- one Gram per set of k+1 qubits, shared by up to k+2 subsets, blocks of
  more than ``_PRODUCT_ROUTE_AMPLITUDES`` = 2^10 amplitudes (n >= 11).

For small blocks a batched product of 4x4 blocks costs about 0.3-0.5 us
per block for 64 multiply-adds, nearly all of it per-block overhead, so
there the purity is summed from Gram entries instead:
Tr rho^2 = sum_x G[x, x]^2 + 2 sum_{x<y} |G[x, y]|^2. Each entry above the
diagonal, G[x, y] = sum_z M[x, z] conj(M[y, z]), is an elementwise product
of two rows gathered from ``balanced_index``: 72 complex rows per state at
n = 4, where gathering the diagonal too took 120. Each diagonal entry,
G[x, x] = sum_z |M[x, z]|^2, is a real sum of squared moduli, and one
product of a 0/1 incidence table with the 2^n squared moduli of a state
gives all of them. Time per call, product route -> entry route (2-vCPU
Intel Xeon, one BLAS thread, numpy 2.4.6; medians of nine interleaved
rounds in one process, the best of three calls each below 2x10^5 states):

    n  block  1 state          10^3 states        2x10^5 states
    2  2x2    20.7 -> 18.3 us  0.34 -> 0.044 ms   65 -> 8.2 ms
    3  2x4    21.9 -> 19.6 us  0.97 -> 0.094 ms   307 -> 28 ms
    4  4x4    24.6 -> 20.6 us  1.88 -> 0.52 ms    247 -> 77 ms
    5  4x8    34.2 -> 33.6 us  4.1 -> 1.7 ms      977 -> 418 ms
    6  8x8    27.9 -> 34.7 us  6.3 -> 9.4 ms

Gathering the diagonal entries as products too took 98-100 ms for 2x10^5
four-qubit states and 0.48-0.50 ms for 10^3 on the same host. n = 5 stays
on the product route: its batches would gain 2.3x, but a single state
gains nothing beyond the host's run-to-run spread, and no caller batches
five-qubit states.

For large blocks the products run near the rate one core reaches on big
zgemm, so only doing fewer of them helps. One Gram rho_C = M_C M_C^H of a
set C of k+1 qubits gives the purity of every child C - {a} as
||Tr_a rho_C||^2, from rho_C's two diagonal blocks for qubit a; at even n
a child without qubit 1 stands for its complement, and at odd n
||rho_C||^2 is also the purity of C's k-qubit complement. A cover
(``_cover_plan``, cached per n) lists the sets: at n = 11 and 12 the 66
sets of ``_witt_sets``, which serve each of the 462 subsets exactly once
with all seven slots of every set, and elsewhere a greedy choice, which
needed 96 and 78 sets at n = 11 and 12. Per state, in complex
multiply-adds of the products, and time per call, product route -> cover
route (same host; medians of interleaved calls in one process, 60 rounds
at n <= 12 and 6 above; cold plan: median of five processes):

    n   subsets  sets  multiply-adds       1 state          cold plan
    9     126     29   1.03M -> 0.48M      0.79 -> 0.82 ms
    10    126     29   4.13M -> 1.90M      1.59 -> 1.92 ms
    11    462     66   30.3M -> 8.65M      10.0 -> 5.1 ms   3.8 ms
    12    462     66   121M -> 34.6M       32.7 -> 16.8 ms  6.1 ms
    13   1716    319   900M -> 334M        209 -> 95 ms     17.0 ms
    14   1716    329   3.60G -> 1.38G      660 -> 405 ms    22.6 ms

The partial traces and their norms cost about as much again as the
products, so at n = 9 and 10, where the products are small, the cover
route saves nothing and they stay on the product route. The product
times at n >= 11 are those of the product route before the cover route
existed, which expanded its gather index per chunk.

The index of a subset is a bit permutation, so index[x, z] splits into
kept[x] + traced[z]. One index cache per n holds what a route reads. Up to
``CACHED_INDEX_QUBITS``, the n of the first two routes, ``balanced_index``
expands these offsets into the whole table (1 MiB at n = 10). Above, only
``_cover_plan`` is kept, with the offsets of its sets and their
complements, which the cover route expands per chunk: 0.95 MB for the
whole plan at n = 14, against 225 MB for the table.
The four-qubit closed forms in ``closed_form`` are checked against this
module, never derived from it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import comb, prod
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ArityError, DimensionError, SubsetError
from .qstate import MAX_QUBITS, PureState, _check_qubit_count, _integer, _numbers, states_of_width

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Reduced density matrix for an ordered subset of kept qubits."""

    kept_qubits: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kept_qubits", tuple(_kept_qubits(self.kept_qubits)))
        m = np.array(_numbers(self.entries, "iufc", SubsetError, "numbers"), dtype=np.complex128)
        dim = 1 << len(self.kept_qubits)
        if m.shape != (dim, dim):
            raise SubsetError(f"expected a {dim}x{dim} matrix for {len(self.kept_qubits)} kept "
                              f"qubits, got shape {m.shape}")
        # nan fails the comparisons; an inf entry must not reach the difference
        if not (np.isfinite(m).all() and np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL):
            raise SubsetError("density matrix is not finite and Hermitian within 1e-12")
        trace = np.trace(m)
        if not (abs(trace.real - 1.0) <= TRACE_TOL and abs(trace.imag) <= TRACE_TOL):
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

#: Largest n of ``balanced_index``, whose table is cached: 1 MiB at n = 10,
#: where n = 11 would take 7.6 MB and n = 14 225 MB. Expanding per chunk at
#: n <= 10 instead cost 7-58% more kernel time at n = 5..10 (2-vCPU Intel
#: Xeon, one BLAS thread). It is also the minimizer's limit.
CACHED_INDEX_QUBITS = 10

#: Largest block, in amplitudes (2^n), that ``balanced_purities`` sums from
#: Gram entries instead of forming rho = M M^H by batched products: the
#: module docstring gives the measurements behind it.
_ENTRY_ROUTE_AMPLITUDES = 16

#: Largest block, in amplitudes (2^n), that ``balanced_purities`` forms by
#: one batched product rho = M M^H per subset through ``balanced_index``;
#: larger ones take the cover route. The module docstring gives the
#: measurements behind it.
_PRODUCT_ROUTE_AMPLITUDES = 1 << CACHED_INDEX_QUBITS

#: Entries of each work buffer: one rho_C of the cover route at MAX_QUBITS,
#: 2^(k+1) x 2^(k+1) for k = 7.
_BUFFER_ELEMENTS = max(_CHUNK_ELEMENTS, 1 << 2 * (MAX_QUBITS // 2 + 1))

#: Entries of the larger half of a chunk of the Gram-entry route: its
#: gathered rows x (or y), or its amplitudes (or their conjugates). The
#: two halves fill one work buffer: 455 states at n = 4. Over 15
#: interleaved rounds of one 2x10^5-state and sixty 10^3-state four-qubit
#: batches, 2^15 took 103.5 ms and 2^14 105.6 ms, faster in 11 (2-vCPU
#: Intel Xeon, one BLAS thread).
_ENTRY_CHUNK_ELEMENTS = 1 << 15

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
    """All C(n, floor(n/2)) qubit subsets of size floor(n/2), ascending order,
    for an integer n in 2..``MAX_QUBITS``, checked before any is listed."""
    if _integer(n, "n_qubits", DimensionError) < 2:
        raise ArityError(f"no balanced bipartition exists for n={n}")
    return _balanced_subsets(_check_qubit_count(n))


_balanced_subsets = lru_cache(maxsize=None)(lambda n: tuple(combinations(range(1, n + 1), n // 2)))


def _kernel_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """The subsets whose purities the kernel computes: all of
    ``balanced_subsets(n)`` for odd n. For even n, its first half, the subsets
    holding qubit 1: the second half lists their complements in reverse
    order, and Tr rho_A^2 = Tr rho_Abar^2. n is checked before anything is built."""
    subsets = balanced_subsets(_check_qubit_count(n))
    return subsets[: len(subsets) // 2] if n % 2 == 0 else subsets


def _bit_offsets(qubits: np.ndarray, n: int) -> np.ndarray:
    """(S, 2^m) basis-index offsets spelled by each row of m qubits.

    Entry [s, x] sets the bit of qubit q (significance n - q) wherever x
    has the matching bit, with the row's first qubit most significant in x.
    """
    m = qubits.shape[1]
    bits = (np.arange(1 << m, dtype=np.intp)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    return (np.intp(1) << (n - qubits)) @ bits.T


def _offsets(keep: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only kept and traced offsets of each row of ascending qubits."""
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


@lru_cache(maxsize=None)
def balanced_index(n: int) -> np.ndarray:
    """Read-only stacked gather index (S, 2^k, 2^(n-k)) of the kernel's
    subsets (``_kernel_subsets``), cached per n; above ``CACHED_INDEX_QUBITS``
    it raises DimensionError before allocating."""
    if n > CACHED_INDEX_QUBITS:
        raise DimensionError(f"{n} qubits exceed the index's limit of {CACHED_INDEX_QUBITS}")
    index = _expand(*_offsets(np.array(_kernel_subsets(n), dtype=np.intp), n))
    index.flags.writeable = False
    return index


def gram(m: np.ndarray, conj: np.ndarray | None = None,
         rho: np.ndarray | None = None) -> np.ndarray:
    """rho = M M^H over the last two axes of gathered blocks M.

    ``conj`` and ``rho``, when given, are arrays shaped like M and like rho
    that receive conj(M) and rho in place of new arrays.
    """
    return np.matmul(m, np.conjugate(m, out=conj).swapaxes(-1, -2), out=rho)


def gram_purities(m: np.ndarray, conj: np.ndarray | None = None,
                  rho: np.ndarray | None = None) -> np.ndarray:
    """Tr rho^2 of each block's ``gram`` rho = M M^H."""
    rho = gram(m, conj, rho)
    # a complex rho viewed as its real dtype lists re, im interleaved
    parts = rho.view(rho.real.dtype).reshape(rho.shape[:-2] + (-1,))
    return np.einsum("...i,...i->...", parts, parts)


def _kept_qubits(keep: Iterable[int]) -> list[int]:
    """``keep`` as Python ints; int() would read 1.9 as qubit 1 and "2" as qubit 2."""
    try:
        return [_integer(q, "kept qubit", SubsetError) for q in keep]
    except (TypeError, SubsetError):
        raise SubsetError(f"kept qubits must be integers in an iterable, got {keep!r}") from None


def _canonical_subset(n: int, keep: Iterable[int]) -> tuple[int, ...]:
    subset = tuple(sorted(set(_kept_qubits(keep))))
    if not 0 < len(subset) < n:
        raise SubsetError(f"keep set {subset} must be a non-empty proper subset of 1..{n}")
    if subset[0] < 1 or subset[-1] > n:
        raise SubsetError(f"keep set {subset} out of range 1..{n}")
    return subset


def reduced_density(state: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace of |psi><psi| down to the kept qubits, for psi normalized:
    a PureState's norm may be off 1 by ``NORM_TOL``, so rho is divided by its trace."""
    subset = _canonical_subset(state.n_qubits, keep)
    rho = gram(state.amplitudes[_gather_index(state.n_qubits, subset)])
    return DensityMatrix(subset, rho / np.trace(rho).real)


def purity(rho: DensityMatrix | np.ndarray) -> float:
    """Tr(rho^2) as the squared Frobenius norm, exact for Hermitian rho."""
    m = rho.entries if isinstance(rho, DensityMatrix) else _numbers(rho, "iufc", SubsetError,
                                                                    "numbers")
    return float(np.real(np.vdot(m, m)))


def _states_of(amps: np.ndarray, n: int) -> np.ndarray:
    """``amps`` as an array of states along its last axis, which must hold
    2^n amplitudes; any other width raises DimensionError."""
    return states_of_width(amps, n, DimensionError,
                           f"expected {1 << n} amplitudes per state for n={n}")


def subset_purity(amplitudes: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Batched Tr(rho_A^2) straight from (stacked) amplitude vectors, (..., 2**n)."""
    return gram_purities(_states_of(amplitudes, n)[..., _gather_index(n, keep)])


def _chunk_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Three complex work buffers and one intp buffer of ``_BUFFER_ELEMENTS``
    entries.

    The product route keeps a chunk's gathered blocks, their conjugates
    and rho in the complex ones, at most ``_CHUNK_ELEMENTS`` each. The
    cover route keeps M_C, conj(M_C) and then the squares of rho_C's
    floats, and rho_C in them, and the chunk's gather index in the intp
    one; one rho_C takes 2^16 entries at n = 14, the only n of these two
    routes that fills more than ``_CHUNK_ELEMENTS``. The Gram-entry route
    (``_EntryWork``) keeps the chunk's amplitudes and their conjugates,
    then the squared moduli, in the first; both row gathers, then the sums
    of the squared entries, in the second; and the Gram entries above the
    diagonal, followed by the diagonal ones, in the third. Its two halves
    of ``_ENTRY_CHUNK_ELEMENTS`` fill the first buffer at n = 2 and the
    second at n = 3 and 4. Pages no call has touched take no memory.

    They are made once per thread and reused. With new arrays for every
    chunk, malloc gave the few hundred KiB back to the system after each
    call and faulted them in again on the next: 73, 96 and 752 page faults
    per ``analyze`` at n = 8, 9 and 10.
    """
    if not hasattr(_scratch, "buffers"):
        _scratch.buffers = tuple(np.empty(_BUFFER_ELEMENTS, dtype=np.complex128)
                                 for _ in range(3)) + (np.empty(_BUFFER_ELEMENTS, dtype=np.intp),)
    return _scratch.buffers


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return buffer[: prod(shape)].reshape(shape)


@lru_cache(maxsize=None)
def _entry_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-pair gather table of the Gram entries x < y of every kernel block,
    and the incidence table of its rows.

    ``pairs[0, z, s, e]`` is ``balanced_index(n)[s, x, z]`` and ``pairs[1, z, s, e]``
    is 2^n + ``balanced_index(n)[s, y, z]`` for the e-th pair (x, y) of
    ``triu_indices(2^k, 1)``: rows of a chunk's amplitudes followed by their
    conjugates, so G[x, y] = sum_z M[x, z] conj(M[y, z]) is the product of
    the two gathers summed over z. ``incidence[s 2^k + x, i]`` is 1 where
    basis index i lies in row x of block s and 0 elsewhere, so its product
    with the squared moduli |a_i|^2 is every diagonal entry G[x, x].
    """
    index = balanced_index(n)
    blocks, dim, _ = index.shape
    x, y = np.triu_indices(dim, 1)
    pairs = np.stack([index[:, x].transpose(2, 0, 1), (1 << n) + index[:, y].transpose(2, 0, 1)])
    incidence = np.zeros((blocks * dim, 1 << n))
    np.put_along_axis(incidence, index.reshape(blocks * dim, -1), 1.0, axis=1)
    for table in (pairs, incidence):
        table.flags.writeable = False
    return pairs, incidence


class _EntryWork(NamedTuple):
    """Views of one thread's buffers for a chunk of ``count`` states on the
    Gram-entry route at n; see ``_entry_work``."""

    #: (2^(n+1), count): the chunk's amplitudes, then their conjugates
    both: np.ndarray
    amplitudes: np.ndarray
    conjugates: np.ndarray
    #: (2^n, 2 count) floats of the conjugates, squared in place, and their
    #: re and im columns
    squares: np.ndarray
    re: np.ndarray
    im: np.ndarray
    #: (2^n, count) squared moduli, in the place of the amplitudes
    moduli: np.ndarray
    #: (2, Z, S, E, count) gathered rows; the products take the first half
    gathered: np.ndarray
    products: np.ndarray
    factors: np.ndarray
    #: (S, E, count) Gram entries above the diagonal, then (S 2^k, count)
    #: diagonal entries, and the floats of both, squared in place
    entries: np.ndarray
    diagonal: np.ndarray
    floats: np.ndarray
    #: the squared floats of the entries, (S, E, 2 count), and of the
    #: diagonal, (S, 2^k, count)
    entry_squares: np.ndarray
    diagonal_squares: np.ndarray
    #: in the place of the gathered rows: (S, 2 count) sums of the entries'
    #: squares over E, their re and im columns, (S, count) sums of the
    #: diagonal's over 2^k, and (S, count) sum_{x<y} |G[x, y]|^2
    entry_sums: np.ndarray
    entry_re: np.ndarray
    entry_im: np.ndarray
    diagonal_sums: np.ndarray
    off_diagonal: np.ndarray


def _build_entry_work(buffers: tuple[np.ndarray, ...], n: int, count: int) -> _EntryWork:
    """The ``_EntryWork`` views of ``buffers``, one thread's ``_chunk_buffers``."""
    pairs, incidence = _entry_tables(n)
    _, _, subsets, pair_count = pairs.shape
    first, second, third, _ = buffers
    both = _view(first, (2 << n, count))
    squares = both[1 << n :].view(np.float64)
    gathered = _view(second, pairs.shape + (count,))
    entries = _view(third, (subsets, pair_count, count))
    floats = third.view(np.float64)[: 2 * entries.size + len(incidence) * count]
    diagonal = floats[2 * entries.size :].reshape(len(incidence), count)
    sums = second.view(np.float64)
    size = subsets * count
    entry_sums = sums[: 2 * size].reshape(subsets, 2 * count)
    return _EntryWork(
        both=both, amplitudes=both[: 1 << n], conjugates=both[1 << n :],
        squares=squares, re=squares[:, 0::2], im=squares[:, 1::2],
        moduli=_view(first.view(np.float64), (1 << n, count)),
        gathered=gathered, products=gathered[0], factors=gathered[1],
        entries=entries, diagonal=diagonal, floats=floats,
        entry_squares=floats[: 2 * entries.size].reshape(subsets, pair_count, 2 * count),
        diagonal_squares=diagonal.reshape(subsets, -1, count),
        entry_sums=entry_sums, entry_re=entry_sums[:, 0::2], entry_im=entry_sums[:, 1::2],
        diagonal_sums=sums[2 * size : 3 * size].reshape(subsets, count),
        off_diagonal=sums[3 * size : 4 * size].reshape(subsets, count))


def _entry_work(n: int, count: int) -> _EntryWork:
    """This thread's ``_EntryWork`` for chunks of ``count`` states at n.

    Each thread keeps the views of its last eight chunk sizes, enough for
    the full and the last chunk of batches at all three n of the route.
    Building them takes about as long as the arithmetic of a one-state
    chunk: built per chunk, they made a one-state call at n = 4 1.6x
    slower.
    """
    if not hasattr(_scratch, "entry_work"):
        _scratch.entry_work = lru_cache(maxsize=8)(partial(_build_entry_work, _chunk_buffers()))
    return _scratch.entry_work(n, count)


def _entry_purities(flat: np.ndarray, n: int, out: np.ndarray) -> None:
    """Tr rho^2 of the kernel's subsets into ``out`` (states, S), summed from
    Gram entries: the small-block route of ``balanced_purities``.

    Tr rho^2 = sum_x G[x, x]^2 + 2 sum_{x<y} |G[x, y]|^2. The entries above
    the diagonal are products of gathered rows; the diagonal ones, real sums
    of squared moduli, are one product of the incidence table with the
    chunk's 2^n squared moduli per state. Each chunk lays its states out
    innermost, amplitude by state, so every gather copies whole rows and the
    products, sums and squares run over contiguous runs of states.
    """
    pairs, incidence = _entry_tables(n)
    states = _ENTRY_CHUNK_ELEMENTS // max(pairs.size // 2, 1 << n)
    for b0 in range(0, flat.shape[0], states):
        rows = flat[b0 : b0 + states]
        w = _entry_work(n, len(rows))
        np.copyto(w.amplitudes, rows.T)
        np.conjugate(w.amplitudes, out=w.conjugates)
        w.both.take(pairs, axis=0, out=w.gathered, mode="clip")
        np.add.reduce(np.multiply(w.products, w.factors, out=w.products), axis=0, out=w.entries)
        np.square(w.squares, out=w.squares)
        np.matmul(incidence, np.add(w.re, w.im, out=w.moduli), out=w.diagonal)
        np.square(w.floats, out=w.floats)
        np.add.reduce(w.entry_squares, axis=1, out=w.entry_sums)
        np.add.reduce(w.diagonal_squares, axis=1, out=w.diagonal_sums)
        # sum_x G[x, x]^2 + 2 sum_{x<y} |G[x, y]|^2
        off = np.add(w.entry_re, w.entry_im, out=w.off_diagonal)
        np.add(w.diagonal_sums, off, out=w.diagonal_sums)
        np.add(w.diagonal_sums, off, out=out[b0 : b0 + states].T)


def _product_purities(flat: np.ndarray, n: int, out: np.ndarray) -> None:
    """Tr rho^2 of the kernel's subsets into ``out`` (states, S) from gathered
    blocks and batched products rho = M M^H: the route of blocks above
    ``_ENTRY_ROUTE_AMPLITUDES`` up to ``_PRODUCT_ROUTE_AMPLITUDES``, whose
    index tables are all cached."""
    table = balanced_index(n)
    # chunks of subsets x states whose gathered blocks stay cache-sized
    subsets = min(len(table), max(1, _CHUNK_ELEMENTS >> n))
    states = max(1, _CHUNK_ELEMENTS // (subsets << n))
    gather, conj, rho, _ = _chunk_buffers()
    for s0 in range(0, len(table), subsets):
        index = table[s0 : s0 + subsets]
        for b0 in range(0, flat.shape[0], states):
            rows = flat[b0 : b0 + states]
            shape = (len(rows),) + index.shape
            block = np.take(rows, index, axis=1, mode="clip", out=_view(gather, shape))
            out[b0 : b0 + states, s0 : s0 + subsets] = gram_purities(
                block, _view(conj, shape), _view(rho, shape[:-1] + shape[-2:-1]))


class _CoverPlan(NamedTuple):
    """The cover route's Gram sets for one n; see ``_cover_plan``."""

    #: (C, k+1) ascending qubits of each set
    sets: np.ndarray
    #: (C, k+2) kernel column each slot of a set serves, -1 for none
    columns: np.ndarray
    #: (C, 2^(k+1)) and (C, 2^(n-k-1)) offsets of each set and its complement
    kept: np.ndarray
    traced: np.ndarray
    #: (2^(k+2), k+2): row 2x and 2x + 1 (the re and im floats of entry x
    #: of a row of rho_C) hold +1 or -1 in column p as the qubit at
    #: position p of a set is 0 or 1 in x; the last column is all ones
    signs: np.ndarray
    #: per chunk of sets: its first set, the first after it, the positions
    #: p < k+1 whose children it needs, and the flat slots s * (k+2) + p
    #: that serve a kernel column, with those columns
    chunks: tuple[tuple[int, int, tuple[int, ...], np.ndarray, np.ndarray], ...]


def _witt_sets(n: int) -> np.ndarray:
    """66 sets of k+1 qubits that serve every kernel subset exactly once at
    n = 11 and 12, the fewest possible: 462 subsets, 7 slots a set.

    They come from the 132 hexads of the Steiner system S(5, 6, 12), in
    which every 5 of the 12 points lie in exactly one hexad: the images of
    {inf, 1, 3, 4, 5, 9} under x + 1, 3x and -1/x on the projective line
    over GF(11), with inf as point 11. The 66 hexads through point 11, less
    that point, are blocks B on points 0..10, and the sets are their
    complements in 0..n-1, with point q as qubit q + 1. At n = 11 a set
    serves its six 5-subsets and B; at n = 12 its seven 6-subsets, each for
    itself or its complement.
    """
    p = 11
    # x + 1, 3x and -1/x as permutations of the points 0..10 and inf = p
    moves = ([(x + 1) % p for x in range(p)] + [p],
             [3 * x % p for x in range(p)] + [p],
             [p] + [-pow(x, -1, p) % p for x in range(1, p)] + [0])
    hexads: set[frozenset[int]] = set()
    todo = [frozenset({p, 1, 3, 4, 5, 9})]
    while todo:
        hexad = todo.pop()
        if hexad not in hexads:
            hexads.add(hexad)
            todo.extend(frozenset(move[x] for x in hexad) for move in moves)
    blocks = sorted(sorted(hexad - {p}) for hexad in hexads if p in hexad)
    return np.array([[q + 1 for q in range(n) if q not in block] for block in blocks],
                    dtype=np.intp)


def _greedy_cover(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sets of k+1 = floor(n/2) + 1 qubits whose slots serve every kernel
    subset once, and the kernel column each slot serves (-1 for none).

    Slot p < k+1 of a set C is its child C minus its p-th qubit; at even n
    a child without qubit 1 stands for its complement. Slot k+1 is C's
    complement, a kernel subset at odd n only. Greedy: take the first
    candidate that serves the most unserved subsets, give it those, and
    repeat. The candidates are ``_witt_sets(n)`` at n = 11 and 12, which
    the greedy takes whole, and all (k+1)-subsets in ``combinations`` order
    elsewhere.
    """
    k = n // 2
    kernel = np.array(_kernel_subsets(n), dtype=np.intp)
    everyone = (1 << n) - 1
    # kernel column by qubit bitmask, bit q - 1 for qubit q
    column = np.full(1 << n, -1, dtype=np.intp)
    masks = (1 << (kernel - 1)).sum(axis=1)
    column[masks] = np.arange(len(kernel))
    if n % 2 == 0:
        column[everyone ^ masks] = np.arange(len(kernel))
    candidates = (_witt_sets(n) if n in (11, 12) else
                  np.array(list(combinations(range(1, n + 1), k + 1)), dtype=np.intp))
    bits = 1 << (candidates - 1)
    whole = bits.sum(axis=1)
    serves = column[np.concatenate([whole[:, None] ^ bits, (everyone ^ whole)[:, None]], axis=1)]
    # the candidates serving each column; every column has equally many
    flat = serves.ravel()
    order = np.argsort(flat, kind="stable")
    servers = (order[flat[order] >= 0] // serves.shape[1]).reshape(len(kernel), -1)
    gain = (serves >= 0).sum(axis=1)
    free = np.ones(len(kernel), dtype=bool)
    chosen, columns = [], []
    while free.any():
        c = int(np.argmax(gain))
        row = serves[c]
        new = (row >= 0) & free[row]
        free[row[new]] = False
        np.subtract.at(gain, servers[row[new]].ravel(), 1)
        chosen.append(c)
        columns.append(np.where(new, row, -1))
    return candidates[chosen], np.array(columns)


@lru_cache(maxsize=None)
def _cover_plan(n: int) -> _CoverPlan:
    """``_greedy_cover(n)`` with the offsets, signs and chunks of the kernel."""
    sets, columns = _greedy_cover(n)
    k1 = n // 2 + 1
    signs = np.ones((2 << k1, k1 + 1))
    x = np.arange(2 << k1)[:, None] >> 1
    signs[:, :k1] = 1 - 2 * ((x >> np.arange(k1 - 1, -1, -1)) & 1)
    # as many sets as fit their rho_C in a chunk
    per_chunk = max(1, _CHUNK_ELEMENTS >> 2 * k1)
    chunks = []
    for s0 in range(0, len(sets), per_chunk):
        part = columns[s0 : s0 + per_chunk]
        positions = tuple(np.flatnonzero((part[:, :k1] >= 0).any(axis=0)).tolist())
        slots = np.flatnonzero(part.ravel() >= 0)
        chunks.append((s0, s0 + per_chunk, positions, slots, part.ravel()[slots]))
    plan = _CoverPlan(sets, columns, *_offsets(sets, n), signs, tuple(chunks))
    for array in (sets, columns, signs, *(a for chunk in chunks for a in chunk[3:])):
        array.flags.writeable = False
    return plan


def _cover_purities(flat: np.ndarray, n: int, out: np.ndarray) -> None:
    """Tr rho^2 of the kernel's subsets into ``out`` (states, S) from one
    Gram rho_C = M_C M_C^H per set C of ``_cover_plan``: the route of blocks
    above ``_PRODUCT_ROUTE_AMPLITUDES``.

    For the qubit at position p of C, let A and B be the diagonal blocks of
    rho_C where it is 0 and 1. The child C minus that qubit has
    rho = A + B, so Tr rho^2 = (||rho_C||^2 + s_p^T W s_p) / 2 + 2 <A, B>,
    with W = |rho_C|^2 entrywise, s_p the signs of the plan and <A, B> the
    real inner product. One product W S gives the first two terms of every
    child; <A, B> is one sum over strided views per position. A position no
    set of a chunk needs is skipped, which saves 10% and 5% of the time at
    n = 13 and 14, where the greedy sets leave slots unused.
    """
    plan = _cover_plan(n)
    k1 = n // 2 + 1
    dim = 1 << k1
    gather, conj, rho, scratch_index = _chunk_buffers()
    for s0, s1, positions, slots, columns in plan.chunks:
        kept, traced = plan.kept[s0:s1], plan.traced[s0:s1]
        index = _expand(kept, traced, _view(scratch_index, (len(kept), dim, traced.shape[1])))
        # one state's rho_C fill a chunk (2^16 entries at n = 14): a state at a time
        for row, purities in zip(flat, out):
            m = np.take(row, index, mode="clip", out=_view(gather, index.shape))
            r = gram(m, _view(conj, index.shape), _view(rho, index.shape[:-1] + (dim,)))
            # each rho_C with re, im interleaved: (blocks, dim, 2 dim)
            parts = r.view(np.float64)
            squares = np.square(parts, out=_view(conj, r.shape).view(np.float64))
            # s_p^T W s_p per position, and ||rho_C||^2 last
            sws = np.einsum("bxj,xj->bj", squares @ plan.signs, plan.signs[::2])
            cross = np.zeros_like(sws)
            for p in positions:
                if p < k1 - 1:
                    v = parts.reshape(-1, 1 << p, 2, dim >> p + 1, 1 << p, 2, dim >> p)
                    cross[:, p] = np.einsum("birjs,birjs->b", v[:, :, 0, :, :, 0],
                                            v[:, :, 1, :, :, 1])
                else:
                    # the last qubit pairs entries one row and one column
                    # apart, where the float views would run two floats at a
                    # time; as B is Hermitian, <A, B> = Re sum A[x, y] B[y, x]
                    cross[:, p] = np.einsum("bxy,byx->b", r[:, 0::2, 0::2],
                                            r[:, 1::2, 1::2]).real
            values = 0.5 * (sws + sws[:, k1:]) + 2 * cross
            purities[columns] = values.ravel()[slots]


def balanced_purities(amps: np.ndarray, n: int) -> np.ndarray:
    """Tr rho_A^2 of every balanced subset, in ``balanced_subsets`` order.

    ``amps`` is (..., 2**n), and any other width raises DimensionError;
    the result is (..., C(n, floor(n/2))). Blocks of at most
    ``_ENTRY_ROUTE_AMPLITUDES`` amplitudes (n <= 4) are summed from their
    Gram entries (``_entry_purities``), blocks up to
    ``_PRODUCT_ROUTE_AMPLITUDES`` (n <= 10) from batched products
    rho = M M^H (``_product_purities``), and larger ones from one Gram per
    set of the cover (``_cover_purities``); the module docstring gives the
    crossovers. Each way, beyond the result (and a complex128 copy of
    input of another dtype), the memory it takes is a chunk-sized constant
    and the cached tables of n.
    """
    half = len(_kernel_subsets(n))
    amps = _states_of(amps, n)
    flat = np.asarray(amps, dtype=np.complex128).reshape(-1, 1 << n)
    out = np.empty((flat.shape[0], comb(n, n // 2)))
    if 1 << n <= _ENTRY_ROUTE_AMPLITUDES:
        route = _entry_purities
    elif 1 << n <= _PRODUCT_ROUTE_AMPLITUDES:
        route = _product_purities
    else:
        route = _cover_purities
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
