"""Explicit four-qubit purity formulas and the K1 + K2 criterion.

Everything here works directly on the 16 amplitudes, so this module stays an
independent route from the partial-trace oracle in ``reduction``.

For a balanced pair, bucket the amplitudes by kept-bit pattern x and
traced-bit pattern z into a 4x4 block g. Its Gram entries
G[x, y] = sum_z g[x, z] conj(g[y, z]) are the four squared group norms
(x = y) and the six cross-overlaps (x < y), and the pair purity is
sum_x G[x, x]^2 + 2 sum_{x<y} |G[x, y]|^2. K2 is twice the summed squared
cross-overlaps of all six pairs, 36 terms.

A cross-overlap sums four products a_i conj(a_j) whose indices differ only
in the pair's kept bits, and only 80 such products exist:
  * 32 at Hamming distance 1, where one qubit r flips. Each feeds the three
    pairs that hold r: pair {r, s} sums the four that share s's bit.
  * 48 at distance 2, where both bits of one pair flip. Each feeds one entry.
The kernel takes a chunk of states, copies it amplitude-major (16, states)
so that every step runs along contiguous runs of states, gathers the 80
left amplitudes and the 80 conjugated right ones with one ``np.take`` each
and multiplies them in place. The 36 entries are then reshape sums with no
further gather: the distance-1 block viewed as (4, 2, 2, 2, states) and
summed over two of its three bit axes, once for each, and the distance-2
block as (12, 4, states) over its second axis. The pair purities add the
squared group norms, sums of |a_i|^2, to their six doubled entries. A
single state skips the chunk: its 80 products times a fixed 0/1 table give
the entries in fewer numpy calls than the sums take.

States per chunk, against K1 and K2 time per call on 10^3 and 2x10^5 Haar
states (2-vCPU Xeon, 2 MiB L2 per core, one BLAS thread; medians of 11
interleaved rounds in one process):

    ======  ===========  ===========  ===========  ===========
    states  K1, 10^3     K1, 2x10^5   K2, 10^3     K2, 2x10^5
    ======  ===========  ===========  ===========  ===========
    128     0.120 ms     33.8 ms      0.62 ms      123 ms
    256     0.085 ms     19.2 ms      0.41 ms      87 ms
    384     0.081 ms     16.6 ms      0.39 ms      81 ms
    512     0.060 ms     15.8 ms      0.44 ms      88 ms
    ======  ===========  ===========  ===========  ===========

Convention: K is reported such that K = 2 * (3 * pi_ME - 1) on normalized
states. Under this convention the known example values hold (K = 1 for the
uniform six- and eight-term states, 5/9 for the uniform Brown-support
state, 0 exactly on maximally entangled states), and the maximal
entanglement criterion is K1 + K2 = 0.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import ArityError
from .qstate import PureState, states_of_width

#: The six balanced pair bipartitions of four qubits, ascending order.
PAIRS: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _bit(q: int) -> int:
    """The index bit of qubit q; qubit 1 is the most significant of four."""
    return 1 << (4 - q)


@lru_cache(maxsize=None)
def _pair_groups(pair: tuple[int, int]) -> np.ndarray:
    """Bucket the 16 basis indices by kept-bit pattern.

    Row x lists the four indices whose kept qubits spell x, ordered by the
    traced-bit pattern so that cross-overlaps pair amplitudes with equal
    traced bits.
    """
    q1, q2 = pair
    t1, t2 = (q for q in (1, 2, 3, 4) if q not in pair)
    table = np.empty((4, 4), dtype=np.intp)
    for i in range(16):
        x = (bool(i & _bit(q1)) << 1) | bool(i & _bit(q2))
        z = (bool(i & _bit(t1)) << 1) | bool(i & _bit(t2))
        table[x, z] = i
    table.flags.writeable = False
    return table


def _width(amps: np.ndarray) -> str:
    """The qubit count a last axis of 2^m amplitudes spells, else its width."""
    width = amps.shape[-1]
    return (f"n={width.bit_length() - 1}" if width & (width - 1) == 0 and width
            else f"{width} amplitudes per state")


def _four_qubit_amplitudes(amps: np.ndarray) -> np.ndarray:
    """``amps`` as an array of states along its last axis, which must hold 16
    amplitudes; any other width raises ArityError."""
    return states_of_width(amps, 4, ArityError, "closed forms are four-qubit only", _width)


def _others(r: int) -> tuple[int, ...]:
    return tuple(q for q in (1, 2, 3, 4) if q != r)


def _product_tables() -> tuple[np.ndarray, np.ndarray]:
    """Left and right indices of the 80 products a_i conj(a_j) the cross
    entries sum, each pair (i, j) ordered as in G[x, y] with x < y.

    The first 32, viewed as (4, 2, 2, 2), flip qubit r; the bits of the other
    three qubits, ascending, index the rest. The last 48, viewed as
    (6, 2, 4), flip both kept bits of a pair in ``PAIRS``, from x = 00 to 11
    and from 01 to 10, over the four traced-bit patterns z.
    """
    left, right = [], []
    for r in (1, 2, 3, 4):
        for bits in range(8):
            i = sum(_bit(q) for k, q in enumerate(_others(r)) if bits >> (2 - k) & 1)
            left.append(i)
            right.append(i | _bit(r))
    for pair in PAIRS:
        groups = _pair_groups(pair)
        for x in (0, 1):
            left.extend(groups[x])
            right.extend(groups[x ^ 3])
    tables = np.array(left, dtype=np.intp), np.array(right, dtype=np.intp)
    for table in tables:
        table.flags.writeable = False
    return tables


_LEFT, _RIGHT = _product_tables()

#: Position in ``PAIRS`` of each of the 36 entries ``_sum_entries`` writes.
#: Entry (v, r, b) of the first 24 fixes the bit b of qubit s, the v-th of
#: r's other qubits, so it belongs to the pair {r, s}; the last 12 follow
#: the product table's pairs.
_ENTRY_PAIRS = np.array(
    [PAIRS.index(tuple(sorted((r, _others(r)[v])))) for v in range(3)
     for r in (1, 2, 3, 4) for _ in range(2)]
    + [p for p in range(6) for _ in range(2)])
#: Weight of each entry's |G[x, y]|^2 in the six pair purities: twice, for
#: the mirrored entry below the diagonal of the Hermitian G.
_CROSS_WEIGHTS = np.where(np.arange(6)[:, None] == _ENTRY_PAIRS, 2.0, 0.0)
#: K2 weights every entry's |G[x, y]|^2 twice.
_K2_WEIGHTS = _CROSS_WEIGHTS.sum(axis=0)
#: The groups of every pair, (6, 4, 4): the diagonal entry G[x, x] of
#: ``PAIRS[p]`` sums |a_i|^2 over row x of block p.
_GROUPS = np.stack([_pair_groups(pair) for pair in PAIRS])


def _sum_entries(products: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The 36 cross entries (36, states) from the 80 products (80, states),
    written into ``entries`` by reshape sums.

    A distance-1 entry of pair {r, s} sums the four products of r's flip
    that share s's bit: the (4, 2, 2, 2) block summed over the bits of
    r's two other qubits. A distance-2 entry sums four consecutive products.
    """
    states = products.shape[1]
    flips = products[:32].reshape(4, 2, 2, 2, states)
    kept = entries[:24].reshape(3, 4, 2, states)
    for v, axes in enumerate(((2, 3), (1, 3), (1, 2))):
        np.add.reduce(flips, axis=axes, out=kept[v])
    np.add.reduce(products[32:].reshape(12, 4, states), axis=1, out=entries[24:])
    return entries


@lru_cache(maxsize=None)
def _entry_products() -> np.ndarray:
    """(80, 36): a vector of the 80 products times this is the 36 entries,
    as ``_sum_entries`` forms them."""
    table = _sum_entries(np.eye(80), np.empty((36, 80))).T.astype(np.complex128)
    table.flags.writeable = False
    return table


#: States per chunk of the product kernel and of K1; the module docstring
#: gives the measurements. The three per-thread buffers take 176 complex
#: numbers per state, 1.03 MiB at 384 states, half of a 2 MiB L2 cache.
_CHUNK_STATES = 384

#: Per-thread work buffers, see ``_chunk_buffers``.
_scratch = threading.local()


def _chunk_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's complex work buffers for one chunk: its amplitudes laid
    out amplitude-major, the left products, and the conjugated right
    factors, whose place the entries take once they are multiplied in.

    Made once per thread and reused, so a batch of any size allocates
    nothing per chunk beyond its few-KiB sums.
    """
    if not hasattr(_scratch, "buffers"):
        _scratch.buffers = tuple(np.empty(rows * _CHUNK_STATES, dtype=np.complex128)
                                 for rows in (16, 80, 80))
    return _scratch.buffers


def _view(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return buffer[: prod(shape)].reshape(shape)


def _squared_entries(rows: np.ndarray) -> np.ndarray:
    """Squared real and imaginary parts of the 36 cross entries of a chunk
    ``rows`` (states, 16), interleaved: (36, 2 states), in this thread's
    buffers."""
    columns, left, right = _chunk_buffers()
    shape = (80, len(rows))
    columns = _view(columns, (16, len(rows)))
    np.copyto(columns, rows.T)
    products = np.take(columns, _LEFT, axis=0, mode="clip", out=_view(left, shape))
    factors = np.take(np.conjugate(columns, out=columns), _RIGHT, axis=0, mode="clip",
                      out=_view(right, shape))
    np.multiply(products, factors, out=products)
    # a complex array viewed as its real dtype lists re, im interleaved
    parts = _sum_entries(products, _view(right, (36, len(rows)))).view(np.float64)
    return np.square(parts, out=parts)


def _over_chunks(kernel, amps: np.ndarray, shape: tuple[int, ...] = ()) -> np.ndarray:
    """``kernel(rows, out)`` over chunks of at most ``_CHUNK_STATES`` states
    of ``amps`` (..., 16), writing a new (..., *shape) result."""
    flat = amps.reshape(-1, 16)
    out = np.empty((len(flat),) + shape)
    for start in range(0, len(flat), _CHUNK_STATES):
        kernel(flat[start : start + _CHUNK_STATES], out[start : start + _CHUNK_STATES])
    return out.reshape(amps.shape[:-1] + shape)


def _purities_chunk(rows: np.ndarray, out: np.ndarray) -> None:
    cross = _CROSS_WEIGHTS @ _squared_entries(rows)
    np.add(cross[:, 0::2], cross[:, 1::2], out=out.T)
    norms = (rows.real**2 + rows.imag**2)[:, _GROUPS].sum(axis=-1)
    out += np.square(norms).sum(axis=-1)


def _pair_purities(amps: np.ndarray) -> np.ndarray:
    """The six balanced purities in ``PAIRS`` order, batched: (..., 16) -> (..., 6).
    Each is its four squared group norms plus its six doubled cross entries."""
    return _over_chunks(_purities_chunk, _four_qubit_amplitudes(amps), (6,))


@dataclass(frozen=True)
class PairPurities:
    """The six balanced purities of a four-qubit state."""

    pi12: float
    pi13: float
    pi14: float
    pi23: float
    pi24: float
    pi34: float

    def as_dict(self) -> dict[tuple[int, int], float]:
        return {
            (1, 2): self.pi12,
            (1, 3): self.pi13,
            (1, 4): self.pi14,
            (2, 3): self.pi23,
            (2, 4): self.pi24,
            (3, 4): self.pi34,
        }


@dataclass(frozen=True)
class KDecomposition:
    """Split of the criterion quantity into its diagonal and cross parts.

    ``k2`` is a sum of squared magnitudes, so it is nonnegative by
    construction; ``k_total`` is nonnegative on every normalized state.
    """

    k1: float
    k2: float

    @property
    def k_total(self) -> float:
        return self.k1 + self.k2


def pair_purities(state: PureState) -> PairPurities:
    """All six balanced purities from the closed forms (no partial trace)."""
    return PairPurities(*_pair_purities(state.amplitudes).tolist())


# ---------------------------------------------------------------------------
# K2: all 36 doubled squared cross-overlaps, six per balanced bipartition
# ---------------------------------------------------------------------------


def _k2_chunk(rows: np.ndarray, out: np.ndarray) -> None:
    sums = _K2_WEIGHTS @ _squared_entries(rows)
    np.add(sums[0::2], sums[1::2], out=out)


def k2_of_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Batched K2; ``amps`` has shape (..., 16)."""
    amps = _four_qubit_amplitudes(amps)
    if amps.ndim == 1:
        # one state: a product with the entry table costs fewer calls than the chunk's sums
        entries = (amps[_LEFT] * np.conjugate(amps[_RIGHT])) @ _entry_products()
        return 2.0 * np.vdot(entries, entries).real
    return _over_chunks(_k2_chunk, amps)


def k2_value(state: PureState) -> float:
    """Cross part of the criterion: sum of 36 doubled squared overlaps, >= 0."""
    return float(k2_of_amplitudes(state.amplitudes))


# ---------------------------------------------------------------------------
# K1: quartic diagonal polynomial from the Hamming-distance weight rule
# ---------------------------------------------------------------------------

#: Weight of |a_i|^2 |a_j|^2 by the Hamming distance d between the 4-bit
#: indices i and j. A distinct pair shares a diagonal block in C(4-d, 2) of
#: the six balanced bipartitions, so the diagonal part of the summed
#: purities carries 2*C(4-d, 2) per unordered pair and 6 per |a_i|^4;
#: subtracting twice the squared normalization leaves 2*(C(4-d, 2) - 2)
#: per pair and 4 per quartic term.
PAIR_WEIGHT_BY_DISTANCE = {1: 2.0, 2: -2.0, 3: -4.0, 4: -4.0}
QUARTIC_WEIGHT = 4.0


@lru_cache(maxsize=None)
def _k1_weight_matrix() -> np.ndarray:
    """Symmetric W with K1 = p W p for p_i = |a_i|^2: the quartic weight on
    the diagonal, half of each pair weight on either side of it."""
    w = np.empty((16, 16))
    for i in range(16):
        for j in range(16):
            w[i, j] = (QUARTIC_WEIGHT if i == j
                       else 0.5 * PAIR_WEIGHT_BY_DISTANCE[(i ^ j).bit_count()])
    w.flags.writeable = False
    return w


def _k1_chunk(rows: np.ndarray, out: np.ndarray) -> None:
    p = rows.real**2 + rows.imag**2
    np.einsum("si,si->s", p @ _k1_weight_matrix(), p, out=out)


def k1_of_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Batched K1; ``amps`` has shape (..., 16)."""
    amps = _four_qubit_amplitudes(amps)
    if amps.ndim == 1:
        # one state: two vector products, without the chunk loop's calls
        p = amps.real**2 + amps.imag**2
        return p @ _k1_weight_matrix() @ p
    return _over_chunks(_k1_chunk, amps)


def k1_value(state: PureState) -> float:
    """Diagonal part of the criterion: quartic polynomial in the |a_i|^2."""
    return float(k1_of_amplitudes(state.amplitudes))


def k_total(state: PureState) -> KDecomposition:
    """K1, K2 and their sum, computed purely from the closed forms."""
    return KDecomposition(k1=k1_value(state), k2=k2_value(state))


def k_total_of_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Batched K1 + K2 for sweep-style workloads."""
    return k1_of_amplitudes(amps) + k2_of_amplitudes(amps)
