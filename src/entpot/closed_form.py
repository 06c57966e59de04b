"""Explicit four-qubit purity formulas and the K1 + K2 criterion.

Everything here works directly on the 16 amplitudes, so this module stays an
independent route from the partial-trace oracle in ``reduction``.

For a balanced pair, bucket the amplitudes by kept-bit pattern x and
traced-bit pattern z into a 4x4 block g. Its Gram entries
G[x, y] = sum_z g[x, z] conj(g[y, z]) are the four squared group norms
(x = y) and the six cross-overlaps (x < y), and the pair purity is
sum_x G[x, x]^2 + 2 sum_{x<y} |G[x, y]|^2. One kernel gathers, for all six
pairs at once, the block rows each of these ten entries needs and forms
them in chunks of states, so its temporaries stay cache-sized whatever the
batch. The pair purities weight the entries as above; K2 is twice the
summed squared cross-overlaps of all six pairs, 36 terms.

Convention: K is reported such that K = 2 * (3 * pi_ME - 1) on normalized
states. Under this convention the known example values hold (K = 1 for the
uniform six- and eight-term states, 5/9 for the uniform Brown-support
state, 0 exactly on maximally entangled states), and the maximal
entanglement criterion is K1 + K2 = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import ArityError
from .qstate import PureState

#: The six balanced pair bipartitions of four qubits, ascending order.
PAIRS: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

#: Unordered pairs of kept-bit patterns, lexicographic.
_PATTERN_PAIRS = tuple((x, y) for x in range(4) for y in range(x + 1, 4))


def _kept_bit(i: int, q: int) -> int:
    return (i >> (4 - q)) & 1


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
        x = (_kept_bit(i, q1) << 1) | _kept_bit(i, q2)
        z = (_kept_bit(i, t1) << 1) | _kept_bit(i, t2)
        table[x, z] = i
    table.flags.writeable = False
    return table


def _require_four_qubits(state: PureState) -> np.ndarray:
    if state.n_qubits != 4:
        raise ArityError(f"closed forms are four-qubit only, got n={state.n_qubits}")
    return state.amplitudes


#: Gram entries a pair's closed forms use, as block row pairs (x, y): the
#: diagonal, whose entries are the squared group norms, then the cross-overlaps.
_ENTRIES = tuple((x, x) for x in range(4)) + _PATTERN_PAIRS
#: Weight of |G[x, y]|^2 in a pair purity: once on the diagonal, twice above
#: it for the mirrored entry below, since G is Hermitian.
_PURITY_WEIGHTS = np.array([1.0] * 4 + [2.0] * 6)

#: Gather tables (pair, entry, z) of the block rows x and y of every entry:
#: ``amps[..., _ROWS_X]`` equals the stacked blocks ``amps[..., groups]``
#: indexed at rows x, gathered in one step without the blocks in between.
_ROWS_X, _ROWS_Y = (
    np.stack([_pair_groups(pair)[list(rows)] for pair in PAIRS])
    for rows in zip(*_ENTRIES)
)
#: The same tables for the cross-overlaps alone, which are all K2 needs.
_CROSS_X, _CROSS_Y = (np.ascontiguousarray(t[:, 4:]) for t in (_ROWS_X, _ROWS_Y))

#: States per chunk of the Gram kernel. A K2 chunk's two row gathers take
#: 2.3 KiB per state each, 288 KiB at 128 states, and the product is formed
#: in the first of them, so a chunk stays inside the L2 cache. Of 64..512,
#: 128 was fastest for 10^3 and for 2x10^5 states: 1.2 ms and 0.24 s, against
#: 1.4 ms and 0.28 s at 512 (2-vCPU Xeon, 2 MiB L2 per core, medians). From
#: 192 up, a fresh process took about 900 page faults per 10^3-state call,
#: where malloc mapped each chunk's temporaries anew; 128 took none.
_CHUNK_STATES = 128


def _gram(amps: np.ndarray, rows_x: np.ndarray, rows_y: np.ndarray) -> np.ndarray:
    """Gram entries sum_z g[x, z] conj(g[y, z]) of the six pair blocks g, for
    the row tables ``rows_x`` and ``rows_y``: shape (..., 6, entries)."""
    left, right = amps[..., rows_x], amps[..., rows_y]
    return np.multiply(left, np.conjugate(right, out=right), out=left).sum(axis=-1)


def _k2_chunk(amps: np.ndarray) -> np.ndarray:
    cross = _gram(amps, _CROSS_X, _CROSS_Y)
    return 2.0 * np.einsum("...pk,...pk->...", cross, np.conj(cross)).real


def _purities_chunk(amps: np.ndarray) -> np.ndarray:
    gram = _gram(amps, _ROWS_X, _ROWS_Y)
    return (gram.real**2 + gram.imag**2) @ _PURITY_WEIGHTS


def _over_chunks(kernel, amps: np.ndarray) -> np.ndarray:
    """``kernel`` over chunks of at most ``_CHUNK_STATES`` states of ``amps`` (..., 16)."""
    amps = np.asarray(amps)
    lead = amps.shape[:-1]
    count = prod(lead)
    if count <= _CHUNK_STATES:
        return kernel(amps)
    flat = amps.reshape(count, 16)
    parts = [kernel(flat[start:start + _CHUNK_STATES])
             for start in range(0, count, _CHUNK_STATES)]
    return np.concatenate(parts).reshape(lead + parts[0].shape[1:])


def _pair_purities(amps: np.ndarray) -> np.ndarray:
    """The six balanced purities in ``PAIRS`` order, batched: (..., 16) -> (..., 6)."""
    return _over_chunks(_purities_chunk, amps)


def _pair_purity(amps: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """One balanced purity: four squared group norms plus six doubled cross-overlaps."""
    return _pair_purities(amps)[..., PAIRS.index(tuple(pair))]


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
    return PairPurities(*_pair_purities(_require_four_qubits(state)).tolist())


# ---------------------------------------------------------------------------
# K2: all 36 doubled squared cross-overlaps, six per balanced bipartition
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _k2_terms() -> tuple[np.ndarray, np.ndarray]:
    """Left/right index quadruples of the 36 cross-overlap terms, generated
    from the same bipartition machinery as the pair purities."""
    left, right = [], []
    for pair in PAIRS:
        g = _pair_groups(pair)
        for x, y in _PATTERN_PAIRS:
            left.append(g[x])
            right.append(g[y])
    return np.array(left), np.array(right)


def k2_of_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Batched K2; ``amps`` has shape (..., 16)."""
    return _over_chunks(_k2_chunk, amps)


def k2_value(state: PureState) -> float:
    """Cross part of the criterion: sum of 36 doubled squared overlaps, >= 0."""
    return float(k2_of_amplitudes(_require_four_qubits(state)))


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


def _k1_chunk(amps: np.ndarray) -> np.ndarray:
    p = amps.real**2 + amps.imag**2
    return np.einsum("...i,...i->...", p @ _k1_weight_matrix(), p)


def k1_of_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Batched K1; ``amps`` has shape (..., 16)."""
    return _over_chunks(_k1_chunk, amps)


def k1_value(state: PureState) -> float:
    """Diagonal part of the criterion: quartic polynomial in the |a_i|^2."""
    return float(k1_of_amplitudes(_require_four_qubits(state)))


def k_total(state: PureState) -> KDecomposition:
    """K1, K2 and their sum, computed purely from the closed forms."""
    amps = _require_four_qubits(state)
    return KDecomposition(
        k1=float(k1_of_amplitudes(amps)), k2=float(k2_of_amplitudes(amps))
    )


def k_total_of_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Batched K1 + K2 for sweep-style workloads."""
    return k1_of_amplitudes(amps) + k2_of_amplitudes(amps)
