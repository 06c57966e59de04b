"""Pure n-qubit states: construction, validation, and a catalog of named four-qubit states.

Index convention used everywhere in this package: a basis index i, written
with n bits, has qubit 1 as the most significant bit and qubit n as the
least significant bit. For n = 4 the amplitude a1 multiplies |0001> and
a8 multiplies |1000>.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Literal

import numpy as np

from .errors import (
    CatalogMissError,
    DegenerateStateError,
    DimensionError,
    FormatError,
    NonUnitaryError,
    NormalizationError,
    SubsetError,
)

#: Norm slack accepted by the strict policy; wide enough for states typed in
#: as short decimal literals (e.g. 0.40824829 for 1/sqrt(6)).
NORM_TOL = 1e-9
UNITARY_TOL = 1e-12
#: Largest qubit count any input path accepts. At n = 14 one analysis
#: already takes about 1.2 s, and the minimizer's stacked gather index
#: about 225 MB.
MAX_QUBITS = 14

#: Primitive cube root of unity. Built from pi so that downstream phase
#: cancellations hold to ~1e-15 instead of the ~1e-8 a decimal literal gives.
OMEGA = np.exp(2j * np.pi / 3)

NormalizePolicy = Literal["strict", "renormalize"]


def _check_qubit_count(n_qubits: int) -> None:
    """Reject a qubit count outside 1..MAX_QUBITS before anything is allocated."""
    if n_qubits < 1:
        raise DimensionError(f"n_qubits must be >= 1, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise DimensionError(f"{n_qubits} qubits exceed the limit of {MAX_QUBITS}")


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector over ``n_qubits`` qubits.

    Immutable after construction: the amplitude array is copied and marked
    read-only, so instances are safe to share between threads.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size != 1 << self.n_qubits:
            raise DimensionError(
                f"expected {1 << self.n_qubits} amplitudes for n={self.n_qubits}, "
                f"got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise NormalizationError("amplitudes must be finite numbers")
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > NORM_TOL:
            raise NormalizationError(f"state norm {nrm!r} is not 1 within {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def make_state(
    n_qubits: int,
    amplitudes: Iterable[complex],
    normalize_policy: NormalizePolicy = "strict",
) -> PureState:
    """Build a PureState from raw amplitudes.

    Under ``renormalize`` the vector is scaled by 1/||a||; under ``strict``
    the norm must already be within ``NORM_TOL`` of 1.
    """
    if normalize_policy not in ("strict", "renormalize"):
        raise ValueError(f"unknown normalize_policy {normalize_policy!r}")
    _check_qubit_count(n_qubits)
    # an ndarray converts in one step; list() would box every amplitude
    if not isinstance(amplitudes, np.ndarray):
        amplitudes = list(amplitudes)
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.size != 1 << n_qubits:
        raise DimensionError(
            f"expected {1 << n_qubits} amplitudes for n={n_qubits}, got {amps.size}"
        )
    if not np.all(np.isfinite(amps)):
        raise NormalizationError("amplitudes must be finite numbers")
    # dividing by the largest modulus first keeps the squares in the norm
    # from underflowing or overflowing
    scale = float(np.max(np.abs(amps)))
    if scale == 0.0:
        raise DegenerateStateError("all-zero amplitude vector")
    if normalize_policy == "renormalize":
        # divide the real and imaginary parts: a complex array divided by a
        # real scalar is multiplied by 1/scale, which overflows for a
        # subnormal scale, while no part exceeds scale in modulus
        amps = (np.ascontiguousarray(amps).view(np.float64) / scale).view(np.complex128)
        amps /= np.linalg.norm(amps)
    return PureState(n_qubits, amps)


def random_state(n_qubits: int, rng: np.random.Generator) -> PureState:
    """Rotation-invariant random pure state: normal re/im parts, normalized."""
    dim = 1 << n_qubits
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(n_qubits, z / np.linalg.norm(z))


def apply_local_unitary(state: PureState, qubit: int, u: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to one qubit (1-based, qubit 1 = most significant bit)."""
    n = state.n_qubits
    if not 1 <= qubit <= n:
        raise SubsetError(f"qubit {qubit} out of range 1..{n}")
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise NonUnitaryError(f"expected a 2x2 matrix, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > UNITARY_TOL:
        raise NonUnitaryError("matrix is not unitary within 1e-12")
    a = state.amplitudes.reshape(1 << (qubit - 1), 2, -1)
    out = np.einsum("ab,ibj->iaj", u, a).reshape(-1)
    return PureState(n, out)


# ---------------------------------------------------------------------------
# Catalog of named four-qubit states
# ---------------------------------------------------------------------------

_S6 = 1.0 / np.sqrt(6.0)       # 1/sqrt(6)
_S8 = 1.0 / (2.0 * np.sqrt(2.0))  # 1/(2 sqrt(2))
_E8 = np.exp(1j * np.pi / 4)   # primitive eighth root of unity


@dataclass(frozen=True)
class CatalogEntry:
    """A named four-qubit state with a deterministic amplitude builder."""

    name: str
    variant: str
    builder: Callable[[], np.ndarray]


def _dense(assignment: dict[int, complex]) -> np.ndarray:
    a = np.zeros(16, dtype=np.complex128)
    for i, v in assignment.items():
        a[i] = v
    return a


_ASSIGNMENTS: dict[tuple[str, str], dict[int, complex]] = {
    # Six equal amplitudes on the weight-2 support {3,5,6,9,10,12}.
    ("eq7", "uniform"): {i: _S6 for i in (3, 5, 6, 9, 10, 12)},
    # Higuchi-Sudbery state: cube-root-of-unity phases on the same support.
    ("hs", "omega"): {
        3: _S6, 12: _S6,
        5: _S6 * OMEGA, 10: _S6 * OMEGA,
        6: _S6 * OMEGA**2, 9: _S6 * OMEGA**2,
    },
    # Eight equal amplitudes on {0,3,5,6,9,10,12,15}.
    ("eq9", "uniform"): {i: _S8 for i in (0, 3, 5, 6, 9, 10, 12, 15)},
    # Yeo-Chua support with an eighth-root-of-unity phase ladder.
    ("yc", "phases"): {
        0: _S8, 15: _S8,
        3: _S8 * _E8, 12: _S8 * _E8,
        5: _S8 * _E8**2, 10: _S8 * _E8**2,
        6: _S8 * _E8**3, 9: _S8 * _E8**3,
    },
    # Yeo-Chua genuine four-qubit entangled state (sign pattern).
    ("yc", "signs"): {
        0: _S8, 6: _S8, 9: _S8, 10: _S8, 12: _S8, 15: _S8,
        3: -_S8, 5: -_S8,
    },
    # Four equal amplitudes on {0,5,10,15}.
    ("eq11", "uniform"): {i: 0.5 for i in (0, 5, 10, 15)},
    # Four-qubit cluster state: one negative amplitude.
    ("cluster", "sign"): {0: 0.5, 5: 0.5, 10: 0.5, 15: -0.5},
    # Cluster-class variant with imaginary middle amplitudes.
    ("cluster", "phase"): {0: 0.5, 15: 0.5, 5: 0.5j, 10: 0.5j},
    # Six equal amplitudes on {0,3,6,11,13,14}.
    ("eq13", "uniform"): {i: _S6 for i in (0, 3, 6, 11, 13, 14)},
    # Brown-type state, imaginary variant.
    ("brown", "phases"): {0: 0.5, 13: 0.5, 3: _S8, 14: _S8, 6: 1j * _S8, 11: 1j * _S8},
    # Brown-type state, sign variant.
    ("brown", "signs"): {0: 0.5, 13: 0.5, 3: _S8, 6: _S8, 11: _S8, 14: -_S8},
}

CATALOG: tuple[CatalogEntry, ...] = tuple(
    CatalogEntry(name, variant, lambda a=assignment: _dense(a))
    for (name, variant), assignment in _ASSIGNMENTS.items()
)


def catalog_names() -> list[str]:
    """All catalog identifiers as ``name/variant`` strings, in catalog order."""
    return [f"{e.name}/{e.variant}" for e in CATALOG]


def catalog_state(name: str, variant: str) -> PureState:
    """Look up a named four-qubit state from the catalog."""
    for entry in CATALOG:
        if entry.name == name and entry.variant == variant:
            return PureState(4, entry.builder())
    raise CatalogMissError(f"no catalog state {name}/{variant}")


# ---------------------------------------------------------------------------
# JSON state files: {"n": int, "amplitudes": [[re, im], ...]}
# ---------------------------------------------------------------------------


def state_to_json_dict(state: PureState) -> dict:
    return {
        "n": state.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def state_from_json_dict(
    data: dict, normalize_policy: NormalizePolicy = "strict"
) -> PureState:
    if not isinstance(data, dict) or "n" not in data or "amplitudes" not in data:
        raise FormatError("state JSON must be an object with 'n' and 'amplitudes'")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise FormatError(f"'n' must be an integer, got {type(n).__name__}")
    _check_qubit_count(n)
    pairs = data["amplitudes"]
    try:
        # complex(re, im) takes no strings, so "10" is not read as the pair (1, 0)
        amps = [complex(re, im) for re, im in pairs]
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: int beyond float
        raise FormatError(
            "'amplitudes' must be a list of [re, im] pairs of numbers in the float range"
        ) from exc
    # complex() also takes true and false as 1 and 0; one C-level scan finds them
    if bool in set(map(type, chain.from_iterable(pairs))):
        raise FormatError("'amplitudes' must hold numbers, not true or false")
    return make_state(n, amps, normalize_policy)


def load_state_json(path, normalize_policy: NormalizePolicy = "strict") -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON in state file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"state file is not valid UTF-8: {exc}") from exc
    return state_from_json_dict(data, normalize_policy)
