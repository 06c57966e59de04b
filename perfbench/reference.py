"""Independent reference values the benchmark checks the program against.

Nothing here imports entpot: the purity kernel below reaches the reduced
state by reshaping the amplitudes to one axis per qubit and moving the kept
qubits to the front, a different route from the bit-mask index tables the
program uses.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

#: Criterion value K = 2(3 pi_ME - 1) of each catalog state, as the catalog
#: documents it: 1 for the uniform six-, eight- and four-term states, 5/9 for
#: the uniform Brown-support state, 0 for the maximally entangled ones.
CATALOG_K: dict[str, float] = {
    "eq7/uniform": 1.0,
    "hs/omega": 0.0,
    "eq9/uniform": 1.0,
    "yc/phases": 0.0,
    "yc/signs": 0.0,
    "eq11/uniform": 1.0,
    "cluster/sign": 0.0,
    "cluster/phase": 0.0,
    "eq13/uniform": 5.0 / 9.0,
    "brown/phases": 0.0,
    "brown/signs": 0.0,
}

#: Reference minimum of pi_ME for each qubit count of the minimize workload.
#: ``proven`` marks values known to be the true minimum; the others are the
#: best value the seed code reached on the benchmark's jobs and are empirical.
MINIMIZE_REFERENCE: dict[int, dict] = {
    4: {"value": 1.0 / 3.0, "proven": True,
        "source": "four-qubit minimum 1/3 (Gour & Wallach 2010; no AME(4,2):"
                  " Higuchi & Sudbery 2000)"},
    6: {"value": 1.0 / 8.0, "proven": True,
        "source": "floor 2^-3 from purity >= 1/dim, attained by an AME(6,2) state"},
    7: {"value": 0.13195201745994609, "proven": False,
        "source": "best value reached by the seed code on 16 jobs of 2 restarts"},
    8: {"value": 0.08571428579138625, "proven": False,
        "source": "best value reached by the seed code on 14 jobs of 2 restarts;"
                  " 8e-11 above 3/35"},
}

#: A job counts as solved when its best value is at most the reference + this.
SOLVED_TOL = 1e-9


def floor_bound(n: int) -> float:
    """Lower bound 2^-floor(n/2) on pi_ME: each balanced purity is >= 1/dim."""
    return float(Fraction(1, 2 ** (n // 2)))


def balanced_subsets(n: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), n // 2))


def purities(amps: np.ndarray, n: int) -> dict[tuple[int, ...], np.ndarray]:
    """Tr rho_A^2 for every balanced subset A; ``amps`` is (..., 2**n)."""
    batch = amps.shape[:-1]
    b = len(batch)
    psi = amps.reshape(batch + (2,) * n)
    out = {}
    for keep in balanced_subsets(n):
        traced = [q for q in range(1, n + 1) if q not in keep]
        axes = list(range(b)) + [b + q - 1 for q in keep] + [b + q - 1 for q in traced]
        m = psi.transpose(axes).reshape(batch + (1 << len(keep), -1))
        rho = m @ np.conj(np.swapaxes(m, -1, -2))
        out[keep] = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
    return out


def pi_me(amps: np.ndarray, n: int) -> np.ndarray:
    values = list(purities(amps, n).values())
    return sum(values) / len(values)


def haar_batch(rng: np.random.Generator, batch: int, n: int) -> np.ndarray:
    """Unitarily invariant random states: complex normal vectors, normalized."""
    dim = 1 << n
    z = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    return z


def ghz(n: int) -> np.ndarray:
    a = np.zeros(1 << n, dtype=np.complex128)
    a[0] = a[-1] = 1.0 / np.sqrt(2.0)
    return a


def product(rng: np.random.Generator, n: int) -> np.ndarray:
    """Tensor product of n random single-qubit states."""
    a = np.ones(1, dtype=np.complex128)
    for q in haar_batch(rng, n, 1):
        a = np.kron(a, q)
    return a
