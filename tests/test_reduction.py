import tracemalloc

import numpy as np
import pytest

from entpot import reduction
from entpot.errors import ArityError, DimensionError, SubsetError
from entpot.potential import pi_me_of_amplitudes
from entpot.qstate import MAX_QUBITS, catalog_state, make_state, random_state

from helpers import random_amplitude_batch
from entpot.reduction import (
    DensityMatrix,
    _gather_index,
    balanced_index,
    all_balanced_purities,
    balanced_purities,
    balanced_subsets,
    purity,
    reduced_density,
    subset_purity,
)

S2 = 1 / np.sqrt(2)


def ghz4():
    return make_state(4, [S2] + [0] * 14 + [S2])


def test_reduced_density_product_basis_state():
    state = make_state(4, [1] + [0] * 15)
    rho = reduced_density(state, (1, 2))
    np.testing.assert_array_equal(rho.entries, np.diag([1, 0, 0, 0]).astype(complex))


def test_reduced_density_hs_purity_one_third():
    rho = reduced_density(catalog_state("hs", "omega"), (1, 2))
    assert abs(purity(rho) - 1 / 3) < 1e-12


def test_reduced_density_ghz():
    rho = reduced_density(ghz4(), (1, 2))
    np.testing.assert_allclose(
        rho.entries, np.diag([0.5, 0, 0, 0.5]).astype(complex), atol=1e-15
    )


def test_purity_pure_reduction():
    assert purity(np.diag([1.0, 0, 0, 0]).astype(complex)) == 1.0


def test_purity_maximally_mixed():
    assert purity(np.eye(4, dtype=complex) / 4) == 0.25


def test_purity_yc_signs_14():
    rho = reduced_density(catalog_state("yc", "signs"), (1, 4))
    assert abs(purity(rho) - 0.5) < 1e-12


def test_all_balanced_purities_product_state():
    values = all_balanced_purities(make_state(4, [1] + [0] * 15))
    assert set(values) == set(balanced_subsets(4))
    assert all(abs(v - 1.0) < 1e-15 for v in values.values())


def test_all_balanced_purities_hs():
    values = all_balanced_purities(catalog_state("hs", "omega"))
    assert all(abs(v - 1 / 3) < 1e-12 for v in values.values())


def test_all_balanced_purities_yc_signs():
    values = all_balanced_purities(catalog_state("yc", "signs"))
    expected = {
        (1, 2): 0.25, (1, 3): 0.25, (1, 4): 0.5,
        (2, 3): 0.5, (2, 4): 0.25, (3, 4): 0.25,
    }
    assert set(values) == set(expected)
    for subset, want in expected.items():
        assert abs(values[subset] - want) < 1e-12


def test_balanced_subsets_counts():
    assert len(balanced_subsets(4)) == 6
    assert len(balanced_subsets(3)) == 3
    assert len(balanced_subsets(6)) == 20
    with pytest.raises(ArityError):
        balanced_subsets(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_complement_symmetry(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        state = random_state(n, rng)
        for subset in balanced_subsets(n):
            complement = tuple(q for q in range(1, n + 1) if q not in subset)
            a = subset_purity(state.amplitudes, n, subset)
            b = subset_purity(state.amplitudes, n, complement)
            assert abs(float(a) - float(b)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_purity_range(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(50):
        state = random_state(n, rng)
        for subset, value in all_balanced_purities(state).items():
            assert 2.0 ** -len(subset) - 1e-12 <= value <= 1.0 + 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_states_fully_unentangled(n):
    rng = np.random.default_rng(300 + n)
    index = int(rng.integers(1 << n))
    amps = np.zeros(1 << n)
    amps[index] = 1.0
    values = all_balanced_purities(make_state(n, amps))
    assert all(abs(v - 1.0) < 1e-15 for v in values.values())


def test_reduction_invariants_on_random_states():
    """Hermitian, unit trace, and PSD up to noise for every reduction."""
    rng = np.random.default_rng(17)
    for n in (2, 3, 4, 5):
        state = random_state(n, rng)
        for subset in balanced_subsets(n):
            rho = reduced_density(state, subset)  # constructor checks trace/hermiticity
            assert rho.min_eigenvalue() >= -1e-10


def test_subset_validation():
    state = make_state(2, [1, 0, 0, 0])
    with pytest.raises(SubsetError):
        reduced_density(state, ())
    with pytest.raises(SubsetError):
        reduced_density(state, (1, 2))
    with pytest.raises(SubsetError):
        reduced_density(state, (0,))
    with pytest.raises(SubsetError):
        reduced_density(state, (3,))


def test_density_matrix_rejects_non_hermitian():
    bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(SubsetError):
        DensityMatrix((1,), bad)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(SubsetError):
        DensityMatrix((1,), np.eye(2, dtype=complex))


def test_subset_order_and_duplicates_canonicalized():
    state = catalog_state("yc", "signs")
    a = reduced_density(state, (4, 1))
    b = reduced_density(state, (1, 4, 4))
    assert a.kept_qubits == b.kept_qubits == (1, 4)
    np.testing.assert_array_equal(a.entries, b.entries)


@pytest.mark.parametrize("n", range(2, 11))
def test_balanced_purities_match_per_subset(n):
    rng = np.random.default_rng(400 + n)
    state = random_state(n, rng)
    batch = random_amplitude_batch(n, 3, rng)
    single = balanced_purities(state.amplitudes, n)
    stacked = balanced_purities(batch, n)
    mapping = all_balanced_purities(state)
    assert single.shape == (len(balanced_subsets(n)),)
    assert stacked.shape == (3, len(balanced_subsets(n)))
    assert list(mapping) == list(balanced_subsets(n))
    for j, subset in enumerate(balanced_subsets(n)):
        want = float(subset_purity(state.amplitudes, n, subset))
        assert abs(single[j] - want) < 1e-13
        assert abs(mapping[subset] - want) < 1e-13
        np.testing.assert_allclose(
            stacked[:, j], subset_purity(batch, n, subset), rtol=0, atol=1e-13
        )


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_balanced_purities_complements_exactly_equal(n):
    rng = np.random.default_rng(500 + n)
    values = all_balanced_purities(random_state(n, rng))
    everyone = set(range(1, n + 1))
    for subset, value in values.items():
        assert values[tuple(sorted(everyone - set(subset)))] == value


def test_balanced_purities_short_last_chunk_and_real_input():
    rng = np.random.default_rng(600)
    batch = random_amplitude_batch(4, 700, rng)  # 341 states a chunk: 341, 341, 18
    values = balanced_purities(batch, 4)
    for j, subset in enumerate(balanced_subsets(4)):
        np.testing.assert_allclose(values[:, j], subset_purity(batch, 4, subset),
                                   rtol=0, atol=1e-13)
    real = batch.real / np.linalg.norm(batch.real, axis=-1, keepdims=True)
    np.testing.assert_array_equal(balanced_purities(real, 4),
                                  balanced_purities(real.astype(complex), 4))


def test_balanced_purities_agree_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(601)
    states = [random_state(8, rng).amplitudes for _ in range(4)]
    want = [balanced_purities(a, 8) for a in states]

    def repeat(a):
        return [balanced_purities(a, 8) for _ in range(50)]

    with ThreadPoolExecutor(max_workers=4) as pool:
        for expected, runs in zip(want, pool.map(repeat, states)):
            for got in runs:
                np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("n", range(2, 13))
def test_balanced_index_matches_stacked_gather_tables(n):
    subsets = balanced_subsets(n)
    if n % 2 == 0:
        subsets = subsets[: len(subsets) // 2]
    expected = np.stack([_gather_index(n, subset) for subset in subsets])
    index = balanced_index(n)
    assert index.dtype == np.intp and not index.flags.writeable
    np.testing.assert_array_equal(index, expected)


def test_balanced_index_rejects_more_qubits_than_the_cap_before_allocating(monkeypatch):
    def table_build_reached(n):
        raise AssertionError(f"balanced_index({n}) went on to build its table")

    monkeypatch.setattr(reduction, "balanced_subsets", table_build_reached)
    amps = np.zeros((1, 2 ** (MAX_QUBITS + 1)))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="limit of 14"):
            balanced_index(MAX_QUBITS + 1)
        with pytest.raises(DimensionError, match="limit of 14"):
            pi_me_of_amplitudes(amps, MAX_QUBITS + 1)  # the table would take 1.7 GB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # so the per-thread chunk buffers hold one subset of one state at any allowed n
    assert 1 << MAX_QUBITS <= reduction._CHUNK_ELEMENTS
