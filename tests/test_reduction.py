import gc
import re
import sys
import tracemalloc

import numpy as np
import pytest

from entpot import reduction
from entpot.errors import ArityError, DimensionError, SubsetError
from entpot.ket_parser import eval_ket, format_ket, parse_ket
from entpot.mmes_search import value_and_gradient
from entpot.potential import analyze, pi_me_of_amplitudes
from entpot.qstate import (MAX_QUBITS, PureState, catalog_names, catalog_state, make_state,
                           random_state)

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


def assert_reductions_match_the_renormalized_state(state):
    """Every balanced reduction is a DensityMatrix (trace 1 within 1e-12)
    with the purity of the renormalized state."""
    renormalized = PureState(state.n_qubits, state.amplitudes / state.norm())
    for subset, expected in all_balanced_purities(renormalized).items():
        rho = reduced_density(state, subset)
        assert isinstance(rho, DensityMatrix)
        assert abs(purity(rho) - expected) < 1e-12


@pytest.mark.parametrize("name", catalog_names())
def test_reduced_density_of_a_12_digit_catalog_round_trip(name):
    # the text ``entpot states --state NAME`` prints; eq9/uniform and
    # yc/signs come back with |psi|^2 = 1 - 1.55e-12, a trace no
    # DensityMatrix takes as it stands
    text = format_ket(catalog_state(*name.split("/")), precision=12)
    assert_reductions_match_the_renormalized_state(eval_ket(parse_ket(text)))


@pytest.mark.parametrize("n", range(2, 9))
def test_reduced_density_of_12_digit_random_round_trips(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        text = format_ket(random_state(n, rng), precision=12)
        assert_reductions_match_the_renormalized_state(eval_ket(parse_ket(text)))


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


@pytest.mark.parametrize("n", range(2, 13))
def test_balanced_purities_match_per_subset(n):
    rng = np.random.default_rng(400 + n)
    state = random_state(n, rng)
    batch = random_amplitude_batch(n, 3, rng)
    real = batch.real / np.linalg.norm(batch.real, axis=-1, keepdims=True)
    single = balanced_purities(state.amplitudes, n)
    stacked = balanced_purities(batch, n)
    from_real = balanced_purities(real, n)
    mapping = all_balanced_purities(state)
    assert single.shape == (len(balanced_subsets(n)),)
    assert stacked.shape == from_real.shape == (3, len(balanced_subsets(n)))
    assert list(mapping) == list(balanced_subsets(n))
    np.testing.assert_array_equal(from_real, balanced_purities(real.astype(complex), n))
    for j, subset in enumerate(balanced_subsets(n)):
        want = float(subset_purity(state.amplitudes, n, subset))
        assert abs(single[j] - want) < 1e-13
        assert abs(mapping[subset] - want) < 1e-13
        np.testing.assert_allclose(
            stacked[:, j], subset_purity(batch, n, subset), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            from_real[:, j], subset_purity(real, n, subset), rtol=0, atol=1e-13
        )


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_balanced_purities_complements_exactly_equal(n):
    rng = np.random.default_rng(500 + n)
    values = all_balanced_purities(random_state(n, rng))
    everyone = set(range(1, n + 1))
    for subset, value in values.items():
        assert values[tuple(sorted(everyone - set(subset)))] == value


def test_balanced_purities_short_last_chunk_and_real_input():
    rng = np.random.default_rng(600)
    batch = random_amplitude_batch(4, 700, rng)  # 136 states a chunk: five, then 20
    values = balanced_purities(batch, 4)
    for j, subset in enumerate(balanced_subsets(4)):
        np.testing.assert_allclose(values[:, j], subset_purity(batch, 4, subset),
                                   rtol=0, atol=1e-13)
    real = batch.real / np.linalg.norm(batch.real, axis=-1, keepdims=True)
    np.testing.assert_array_equal(balanced_purities(real, 4),
                                  balanced_purities(real.astype(complex), 4))


def test_balanced_purities_agree_across_threads():
    assert_agree_across_threads(8, 50)


def test_balanced_purities_agree_across_threads_on_the_cover_route():
    assert_agree_across_threads(11, 10)


def assert_agree_across_threads(n, repeats):
    """Four threads, each repeating one state's purities, match one thread."""
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(601)
    states = [random_state(n, rng).amplitudes for _ in range(4)]
    want = [balanced_purities(a, n) for a in states]

    def repeat(a):
        return [balanced_purities(a, n) for _ in range(repeats)]

    with ThreadPoolExecutor(max_workers=4) as pool:
        for expected, runs in zip(want, pool.map(repeat, states)):
            assert len(runs) == repeats
            for got in runs:
                np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("n", range(2, reduction.CACHED_INDEX_QUBITS + 1))
def test_balanced_index_matches_stacked_gather_tables(n):
    subsets = balanced_subsets(n)
    if n % 2 == 0:
        subsets = subsets[: len(subsets) // 2]
    expected = np.stack([_gather_index(n, subset) for subset in subsets])
    index = balanced_index(n)
    assert index.dtype == np.intp and not index.flags.writeable
    np.testing.assert_array_equal(index, expected)
    assert balanced_index(n) is index
    # the first n without a table: the cover route expands offsets per chunk
    with pytest.raises(DimensionError, match="index's limit of 10"):
        balanced_index(reduction.CACHED_INDEX_QUBITS + 1)


def kernel_subsets(n):
    """The subsets whose purities the kernel computes, in its column order."""
    subsets = balanced_subsets(n)
    return subsets[: len(subsets) // 2] if n % 2 == 0 else subsets


@pytest.mark.parametrize("n", range(2, reduction.CACHED_INDEX_QUBITS + 1))
def test_balanced_offsets_expand_to_the_transpose_gather_index(n):
    """The kept and traced offsets ``balanced_index`` expands into its table."""
    subsets = kernel_subsets(n)
    kept, traced = reduction._offsets(np.array(subsets, dtype=np.intp), n)
    k = n // 2
    assert kept.shape == (len(subsets), 1 << k)
    assert traced.shape == (len(subsets), 1 << (n - k))
    assert kept.dtype == traced.dtype == np.intp
    assert not kept.flags.writeable and not traced.flags.writeable
    for s, subset in enumerate(subsets):
        expanded = kept[s][:, None] + traced[s][None, :]
        np.testing.assert_array_equal(expanded, _gather_index(n, subset))


def transpose_route_purities(amps, n, subsets):
    """Tr rho_A^2 per subset from one qubit axis per bit, kept axes moved to
    the front: no index table involved."""
    psi = amps.reshape((2,) * n)
    out = []
    for keep in subsets:
        traced = [q for q in range(1, n + 1) if q not in keep]
        m = psi.transpose([q - 1 for q in keep + tuple(traced)]).reshape(1 << len(keep), -1)
        rho = m @ m.conj().T
        out.append(np.sum(np.abs(rho) ** 2))
    return np.array(out)


def test_balanced_purities_match_the_transpose_route_at_13_qubits():
    amps = random_state(13, np.random.default_rng(713)).amplitudes
    np.testing.assert_allclose(balanced_purities(amps, 13),
                               transpose_route_purities(amps, 13, balanced_subsets(13)),
                               rtol=0, atol=1e-13)


def test_balanced_purities_match_the_transpose_route_on_sampled_subsets_at_14_qubits():
    rng = np.random.default_rng(714)
    amps = random_state(14, rng).amplitudes
    values = balanced_purities(amps, 14)
    subsets = balanced_subsets(14)
    # from both halves: the kernel's own rows and the complements it copies
    picked = sorted({0, len(subsets) - 1, *rng.choice(len(subsets), 30, replace=False).tolist()})
    np.testing.assert_allclose(values[picked],
                               transpose_route_purities(amps, 14, [subsets[j] for j in picked]),
                               rtol=0, atol=1e-13)


def test_index_memory_retained_after_large_n_calls_stays_below_one_mib():
    """No cache keeps a C(n, n/2) 2^n table: above 10 qubits only the cover plan stays per n."""
    reduction._cover_plan.cache_clear()
    reduction.balanced_index.cache_clear()
    rng = np.random.default_rng(715)
    balanced_purities(np.ones(4), 2)  # this thread's chunk buffers exist already
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = analyze(random_state(12, rng))
        assert len(report.purities) == 924
        del report
        with pytest.raises(DimensionError, match=r"2\.\.10"):
            value_and_gradient(rng.standard_normal(1 << 12))
        gc.collect()  # also empties the tuple free lists, which tracemalloc counts
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
    # the largest table that does stay cached
    assert balanced_index(reduction.CACHED_INDEX_QUBITS).nbytes <= 1 << 20


def test_balanced_index_rejects_more_qubits_than_the_cap_before_allocating(monkeypatch):
    def table_build_reached(n):
        raise AssertionError(f"n = {n} went on to list its subsets")

    monkeypatch.setattr(reduction, "balanced_subsets", table_build_reached)
    amps = np.zeros((1, 2 ** (MAX_QUBITS + 1)))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="index's limit of 10"):
            balanced_index(MAX_QUBITS + 1)
        with pytest.raises(DimensionError, match="limit of 14"):
            reduction._cover_plan(MAX_QUBITS + 1)
        with pytest.raises(DimensionError, match="limit of 14"):
            pi_me_of_amplitudes(amps, MAX_QUBITS + 1)  # rejected before any conversion
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # so the per-thread chunk buffers hold one subset of one state at any allowed n
    assert 1 << MAX_QUBITS <= reduction._CHUNK_ELEMENTS


#: Inputs whose last axis does not hold 2^n amplitudes, and the n they are given with.
WRONG_WIDTHS = {
    "8": (np.ones(8) / np.sqrt(8), 4),
    "32": (np.ones(32) / np.sqrt(32), 4),
    "3x8": (np.ones((3, 8)), 4),
    "2x16": (np.ones((2, 16)), 5),  # one five-qubit state cut in two
    "scalar": (np.float64(1.0), 4),
}


@pytest.mark.parametrize("func", [
    balanced_purities,
    pi_me_of_amplitudes,
    lambda amps, n: subset_purity(amps, n, (1, 2)),
], ids=["balanced_purities", "pi_me_of_amplitudes", "subset_purity"])
@pytest.mark.parametrize("case", WRONG_WIDTHS)
def test_purities_reject_other_widths(func, case):
    """32 amplitudes at n = 4 no longer give a value from the first 16 (pi_ME
    0.25, below the four-qubit minimum 1/3), nor one five-qubit state laid
    out as (2, 16) a (2, 5) result."""
    amps, n = WRONG_WIDTHS[case]
    message = f"expected {1 << n} amplitudes per state for n={n}, got shape {np.shape(amps)}"
    with pytest.raises(DimensionError, match=re.escape(message)):
        func(amps, n)


#: Qubit counts whose blocks take the Gram-entry route: blocks of at most
#: ``_ENTRY_ROUTE_AMPLITUDES`` amplitudes.
ENTRY_NS = [n for n in range(2, MAX_QUBITS + 1) if 1 << n <= reduction._ENTRY_ROUTE_AMPLITUDES]


def entry_chunk(n):
    """States per chunk of the Gram-entry route at n: its larger half, one
    of the two row gathers or the amplitudes, holds a chunk of entries."""
    pairs = reduction._entry_tables(n)[0]
    return reduction._ENTRY_CHUNK_ELEMENTS // max(pairs[0].size, 1 << n)


def assert_matches_per_subset(values, amps, n):
    """``values`` (..., C(n, n/2)) equal the per-subset BLAS route to 1e-14."""
    for j, subset in enumerate(balanced_subsets(n)):
        np.testing.assert_allclose(values[..., j], subset_purity(amps, n, subset),
                                   rtol=0, atol=1e-14)


def test_entry_route_covers_up_to_four_qubits():
    assert ENTRY_NS == [2, 3, 4]
    # both halves of a chunk, the x and y gathers or the amplitudes and
    # their conjugates, fit one per-thread buffer
    assert 2 * reduction._ENTRY_CHUNK_ELEMENTS <= reduction._BUFFER_ELEMENTS


@pytest.mark.parametrize("n", ENTRY_NS)
def test_entry_route_single_states_and_batch_sizes_around_the_chunk(n, monkeypatch):
    rng = np.random.default_rng(810 + n)
    for _ in range(5):
        amps = random_state(n, rng).amplitudes
        values = balanced_purities(amps, n)
        assert values.shape == (len(balanced_subsets(n)),)
        assert_matches_per_subset(values, amps, n)
    chunk = entry_chunk(n)
    sizes = []
    work = reduction._entry_work

    def counted_work(n, count):
        sizes.append(count)
        return work(n, count)

    monkeypatch.setattr(reduction, "_entry_work", counted_work)
    for count in (1, chunk - 1, chunk, chunk + 1, 1000):
        sizes.clear()
        batch = random_amplitude_batch(n, count, rng)
        values = balanced_purities(batch, n)
        assert values.shape == (count, len(balanced_subsets(n)))
        assert_matches_per_subset(values, batch, n)
        # the route cuts its chunks where entry_chunk says
        assert sizes == [chunk] * (count // chunk) + [count % chunk] * (count % chunk > 0)


@pytest.mark.parametrize("n", ENTRY_NS)
def test_entry_route_basis_ghz_and_haar_rows_across_chunks(n):
    """Computational-basis rows give exactly 1, GHZ rows 1/2, and Haar rows
    the per-subset value, wherever they fall in a batch of three chunks."""
    rng = np.random.default_rng(860 + n)
    dim = 1 << n
    count = 2 * entry_chunk(n) + 7
    batch = random_amplitude_batch(n, count, rng)
    kind = rng.integers(3, size=count)  # 0 basis, 1 GHZ, 2 Haar
    basis = np.flatnonzero(kind == 0)
    batch[basis] = 0
    batch[basis, rng.integers(dim, size=len(basis))] = 1
    ghz = np.flatnonzero(kind == 1)
    batch[ghz] = 0
    batch[ghz, 0] = batch[ghz, -1] = 1 / np.sqrt(2)
    values = balanced_purities(batch, n)
    assert np.all(values[basis] == 1.0)
    np.testing.assert_allclose(values[ghz], 0.5, rtol=0, atol=1e-15)
    haar = kind == 2
    assert_matches_per_subset(values[haar], batch[haar], n)


@pytest.mark.parametrize("n", ENTRY_NS)
def test_entry_route_leading_axes_strides_and_real_input(n):
    rng = np.random.default_rng(820 + n)
    batch = random_amplitude_batch(n, 12, rng).reshape(2, 3, 2, 1 << n)
    values = balanced_purities(batch, n)
    assert values.shape == (2, 3, 2, len(balanced_subsets(n)))
    assert_matches_per_subset(values, batch, n)
    np.testing.assert_array_equal(values.reshape(12, -1), balanced_purities(batch.reshape(12, -1), n))

    wide = random_amplitude_batch(n + 1, 40, rng)
    strided = wide[::3, ::2]  # every other amplitude of every third row
    assert not strided.flags.c_contiguous
    assert_matches_per_subset(balanced_purities(strided, n), strided, n)
    np.testing.assert_array_equal(balanced_purities(strided, n),
                                  balanced_purities(np.ascontiguousarray(strided), n))

    real = batch.real / np.linalg.norm(batch.real, axis=-1, keepdims=True)
    assert_matches_per_subset(balanced_purities(real, n), real, n)
    np.testing.assert_array_equal(balanced_purities(real, n),
                                  balanced_purities(real.astype(complex), n))


@pytest.mark.parametrize("n", ENTRY_NS)
def test_entry_route_complement_symmetry(n):
    rng = np.random.default_rng(830 + n)
    batch = random_amplitude_batch(n, 300, rng)
    values = balanced_purities(batch, n)
    subsets = balanced_subsets(n)
    everyone = set(range(1, n + 1))
    for j, subset in enumerate(subsets):
        complement = tuple(sorted(everyone - set(subset)))
        if len(complement) == len(subset):  # even n: the complement is listed too
            np.testing.assert_array_equal(values[:, subsets.index(complement)], values[:, j])
        else:  # odd n: Tr rho_A^2 = Tr rho_Abar^2 for a pure state
            np.testing.assert_allclose(subset_purity(batch, n, complement), values[:, j],
                                       rtol=0, atol=1e-14)


def test_entry_route_agrees_across_threads():
    """More threads than cores share the cached tables, each with its own buffers."""
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(845)
    batches = [random_amplitude_batch(4, 300, rng) for _ in range(4)]
    want = [balanced_purities(batch, 4) for batch in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(lambda batch: [balanced_purities(batch, 4) for _ in range(30)],
                                 batches, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(want, runs):
        assert len(got) == 30
        for values in got:
            np.testing.assert_array_equal(values, expected)


def test_route_boundary(monkeypatch):
    """The last n on the Gram-entry route and the first on batched products."""
    last = max(ENTRY_NS)
    rng = np.random.default_rng(840)

    def not_this_route(*args):
        raise AssertionError("wrong route")

    for n, other in ((last, "_product_purities"), (last + 1, "_entry_purities")):
        with monkeypatch.context() as patch:
            patch.setattr(reduction, other, not_this_route)
            amps = random_state(n, rng).amplitudes
            batch = random_amplitude_batch(n, 500, rng)
            assert_matches_per_subset(balanced_purities(amps, n), amps, n)
            assert_matches_per_subset(balanced_purities(batch, n), batch, n)


@pytest.mark.parametrize("count", [10_000, 100_000])
def test_entry_route_memory_is_the_output_plus_a_chunk_sized_constant(count):
    """A four-qubit batch adds only its output and a constant to the input."""
    batch = random_amplitude_batch(4, count, np.random.default_rng(850))
    balanced_purities(batch[:1], 4)  # tables and this thread's buffers exist already
    tracemalloc.start()
    try:
        values = balanced_purities(batch, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (count, 6)
    # far less than one gathered table of the batch (144 amplitudes per
    # state): one chunk of floats
    assert peak <= values.nbytes + reduction._ENTRY_CHUNK_ELEMENTS * 8


#: Qubit counts whose blocks take the cover route: more than
#: ``_PRODUCT_ROUTE_AMPLITUDES`` amplitudes.
COVER_NS = [n for n in range(2, MAX_QUBITS + 1) if 1 << n > reduction._PRODUCT_ROUTE_AMPLITUDES]


def test_cover_route_covers_from_eleven_qubits():
    assert COVER_NS == [11, 12, 13, 14]


def test_cover_route_boundary(monkeypatch):
    """The last n on batched products per subset and the first on the cover route."""
    first = min(COVER_NS)
    rng = np.random.default_rng(860)

    def not_this_route(*args):
        raise AssertionError("wrong route")

    for n, other in ((first - 1, "_cover_purities"), (first, "_product_purities")):
        with monkeypatch.context() as patch:
            patch.setattr(reduction, other, not_this_route)
            amps = random_state(n, rng).amplitudes
            batch = random_amplitude_batch(n, 2, rng)
            assert_matches_per_subset(balanced_purities(amps, n), amps, n)
            assert_matches_per_subset(balanced_purities(batch, n), batch, n)


@pytest.mark.parametrize("n", COVER_NS)
def test_cover_plan_serves_every_kernel_subset_once(n):
    plan = reduction._cover_plan(n)
    k = n // 2
    kernel = kernel_subsets(n)
    everyone = set(range(1, n + 1))
    assert plan.sets.shape == (len(plan.sets), k + 1)
    assert plan.columns.shape == (len(plan.sets), k + 2)
    served = np.sort(plan.columns[plan.columns >= 0])
    np.testing.assert_array_equal(served, np.arange(len(kernel)))
    if n in (11, 12):  # the fewest sets: seven serving slots each
        assert len(plan.sets) == 66 == len(kernel) // 7
    for qubits, columns in zip(plan.sets.tolist(), plan.columns.tolist()):
        assert qubits == sorted(set(qubits))
        for p, column in enumerate(columns):
            if column < 0:
                continue
            # slot k + 1 is the whole set, whose complement it serves
            child = set(qubits) - {qubits[p]} if p <= k else set(qubits)
            assert set(kernel[column]) in (child, everyone - child)
    # the chunks list every serving slot once, and each position a chunk needs
    slots = []
    for s0, s1, positions, flat_slots, columns in plan.chunks:
        part = plan.columns[s0:s1]
        np.testing.assert_array_equal(part.ravel()[flat_slots], columns)
        assert positions == tuple(p for p in range(k + 1) if (part[:, p] >= 0).any())
        slots.extend(columns.tolist())
    assert sorted(slots) == list(range(len(kernel)))
    reduction._cover_plan.cache_clear()
    rebuilt = reduction._cover_plan(n)
    for name in ("sets", "columns", "kept", "traced", "signs"):
        np.testing.assert_array_equal(getattr(rebuilt, name), getattr(plan, name))


@pytest.mark.parametrize("n", COVER_NS)
def test_cover_plan_offsets_expand_to_the_transpose_gather_index(n):
    plan = reduction._cover_plan(n)
    k1 = n // 2 + 1
    assert plan.kept.shape == (len(plan.sets), 1 << k1)
    assert plan.traced.shape == (len(plan.sets), 1 << (n - k1))
    assert plan.kept.dtype == plan.traced.dtype == np.intp
    assert not plan.kept.flags.writeable and not plan.traced.flags.writeable
    for qubits, kept, traced in zip(plan.sets.tolist(), plan.kept, plan.traced):
        np.testing.assert_array_equal(kept[:, None] + traced[None, :],
                                      _gather_index(n, tuple(qubits)))


@pytest.mark.parametrize("n", range(4, 11))
def test_cover_route_matches_the_product_route_below_its_threshold(n):
    """The cover kernel itself, run where balanced_purities does not take it."""
    rng = np.random.default_rng(870 + n)
    batch = random_amplitude_batch(n, 3, rng)
    out = np.empty((3, len(kernel_subsets(n))))
    reduction._cover_purities(batch, n, out)
    np.testing.assert_allclose(out, balanced_purities(batch, n)[:, : out.shape[1]],
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [11, 12])
def test_cover_route_ghz_and_product_states(n):
    ghz = np.zeros(1 << n)
    ghz[[0, -1]] = S2
    np.testing.assert_allclose(balanced_purities(ghz, n), 0.5, rtol=0, atol=1e-14)
    rng = np.random.default_rng(880 + n)
    product = np.ones(1, dtype=complex)
    for _ in range(n):
        product = np.kron(product, random_state(1, rng).amplitudes)
    np.testing.assert_allclose(balanced_purities(product, n), 1.0, rtol=0, atol=1e-13)
