import ast
import re
import sys
import threading
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest

import entpot
from entpot import closed_form
from entpot.closed_form import (
    PAIR_WEIGHT_BY_DISTANCE,
    PAIRS,
    QUARTIC_WEIGHT,
    _ENTRY_PAIRS,
    _LEFT,
    _RIGHT,
    _entry_products,
    _pair_groups,
    _pair_purities,
    _sum_entries,
    k1_of_amplitudes,
    k1_value,
    k2_of_amplitudes,
    k2_value,
    k_total,
    k_total_of_amplitudes,
    pair_purities,
)
from entpot.errors import ArityError
from entpot.k1_printed import (
    PRINTED_PAIR_WEIGHTS,
    coefficient_discrepancies,
    comparison_report,
    rule_pair_weights,
)
from entpot.potential import pi_me
from entpot.qstate import catalog_state, make_state, random_state
from entpot.reduction import all_balanced_purities, subset_purity

from helpers import random_amplitude_batch

S2 = 1 / np.sqrt(2)


def test_pair_purities_hs():
    pp = pair_purities(catalog_state("hs", "omega"))
    for value in pp.as_dict().values():
        assert abs(value - 1 / 3) < 1e-12


def test_pair_purities_yc_signs():
    pp = pair_purities(catalog_state("yc", "signs"))
    assert abs(pp.pi12 - 0.25) < 1e-12
    assert abs(pp.pi13 - 0.25) < 1e-12
    assert abs(pp.pi14 - 0.5) < 1e-12


def test_pair_purities_eq7_uniform():
    # brute-force oracle value: every balanced purity of the uniform
    # six-term state equals 1/2
    pp = pair_purities(catalog_state("eq7", "uniform"))
    for value in pp.as_dict().values():
        assert abs(value - 0.5) < 1e-12


def test_complement_symmetry_of_closed_forms():
    rng = np.random.default_rng(23)
    for _ in range(200):
        pp = pair_purities(random_state(4, rng))
        assert abs(pp.pi12 - pp.pi34) < 1e-12
        assert abs(pp.pi13 - pp.pi24) < 1e-12
        assert abs(pp.pi14 - pp.pi23) < 1e-12


def test_oracle_equivalence_sample():
    rng = np.random.default_rng(29)
    for _ in range(500):
        state = random_state(4, rng)
        closed = pair_purities(state).as_dict()
        oracle = all_balanced_purities(state)
        for subset in oracle:
            assert abs(closed[subset] - oracle[subset]) < 1e-12


# ---------------------------------------------------------------------------
# K2
# ---------------------------------------------------------------------------


def test_k2_single_amplitude():
    assert k2_value(make_state(4, [1] + [0] * 15)) == 0.0


def test_k2_eq7_uniform():
    # one surviving overlap of 1/3 per bipartition: 6 * 2 * (1/3)**2 = 4/3
    assert abs(k2_value(catalog_state("eq7", "uniform")) - 4 / 3) < 1e-12


def test_k2_hs_closes_criterion():
    kd = k_total(catalog_state("hs", "omega"))
    assert abs(kd.k1 + kd.k2) < 1e-12


def test_k2_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(500):
        assert k2_value(random_state(4, rng)) >= 0.0


#: Left and right index quadruples of the 36 cross-overlap terms, six per
#: balanced bipartition in PAIRS order: rows x and y of each pair's groups,
#: for every x < y.
_PATTERN_PAIRS = [(x, y) for x in range(4) for y in range(x + 1, 4)]
_K2_LEFT, _K2_RIGHT = (
    np.array([_pair_groups(pair)[rows[side]] for pair in PAIRS for rows in _PATTERN_PAIRS])
    for side in (0, 1))


def test_k2_has_36_terms_six_per_bipartition():
    assert _K2_LEFT.shape == _K2_RIGHT.shape == (36, 4)
    assert np.bincount(_ENTRY_PAIRS).tolist() == [6] * 6


def _entry_incidence():
    """(36, 80) 0/1 matrix: which of the 80 products each cross entry sums,
    read off the kernel's own reshape sums of the identity."""
    return _sum_entries(np.eye(80), np.empty((36, 80)))


def test_product_tables_hold_80_distinct_products_at_distance_one_or_two():
    products = {frozenset(pair) for pair in zip(_LEFT.tolist(), _RIGHT.tolist())}
    assert len(products) == 80
    distances = [(i ^ j).bit_count() for i, j in zip(_LEFT.tolist(), _RIGHT.tolist())]
    assert distances == [1] * 32 + [2] * 48


def test_every_cross_entry_sums_exactly_its_four_products():
    incidence = _entry_incidence()
    assert set(np.unique(incidence)) == {0.0, 1.0}
    assert incidence.sum(axis=1).tolist() == [4.0] * 36
    entries = [frozenset((_LEFT[k], _RIGHT[k]) for k in np.flatnonzero(row))
               for row in incidence]
    for b, pair in enumerate(PAIRS):
        groups = _pair_groups(pair)
        for x, y in _PATTERN_PAIRS:
            overlap = frozenset(zip(groups[x].tolist(), groups[y].tolist()))
            assert entries.count(overlap) == 1, (pair, x, y)
            assert _ENTRY_PAIRS[entries.index(overlap)] == b
    # the one-state route multiplies by the same table
    np.testing.assert_array_equal(_entry_products(), incidence.T)


#: Printed first and last cross-overlap term of each six-term block, as
#: sets of (left, right) index pairs.
_PRINTED_BLOCK_ENDS = {
    (1, 2): ({(0, 4), (1, 5), (2, 6), (3, 7)},
             {(8, 12), (9, 13), (10, 14), (11, 15)}),
    (1, 3): ({(0, 2), (1, 3), (4, 6), (5, 7)},
             {(8, 10), (9, 11), (12, 14), (13, 15)}),
    (1, 4): ({(0, 1), (2, 3), (4, 5), (6, 7)},
             {(8, 9), (10, 11), (12, 13), (14, 15)}),
    (2, 3): ({(0, 4), (1, 5), (8, 12), (9, 13)},
             {(2, 6), (3, 7), (10, 14), (11, 15)}),
    (2, 4): ({(0, 4), (2, 6), (8, 12), (10, 14)},
             {(1, 5), (3, 7), (9, 13), (11, 15)}),
    (3, 4): ({(0, 2), (4, 6), (8, 10), (12, 14)},
             {(1, 3), (5, 7), (9, 11), (13, 15)}),
}


def test_k2_spot_check_against_printed_blocks():
    """First and last printed term of each block appear among the generated terms."""
    blocks = {}
    for b, pair in enumerate(PAIRS):
        terms = []
        for t in range(6):
            row = 6 * b + t
            terms.append(frozenset(zip(_K2_LEFT[row].tolist(), _K2_RIGHT[row].tolist())))
        blocks[pair] = terms
    for pair, (first, last) in _PRINTED_BLOCK_ENDS.items():
        assert frozenset(first) in blocks[pair]
        assert frozenset(last) in blocks[pair]


def _k2_from_printed_terms(amps):
    """K2 term by term from the 36-term listing: 2 sum_t |sum_j a[l_tj] conj(a[r_tj])|^2."""
    total = np.zeros(amps.shape[:-1])
    for l_row, r_row in zip(_K2_LEFT, _K2_RIGHT):
        overlap = sum(amps[..., i] * np.conj(amps[..., j]) for i, j in zip(l_row, r_row))
        total += 2.0 * np.abs(overlap) ** 2
    return total


_CHUNK = closed_form._CHUNK_STATES


@pytest.mark.parametrize("count", sorted({1, 127, 128, 129, 259, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                           2 * _CHUNK + 3, 1000}))
def test_gram_route_matches_term_listing_and_oracle(count):
    """Batches inside one chunk and on both sides of each chunk edge: K2
    equals the 36-term sum, and the pair purities equal the partial-trace
    oracle's."""
    amps = random_amplitude_batch(4, count, np.random.default_rng(count))
    k2 = k2_of_amplitudes(amps)
    assert k2.shape == (count,)
    assert np.max(np.abs(k2 - _k2_from_printed_terms(amps))) < 1e-13
    purities = _pair_purities(amps)
    assert purities.shape == (count, 6)
    for p, pair in enumerate(PAIRS):
        assert np.max(np.abs(purities[:, p] - subset_purity(amps, 4, pair))) < 1e-12


def test_k2_matches_term_listing_on_one_state_leading_axes_strided_and_real_input():
    rng = np.random.default_rng(67)
    batch = random_amplitude_batch(4, 2 * 3 * 70, rng)
    cases = {
        "one state": batch[0],
        "leading axes": batch.reshape(2, 3, 70, 16),
        "strided": np.repeat(batch, 2, axis=1)[::3, ::2],
        "real": batch.real / np.linalg.norm(batch.real, axis=-1, keepdims=True),
    }
    assert not cases["strided"].flags.c_contiguous
    for name, amps in cases.items():
        k2 = k2_of_amplitudes(amps)
        assert np.shape(k2) == amps.shape[:-1], name
        assert np.max(np.abs(k2 - _k2_from_printed_terms(amps))) < 1e-13, name


def test_closed_forms_keep_leading_axes():
    amps = random_amplitude_batch(4, 6, np.random.default_rng(47)).reshape(2, 3, 16)
    flat = amps.reshape(6, 16)
    for func in (k1_of_amplitudes, k2_of_amplitudes, k_total_of_amplitudes):
        out = func(amps)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.reshape(6), func(flat), rtol=0, atol=1e-15)
        single = func(flat[4])
        assert np.shape(single) == ()
        assert abs(single - out[1, 1]) < 1e-15
    assert _pair_purities(amps).shape == (2, 3, 6)
    assert _pair_purities(flat[0]).shape == (6,)


def test_closed_forms_accept_real_input():
    rng = np.random.default_rng(53)
    for count in (1, 2 * _CHUNK + 3):
        real = rng.standard_normal((count, 16))
        real /= np.linalg.norm(real, axis=1, keepdims=True)
        as_complex = real.astype(np.complex128)
        assert np.max(np.abs(k2_of_amplitudes(real) - k2_of_amplitudes(as_complex))) < 1e-15
        assert np.max(np.abs(_pair_purities(real) - _pair_purities(as_complex))) < 1e-15
        assert np.max(np.abs(k_total_of_amplitudes(real)
                             - k_total_of_amplitudes(as_complex))) < 1e-15


def test_k_total_batch_memory_stays_near_input_size():
    """The chunked Gram keeps K2's temporaries small: the traced peak of a
    5x10^4-state K1 + K2 stays below twice the input."""
    amps = random_amplitude_batch(4, 50_000, np.random.default_rng(59))
    tracemalloc.start()
    try:
        k_total_of_amplitudes(amps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * amps.nbytes, f"peak {peak / 2**20:.1f} MiB, input {amps.nbytes / 2**20:.1f} MiB"


def test_k2_memory_is_the_output_plus_the_chunk_buffers():
    """A 10^5-state K2 peaks at its output plus this thread's chunk buffers,
    made on its first call; a second call adds nothing that grows with the
    batch."""
    amps = random_amplitude_batch(4, 100_000, np.random.default_rng(73))
    peaks = []

    def traced_k2():
        tracemalloc.start()
        try:
            values = k2_of_amplitudes(amps)
            peaks.append(tracemalloc.get_traced_memory()[1] - values.nbytes)
        finally:
            tracemalloc.stop()

    def run():  # in a new thread, whose buffers do not exist yet
        traced_k2()
        traced_k2()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    buffers = 176 * closed_form._CHUNK_STATES * 16  # 16 + 80 + 80 complex rows
    first, second = peaks
    assert buffers <= first <= buffers + (16 << 10), first
    assert second <= 16 << 10, second


def test_k2_and_pair_purities_agree_across_threads():
    """Each thread has its own chunk buffers: four threads switching every
    microsecond get bit-identical results."""
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(79)
    batches = [random_amplitude_batch(4, 1000, rng) for _ in range(4)]
    want = [(k2_of_amplitudes(batch), _pair_purities(batch)) for batch in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(
                lambda batch: [(k2_of_amplitudes(batch), _pair_purities(batch)) for _ in range(20)],
                batches, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (k2, purities), got in zip(want, runs):
        assert len(got) == 20
        for k2_run, purities_run in got:
            np.testing.assert_array_equal(k2_run, k2)
            np.testing.assert_array_equal(purities_run, purities)


def test_k1_batch_memory_stays_small():
    """K1 runs through the same chunks: its traced peak on 5x10^4 states stays
    below a quarter of the input."""
    amps = random_amplitude_batch(4, 50_000, np.random.default_rng(61))
    tracemalloc.start()
    try:
        k1_of_amplitudes(amps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < amps.nbytes / 4, f"peak {peak / 2**20:.1f} MiB, input {amps.nbytes / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# K1
# ---------------------------------------------------------------------------


def test_k1_basis_state():
    assert k1_value(make_state(4, [1] + [0] * 15)) == 4.0


def test_k1_ghz():
    # two amplitudes at Hamming distance 4: 4*(2*(1/4)) - 4*(1/4) = 1
    state = make_state(4, [S2] + [0] * 14 + [S2])
    assert abs(k1_value(state) - 1.0) < 1e-12


def test_k1_eq7_uniform():
    # K = K1 + K2 = 1 for the uniform six-term state, so K1 = 1 - 4/3
    state = catalog_state("eq7", "uniform")
    assert abs(k1_value(state) - (1.0 - 4 / 3)) < 1e-12


def test_weight_rule_derivation():
    """Pair weight = 2*(C(4-d, 2) - 2): shared diagonal blocks minus normalization."""
    for d, weight in PAIR_WEIGHT_BY_DISTANCE.items():
        assert weight == 2 * (comb(4 - d, 2) - 2)
    assert QUARTIC_WEIGHT == comb(4, 2) - 2


# ---------------------------------------------------------------------------
# K total and the known example values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,variant,expected", [
    ("hs", "omega", 0.0),
    ("eq13", "uniform", 5 / 9),
    ("eq11", "uniform", 1.0),
])
def test_k_total_examples(name, variant, expected):
    kd = k_total(catalog_state(name, variant))
    assert abs(kd.k_total - expected) < 1e-12
    assert kd.k2 >= 0.0


def test_k_total_matches_oracle_identity():
    """K = 2*(3*pi_ME - 1) with pi_ME from the partial-trace oracle."""
    rng = np.random.default_rng(37)
    for _ in range(300):
        state = random_state(4, rng)
        k = k_total(state).k_total
        assert abs(k - 2.0 * (3.0 * pi_me(state) - 1.0)) < 1e-9


def test_k_total_nonnegative_sample():
    rng = np.random.default_rng(41)
    batch = rng.standard_normal((20000, 16)) + 1j * rng.standard_normal((20000, 16))
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    assert float(np.min(k_total_of_amplitudes(batch))) >= -1e-9


@pytest.mark.parametrize("func", [pair_purities, k1_value, k2_value, k_total])
def test_arity_errors(func):
    rng = np.random.default_rng(43)
    with pytest.raises(ArityError):
        func(random_state(3, rng))


BATCHED = [k1_of_amplitudes, k2_of_amplitudes, k_total_of_amplitudes, _pair_purities]


@pytest.mark.parametrize("func", BATCHED)
@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("lead", [(), (7,), (2, 3)])
def test_batched_closed_forms_reject_other_widths(func, n, lead):
    """Eight or 32 amplitudes per state raise ArityError with the message the
    state-level functions give for the same n, for one state and batches;
    32 amplitudes no longer read the first 16 of them."""
    rng = np.random.default_rng(83)
    with pytest.raises(ArityError) as state_level:
        k2_value(random_state(n, rng))
    amps = random_amplitude_batch(n, int(np.prod(lead)), rng).reshape(lead + (1 << n,))
    with pytest.raises(ArityError) as batched:
        func(amps)
    assert str(batched.value) == str(state_level.value) == (
        f"closed forms are four-qubit only, got n={n}")


@pytest.mark.parametrize("func", BATCHED)
def test_batched_closed_forms_reject_widths_that_are_no_qubit_count(func):
    with pytest.raises(ArityError, match="got 12 amplitudes per state"):
        func(np.ones((3, 12)))
    with pytest.raises(ArityError, match=re.escape("got shape ()")):
        func(np.float64(1.0))


# ---------------------------------------------------------------------------
# printed-table comparison
# ---------------------------------------------------------------------------

#: Frozen list of every cell where the printed table deviates from the rule:
#: five garbled weights in row 6, the whole of row 12 absent, and one wrong
#: sign in row 13.
_EXPECTED_DISCREPANCIES = {
    (6, 10): (-4.0, -2.0),
    (6, 12): (-4.0, -2.0),
    (6, 13): (-2.0, -4.0),
    (6, 14): (-2.0, 2.0),
    (6, 15): (2.0, -2.0),
    (12, 13): (None, 2.0),
    (12, 14): (None, 2.0),
    (12, 15): (None, -2.0),
    (13, 15): (-2.0, 2.0),
}


def test_printed_table_discrepancies_are_exactly_the_known_ones():
    found = {(d.i, d.j): (d.printed, d.rule) for d in coefficient_discrepancies()}
    assert found == _EXPECTED_DISCREPANCIES


def test_printed_table_matches_rule_everywhere_else():
    rule = rule_pair_weights()
    for i, row in PRINTED_PAIR_WEIGHTS.items():
        for j, printed in row.items():
            if (i, j) not in _EXPECTED_DISCREPANCIES:
                assert printed == rule[i][j], (i, j)


def test_comparison_report_mentions_every_discrepancy():
    report = comparison_report()
    assert report.count("MISMATCH") == len(_EXPECTED_DISCREPANCIES)
    assert "9 discrepant cell(s) out of 120" in report


def entpot_imports(module):
    """The entpot modules ``module`` imports, directly or through other entpot
    modules, read from the source with ``ast``."""
    root = Path(entpot.__file__).parent
    found, todo = set(), [module]
    while todo:
        tree = ast.parse((root / f"{todo.pop()}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "entpot"):
                base = node.module or ""
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                for part in name.split("."):
                    if part not in found and (root / f"{part}.py").is_file():
                        found.add(part)
                        todo.append(part)
    return found


def test_closed_form_and_reduction_import_nothing_from_each_other():
    """The two Gram kernels look alike; the closed forms cross-check the oracle
    only while neither module reaches the other's code."""
    assert "qstate" in entpot_imports("closed_form")  # the walker sees relative imports
    assert "reduction" not in entpot_imports("closed_form")
    assert "closed_form" not in entpot_imports("reduction")
