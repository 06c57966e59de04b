import tracemalloc
from math import comb

import numpy as np
import pytest

from entpot import closed_form
from entpot.closed_form import (
    PAIR_WEIGHT_BY_DISTANCE,
    PAIRS,
    QUARTIC_WEIGHT,
    _CROSS_X,
    _CROSS_Y,
    _pair_purities,
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
#: balanced bipartition in PAIRS order: the Gram kernel's K2 row tables.
_K2_LEFT, _K2_RIGHT = _CROSS_X.reshape(36, 4), _CROSS_Y.reshape(36, 4)


def test_k2_has_36_terms_six_per_bipartition():
    assert _CROSS_X.shape == _CROSS_Y.shape == (6, 6, 4)


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


@pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_gram_route_matches_term_listing_and_oracle(count):
    """Batches on both sides of each chunk edge: K2 equals the 36-term sum,
    and the pair purities equal the partial-trace oracle's."""
    amps = random_amplitude_batch(4, count, np.random.default_rng(count))
    k2 = k2_of_amplitudes(amps)
    assert k2.shape == (count,)
    assert np.max(np.abs(k2 - _k2_from_printed_terms(amps))) < 1e-13
    purities = _pair_purities(amps)
    assert purities.shape == (count, 6)
    for p, pair in enumerate(PAIRS):
        assert np.max(np.abs(purities[:, p] - subset_purity(amps, 4, pair))) < 1e-12


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
