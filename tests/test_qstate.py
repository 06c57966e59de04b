import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpot.errors import (
    CatalogMissError,
    DegenerateStateError,
    DimensionError,
    FormatError,
    NonUnitaryError,
    NormalizationError,
    SubsetError,
)
from entpot.potential import pi_me
from entpot.qstate import (
    CATALOG,
    MAX_QUBITS,
    OMEGA,
    PureState,
    apply_local_unitary,
    catalog_names,
    catalog_state,
    make_state,
    random_state,
    state_from_json_dict,
    state_to_json_dict,
)

from helpers import random_unitary

S6 = 1 / np.sqrt(6)


def test_make_state_basis_vector():
    st4 = make_state(4, [1] + [0] * 15, "strict")
    assert st4.n_qubits == 4
    assert st4.amplitudes[0] == 1
    assert np.all(st4.amplitudes[1:] == 0)


def test_make_state_six_term_uniform_matches_catalog():
    amps = np.zeros(16, complex)
    amps[[3, 5, 6, 9, 10, 12]] = S6
    st4 = make_state(4, amps, "strict")
    np.testing.assert_array_equal(
        st4.amplitudes, catalog_state("eq7", "uniform").amplitudes
    )


def test_make_state_renormalize_uniform():
    st4 = make_state(4, [1] * 16, "renormalize")
    np.testing.assert_allclose(st4.amplitudes, np.full(16, 0.25), atol=0)


def test_make_state_wrong_length():
    with pytest.raises(DimensionError):
        make_state(4, [1, 0, 0], "strict")


def test_make_state_empty():
    with pytest.raises(DimensionError):
        make_state(4, [], "strict")


@pytest.mark.parametrize("policy", ["strict", "renormalize"])
def test_make_state_same_state_from_ndarray_list_and_generator(policy):
    amps = random_state(5, np.random.default_rng(41)).amplitudes
    if policy == "renormalize":
        amps = 2.0 * amps
    states = [make_state(5, source, policy)
              for source in (amps, amps.tolist(), (a for a in amps))]
    for state in states:
        assert state.amplitudes.dtype == np.complex128
        np.testing.assert_array_equal(state.amplitudes, states[0].amplitudes)


def test_make_state_does_not_alias_an_ndarray_input():
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = 1.0
    state = make_state(2, amps)
    amps[0] = 0.5
    assert state.amplitudes[0] == 1.0


def test_make_state_rejects_a_zero_dimensional_array():
    # one amplitude is never 2**n of them; list() of a 0-d array raised TypeError
    with pytest.raises(DimensionError):
        make_state(1, np.array(1.0 + 0j))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("modulus", [1e-320, 5e-324])
def test_make_state_renormalizes_subnormal_amplitudes(modulus):
    # 1/modulus overflows, so the parts must be divided by the modulus itself
    state = make_state(2, [modulus, 0, 0, -1j * modulus], "renormalize")
    np.testing.assert_allclose(state.amplitudes, [0.5**0.5, 0, 0, -1j * 0.5**0.5], atol=1e-16)


def test_make_state_renormalizes_a_strided_array():
    amps = np.arange(1, 9, dtype=np.complex128)[::2]
    state = make_state(2, amps, "renormalize")
    np.testing.assert_allclose(state.amplitudes, amps / np.linalg.norm(amps), rtol=1e-15)


def test_make_state_zero_vector():
    with pytest.raises(DegenerateStateError):
        make_state(2, [0, 0, 0, 0], "renormalize")


@pytest.mark.parametrize("policy", ["strict", "renormalize"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_make_state_rejects_non_finite(policy, bad):
    with pytest.raises(NormalizationError):
        make_state(1, [bad, 0], policy)


def test_pure_state_rejects_non_finite():
    with pytest.raises(NormalizationError):
        PureState(1, np.array([np.nan, 0]))


def test_state_json_rejects_boolean_n():
    with pytest.raises(FormatError):
        state_from_json_dict({"n": True, "amplitudes": [[1, 0], [0, 0]]})


def test_make_state_strict_norm_violation():
    with pytest.raises(NormalizationError):
        make_state(2, [1, 1, 0, 0], "strict")


def test_make_state_unknown_policy():
    with pytest.raises(ValueError):
        make_state(2, [1, 0, 0, 0], "sloppy")


@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_renormalize_gives_unit_norm(values):
    if np.linalg.norm(values) == 0.0:  # zero or squared-underflow: degenerate
        return
    state = make_state(2, values, "renormalize")
    assert abs(state.norm() - 1.0) < 1e-12


def test_pure_state_immutable():
    state = catalog_state("hs", "omega")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_has_eleven_entries():
    assert len(CATALOG) == 11
    assert len(catalog_names()) == 11


@pytest.mark.parametrize("full_name", [
    "eq7/uniform", "hs/omega", "eq9/uniform", "yc/phases", "yc/signs",
    "eq11/uniform", "cluster/sign", "cluster/phase", "eq13/uniform",
    "brown/phases", "brown/signs",
])
def test_catalog_normalized_exactly(full_name):
    name, variant = full_name.split("/")
    state = catalog_state(name, variant)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-15


def test_catalog_hs_amplitudes():
    state = catalog_state("hs", "omega")
    assert abs(state.amplitudes[3] - S6) < 1e-15
    assert abs(state.amplitudes[5] - OMEGA * S6) < 1e-15
    assert abs(state.amplitudes[9] - OMEGA**2 * S6) < 1e-15
    assert abs(state.amplitudes[12] - S6) < 1e-15


def test_catalog_cluster_sign_amplitudes():
    state = catalog_state("cluster", "sign")
    expected = np.zeros(16, complex)
    expected[[0, 5, 10]] = 0.5
    expected[15] = -0.5
    np.testing.assert_array_equal(state.amplitudes, expected)


def test_catalog_eq13_support():
    state = catalog_state("eq13", "uniform")
    support = np.flatnonzero(state.amplitudes)
    np.testing.assert_array_equal(support, [0, 3, 6, 11, 13, 14])
    np.testing.assert_allclose(state.amplitudes[support], S6, atol=1e-15)


def test_catalog_miss():
    with pytest.raises(CatalogMissError):
        catalog_state("hs", "nope")


# ---------------------------------------------------------------------------
# local unitaries
# ---------------------------------------------------------------------------


def test_local_unitary_identity():
    state = make_state(4, [1] + [0] * 15)
    out = apply_local_unitary(state, 1, np.eye(2))
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_local_unitary_bit_flip_least_significant_qubit():
    state = make_state(4, [1] + [0] * 15)
    out = apply_local_unitary(state, 4, np.array([[0, 1], [1, 0]]))
    assert out.amplitudes[1] == 1  # |0000> -> |0001>
    assert np.sum(np.abs(out.amplitudes)) == 1


def test_local_unitary_preserves_potential():
    rng = np.random.default_rng(11)
    state = catalog_state("hs", "omega")
    reference = pi_me(state)
    for qubit in range(1, 5):
        rotated = apply_local_unitary(state, qubit, random_unitary(rng))
        assert abs(pi_me(rotated) - reference) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_local_unitary_norm_and_inverse(seed, qubit):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    u = random_unitary(rng)
    rotated = apply_local_unitary(state, qubit, u)
    assert abs(rotated.norm() - 1.0) < 1e-12
    back = apply_local_unitary(rotated, qubit, u.conj().T)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_local_unitary_rejects_non_unitary():
    state = make_state(2, [1, 0, 0, 0])
    with pytest.raises(NonUnitaryError):
        apply_local_unitary(state, 1, np.array([[1, 1], [0, 1]]))


def test_local_unitary_rejects_bad_qubit():
    state = make_state(2, [1, 0, 0, 0])
    with pytest.raises(SubsetError):
        apply_local_unitary(state, 3, np.eye(2))


# ---------------------------------------------------------------------------
# JSON state files
# ---------------------------------------------------------------------------


def test_json_round_trip():
    rng = np.random.default_rng(5)
    state = random_state(3, rng)
    data = json.loads(json.dumps(state_to_json_dict(state)))
    back = state_from_json_dict(data)
    np.testing.assert_array_equal(back.amplitudes, state.amplitudes)


def test_json_renormalize_policy():
    data = {"n": 1, "amplitudes": [[3.0, 0.0], [4.0, 0.0]]}
    state = state_from_json_dict(data, "renormalize")
    np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=1e-15)


def test_json_malformed():
    from entpot.errors import FormatError

    with pytest.raises(FormatError):
        state_from_json_dict({"amplitudes": []})
    with pytest.raises(FormatError):
        state_from_json_dict({"n": 1, "amplitudes": [[0.0], [1.0]]})


@pytest.mark.parametrize("pairs", [
    ["10", "00"],             # a two-character string unpacks into two parts
    [["1", "0"], ["0", "0"]],
    [[10**400, 0], [0, 0]],   # an integer beyond the float range
])
def test_json_amplitudes_must_be_numbers(pairs):
    with pytest.raises(FormatError, match="pairs of numbers"):
        state_from_json_dict({"n": 1, "amplitudes": pairs}, "renormalize")


# ---------------------------------------------------------------------------
# Qubit cap: each check fires before an amplitude array is built
# ---------------------------------------------------------------------------


def test_too_many_qubits_rejected_before_allocation():
    with pytest.raises(DimensionError, match="limit of 14"):
        PureState(MAX_QUBITS + 1, np.ones(1))
    with pytest.raises(DimensionError, match="limit of 14"):
        make_state(MAX_QUBITS + 1, [1.0])
    with pytest.raises(DimensionError, match="limit of 14"):
        state_from_json_dict({"n": MAX_QUBITS + 1, "amplitudes": "never read"})
