import numpy as np
import pytest

from entpot.closed_form import pair_purities
from entpot.errors import ArityError, ConfigError
from entpot.potential import BipartitionReport, analyze, pi_me
from entpot.qstate import apply_local_unitary, catalog_state, make_state, random_state

from helpers import permute_qubits, random_unitary


def test_pi_me_product_state():
    assert pi_me(make_state(4, [1] + [0] * 15)) == 1.0


def test_pi_me_hs():
    assert abs(pi_me(catalog_state("hs", "omega")) - 1 / 3) < 1e-12


def test_pi_me_eq7_uniform():
    assert abs(pi_me(catalog_state("eq7", "uniform")) - 0.5) < 1e-12


def test_pi_me_single_qubit_rejected():
    with pytest.raises(ArityError):
        pi_me(make_state(1, [1, 0]))


def test_analyze_hs_is_mmes():
    report = analyze(catalog_state("hs", "omega"), 1e-8)
    assert report.verdict == "mmes"
    assert abs(report.k_total) < 1e-12
    assert abs(report.pi_me - 1 / 3) < 1e-12


def test_analyze_eq9_not_mmes():
    report = analyze(catalog_state("eq9", "uniform"), 1e-8)
    assert report.verdict == "not_mmes"
    assert abs(report.k_total - 1.0) < 1e-12


def test_analyze_brown_signs_is_mmes():
    report = analyze(catalog_state("brown", "signs"), 1e-8)
    assert report.verdict == "mmes"
    assert abs(report.k_total) < 1e-12


def test_report_mean_invariant():
    rng = np.random.default_rng(53)
    for n in (2, 3, 4, 5):
        report = analyze(random_state(n, rng))
        assert abs(report.pi_me - np.mean(list(report.purities.values()))) < 1e-12


def test_report_consistent_with_closed_forms():
    rng = np.random.default_rng(59)
    state = random_state(4, rng)
    report = analyze(state)
    closed = pair_purities(state).as_dict()
    for subset, value in report.purities.items():
        assert abs(value - closed[subset]) < 1e-12


def test_local_unitary_invariance():
    rng = np.random.default_rng(61)
    for _ in range(50):
        state = random_state(4, rng)
        reference = pi_me(state)
        rotated = state
        for qubit in range(1, 5):
            rotated = apply_local_unitary(rotated, qubit, random_unitary(rng))
        assert abs(pi_me(rotated) - reference) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relabeling_invariance(n):
    rng = np.random.default_rng(67 + n)
    state = random_state(n, rng)
    perm = tuple(rng.permutation(np.arange(1, n + 1)).tolist())
    permuted = permute_qubits(state, perm)
    assert abs(pi_me(permuted) - pi_me(state)) < 1e-12
    original = analyze(state).purities
    relabeled = analyze(permuted).purities
    for subset, value in original.items():
        image = tuple(sorted(perm[q - 1] for q in subset))
        assert abs(relabeled[image] - value) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_non_four_qubit_report_has_no_criterion(n):
    rng = np.random.default_rng(71)
    report = analyze(random_state(n, rng))
    assert report.k1 is None and report.k2 is None and report.k_total is None
    assert report.verdict == "not_claimed"
    assert report.note is not None and f"n={n}" in report.note


def test_json_schema():
    report = analyze(catalog_state("yc", "signs"))
    data = report.to_json_dict()
    assert set(data) == {"n", "purities", "pi_me", "k1", "k2", "k_total", "verdict", "tol"}
    assert set(data["purities"]) == {"12", "13", "14", "23", "24", "34"}
    assert data["verdict"] == "mmes"

    rng = np.random.default_rng(73)
    data3 = analyze(random_state(3, rng)).to_json_dict()
    assert set(data3) == {"n", "purities", "pi_me", "verdict", "tol", "note"}
    assert set(data3["purities"]) == {"1", "2", "3"}

    data5 = analyze(random_state(5, rng)).to_json_dict()
    assert set(data5) == {"n", "purities", "pi_me", "verdict", "tol", "note"}
    assert len(data5["purities"]) == 10 and "12" in data5["purities"]
    assert data5["verdict"] == "not_claimed" and "n=5" in data5["note"]


def test_bad_tolerance():
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            analyze(catalog_state("hs", "omega"), tol)


@pytest.mark.parametrize("tol", ["1e-8", 10**400, None, True, 1j, [1e-8], -1, np.float64(-1e-8)],
                         ids=["str", "int-above-float", "none", "bool", "complex", "list",
                              "negative-int", "negative-numpy"])
def test_mistyped_tolerance_raises_config_error(tol):
    with pytest.raises(ConfigError, match="tolerance must be a finite positive float"):
        analyze(catalog_state("hs", "omega"), tol)


@pytest.mark.parametrize("tol", [1, np.int64(1), np.float32(1e-3), 1e-8])
def test_integer_and_numpy_tolerances_are_accepted(tol):
    report = analyze(catalog_state("hs", "omega"), tol)
    assert report.verdict == "mmes" and report.tol == tol


def test_report_is_dataclass_with_expected_fields():
    report = analyze(catalog_state("hs", "omega"))
    assert isinstance(report, BipartitionReport)
    assert report.n_qubits == 4
    assert report.tol == 1e-8
