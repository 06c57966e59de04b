import csv
import dataclasses
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from entpot import mmes_search
from entpot.errors import (ConfigError, DegenerateStateError, DimensionError, EntpotError,
                           FormatError, NormalizationError)
from entpot.mmes_search import (
    MinimizeConfig,
    encode_state,
    export_trace_csv,
    gradient,
    minimize_potential,
    objective,
    value_and_gradient,
)
from entpot.potential import pi_me
from entpot.qstate import MAX_QUBITS, catalog_state, random_state
from entpot.reduction import balanced_index


def finite_difference(point, h=1e-5):
    fd = np.empty_like(point)
    for k in range(point.size):
        up, down = point.copy(), point.copy()
        up[k] += h
        down[k] -= h
        fd[k] = (objective(up) - objective(down)) / (2 * h)
    return fd


def test_objective_basis_state():
    point = np.zeros(32)
    point[0] = 1.0
    assert objective(point) == 1.0


def test_objective_hs_encoding():
    point = encode_state(catalog_state("hs", "omega"))
    assert abs(objective(point) - 1 / 3) < 1e-12


def test_objective_scale_invariance():
    point = encode_state(catalog_state("hs", "omega"))
    assert abs(objective(2.0 * point) - objective(point)) < 1e-15


def test_objective_rejects_zero_and_bad_shapes():
    with pytest.raises(DegenerateStateError):
        objective(np.zeros(32))
    with pytest.raises(DimensionError):
        objective(np.ones(12))
    with pytest.raises(DimensionError):
        objective(np.ones(4))  # n=1 has no balanced bipartition


def test_gradient_orthogonal_to_point():
    """Euler relation for a degree-0 homogeneous objective."""
    rng = np.random.default_rng(89)
    for n in (2, 3, 4):
        point = rng.standard_normal(1 << (n + 1))
        assert abs(gradient(point) @ point) < 1e-12


def test_gradient_vanishes_at_basis_state():
    point = np.zeros(32)
    point[0] = 1.0
    grad = gradient(point)
    assert abs(grad @ point) < 1e-14


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(97)
    for n in (2, 3, 4):
        for _ in range(5):
            point = rng.standard_normal(1 << (n + 1))
            fd = finite_difference(point)
            g = gradient(point)
            assert np.linalg.norm(fd - g) / max(np.linalg.norm(fd), 1e-12) < 1e-5


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_value_and_gradient_matches_separate_calls(n):
    rng = np.random.default_rng(131 + n)
    point = rng.standard_normal(1 << (n + 1))
    value, grad = value_and_gradient(point)
    assert value == objective(point)
    np.testing.assert_array_equal(grad, gradient(point))


@pytest.mark.parametrize("n", [5, 6])
def test_gradient_matches_finite_differences_larger_n(n):
    rng = np.random.default_rng(97 + n)
    for _ in range(2):
        point = rng.standard_normal(1 << (n + 1))
        fd = finite_difference(point)
        g = gradient(point)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(fd), 1e-12) < 1e-5


def test_minimizer_rejects_points_above_the_cached_index_before_allocating():
    # n = 11 and 14 (2^12 and 2^15 floats): above the cached gather index,
    # the minimizer's limit; analyze and pi_me still take such states
    points = [np.random.default_rng(211).standard_normal(1 << 12), np.ones(1 << 15)]
    tracemalloc.start()
    try:
        for point in points:
            for function in (objective, gradient, value_and_gradient):
                with pytest.raises(DimensionError, match=r"2\.\.10.*analyze or pi_me"):
                    function(point)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_config_above_the_cached_index_is_rejected_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"2\.\.10, got 11; analyze or pi_me"):
            MinimizeConfig(n_qubits=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("point, error, message", [
    (np.full(32, np.nan), NormalizationError, "non-finite"),
    (np.full(32, np.inf), NormalizationError, "non-finite"),
    (np.r_[np.inf, np.zeros(31)], NormalizationError, "non-finite"),
    (np.r_[1e-200, np.zeros(31)], NormalizationError, "underflows"),
    (np.r_[1e-160, np.zeros(31)], NormalizationError, "underflows"),
    (np.full(32, 1e200), NormalizationError, "overflows"),
    (np.full(32, 1e160), NormalizationError, "overflows"),
    (np.zeros(32), DegenerateStateError, "zero point"),
], ids=["nan", "inf", "one-inf", "underflow", "fourth-power-underflow", "overflow",
        "fourth-power-overflow", "zero"])
def test_points_without_a_float64_value_are_rejected(point, error, message):
    for function in (objective, gradient, value_and_gradient):
        with pytest.raises(error, match=message):
            function(point)


@pytest.mark.parametrize("point", [
    np.exp(1j * np.arange(32)),
    np.exp(1j * np.arange(32)).real.astype(complex),  # real values, complex dtype
    np.ones(32, dtype=bool),
    ["0.5"] * 32,
    np.full(32, 0.5, dtype=object),
], ids=["complex", "complex-dtype", "bool", "str", "object"])
def test_points_that_are_not_real_numbers_are_rejected(point):
    for function in (objective, gradient, value_and_gradient):
        with pytest.raises(FormatError, match=r"real numbers.*encode_state") as info:
            function(point)
        assert isinstance(info.value, EntpotError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("point", [[[1.0] * 16, [1.0] * 15], [1.0] * 15 + [[1.0, 2.0]]],
                         ids=["ragged-rows", "nested-entry"])
def test_ragged_points_raise_dimension_error(point):
    for function in (objective, gradient, value_and_gradient):
        with pytest.raises(DimensionError, match="flat sequence of 2"):
            function(point)


@pytest.mark.parametrize("point", [np.arange(1, 33), list(range(1, 33)),
                                   np.arange(1, 33, dtype=np.uint8),
                                   np.arange(1, 33, dtype=np.float32)],
                         ids=["int", "list", "uint8", "float32"])
def test_integer_and_float_points_keep_working(point):
    expected = np.arange(1, 33, dtype=np.float64)
    assert objective(point) == objective(expected)
    np.testing.assert_array_equal(gradient(point), gradient(expected))


@pytest.mark.parametrize("scale", [2.0**-250, 2.0**250])
def test_objective_and_gradient_hold_at_extreme_scales(scale):
    rng = np.random.default_rng(223)
    point = rng.standard_normal(32)
    value, grad = value_and_gradient(scale * point)
    assert abs(value - objective(point)) < 1e-14
    np.testing.assert_allclose(scale * grad, gradient(point), rtol=1e-12, atol=1e-15)


def test_gradient_stationary_at_hs():
    point = encode_state(catalog_state("hs", "omega"))
    assert np.linalg.norm(gradient(point)) < 1e-8


# ---------------------------------------------------------------------------
# minimize_potential
# ---------------------------------------------------------------------------


def test_minimize_two_qubits_reaches_bell_floor():
    result = minimize_potential(MinimizeConfig(n_qubits=2, restarts=5, seed=3))
    assert abs(result.best_value - 0.5) < 1e-9


def test_minimize_three_qubits_reaches_ghz_floor():
    # grid/GHZ marginals argument puts the floor at 1/2; verified by the
    # oracle through pi_me below
    result = minimize_potential(MinimizeConfig(n_qubits=3, restarts=10, seed=3))
    assert abs(result.best_value - 0.5) < 1e-6
    assert abs(pi_me(result.best_state) - result.best_value) < 1e-12


def test_minimize_four_qubits_respects_lower_bound():
    result = minimize_potential(MinimizeConfig(n_qubits=4, restarts=5, seed=9))
    assert result.best_value >= 1 / 3 - 1e-9


def test_determinism():
    config = MinimizeConfig(n_qubits=3, restarts=4, seed=1234)
    a = minimize_potential(config)
    b = minimize_potential(config)
    assert a.best_value == b.best_value
    assert a.best_restart == b.best_restart
    assert a.traces == b.traces
    np.testing.assert_array_equal(a.best_state.amplitudes, b.best_state.amplitudes)


def test_traces_monotone_for_projected_gradient():
    result = minimize_potential(MinimizeConfig(n_qubits=4, restarts=3, seed=5))
    for trace in result.traces:
        values = [v for _, v in trace]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_minimize_four_qubits_every_restart_reaches_one_third():
    result = minimize_potential(MinimizeConfig(n_qubits=4, restarts=20, seed=0))
    assert all(abs(v - 1 / 3) < 1e-9 for v in result.final_values)


@pytest.mark.parametrize("n, restarts", [(2, 5), (3, 10)])
def test_small_n_restarts_take_few_iterations(n, restarts):
    result = minimize_potential(MinimizeConfig(n_qubits=n, restarts=restarts, seed=3))
    assert all(trace[-1][0] <= 100 for trace in result.traces)


def test_best_value_consistency():
    result = minimize_potential(MinimizeConfig(n_qubits=4, restarts=4, seed=21))
    assert abs(result.best_value - pi_me(result.best_state)) < 1e-12
    assert abs(result.best_state.norm() - 1.0) < 1e-12
    assert all(result.best_value <= v + 1e-15 for v in result.final_values)
    assert result.seed == 21


def test_config_validation():
    with pytest.raises(ConfigError):
        MinimizeConfig(n_qubits=1)
    with pytest.raises(ConfigError):
        MinimizeConfig(n_qubits=4, restarts=0)
    with pytest.raises(ConfigError, match="2..10"):
        MinimizeConfig(n_qubits=MAX_QUBITS + 1)
    # The stop rules are module constants, not per-call settings.
    assert [f.name for f in dataclasses.fields(MinimizeConfig)] == ["n_qubits", "restarts", "seed"]
    with pytest.raises(TypeError):
        MinimizeConfig(n_qubits=4, max_iters=10)


@pytest.mark.parametrize("field, value", [
    ("n_qubits", 4.0), ("n_qubits", 4.5), ("n_qubits", "4"), ("n_qubits", True),
    ("restarts", 2.5), ("restarts", np.float64(2)), ("restarts", True),
    ("seed", 1.5), ("seed", "0"), ("seed", None), ("seed", np.True_),
])
def test_mistyped_config_raises_config_error(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        MinimizeConfig(**{"n_qubits": 4, field: value})


def test_numpy_integer_config_matches_python_ints():
    config = MinimizeConfig(n_qubits=np.int64(3), restarts=np.uint8(2), seed=np.int64(-5))
    assert config == MinimizeConfig(n_qubits=3, restarts=2, seed=-5)
    assert all(type(getattr(config, f.name)) is int for f in dataclasses.fields(config))
    a = minimize_potential(config)
    b = minimize_potential(MinimizeConfig(n_qubits=3, restarts=2, seed=-5))
    assert a.best_value == b.best_value and a.traces == b.traces


def test_iteration_cap_leaves_restarts_unconverged(monkeypatch):
    monkeypatch.setattr(mmes_search, "MAX_ITERS", 1)
    result = minimize_potential(MinimizeConfig(n_qubits=4, restarts=3, seed=0))
    assert result.converged == [False, False, False]
    assert result.stop_reasons == ["max_iters"] * 3
    assert [len(t) for t in result.traces] == [2, 2, 2]


def test_trace_csv_export(tmp_path):
    result = minimize_potential(MinimizeConfig(n_qubits=2, restarts=2, seed=8))
    path = tmp_path / "trace.csv"
    export_trace_csv(result, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["restart", "iteration", "value"]
    assert len(rows) - 1 == sum(len(t) for t in result.traces)
    restarts = {int(r) for r, _, _ in rows[1:]}
    assert restarts == {0, 1}


def test_descent_from_hs_stops_on_grad_tol():
    point = encode_state(catalog_state("hs", "omega"))
    _, (restart,) = mmes_search._descend(point[None])
    value, trace, reason, evaluations = (restart.value, restart.trace, restart.reason,
                                         restart.evaluations)
    assert reason == "grad_tol"
    assert evaluations == 1 and trace == [(0, value)]
    assert abs(value - 1 / 3) < 1e-15


@pytest.mark.parametrize("n, restarts, checked", [
    (2, 6, range(6)), (3, 6, range(6)), (4, 6, range(6)), (5, 6, range(6)),
    # one pass holds 25 points at n = 6, so restart 25 runs in a second pass
    (6, 26, (0, 1, 24, 25)),
])
def test_scheduling_cannot_change_a_restart(n, restarts, checked):
    full = minimize_potential(MinimizeConfig(n_qubits=n, restarts=restarts, seed=11))
    # its restarts stop on different rounds
    assert len(set(full.evaluations)) > 1
    if n == 6:
        assert len(mmes_search._work(n, restarts).points) < restarts
    for r in checked:
        alone = minimize_potential(MinimizeConfig(n_qubits=n, restarts=r + 1, seed=11))
        assert alone.traces[r] == full.traces[r]
        assert alone.stop_reasons[r] == full.stop_reasons[r]
        assert alone.evaluations[r] == full.evaluations[r]


def test_threads_share_no_work_buffer():
    configs = [MinimizeConfig(n_qubits=n, restarts=r, seed=3) for n, r in
               ((4, 20), (6, 4), (8, 1), (5, 7), (4, 3), (6, 26))]
    alone = [minimize_potential(config) for config in configs]
    with ThreadPoolExecutor(max_workers=3) as pool:
        together = list(pool.map(minimize_potential, configs))
    for a, b in zip(alone, together):
        assert a.traces == b.traces and a.evaluations == b.evaluations
        np.testing.assert_array_equal(a.best_state.amplitudes, b.best_state.amplitudes)


def direction(s, y, g, fresh=False):
    """``_directions`` of one row [s; y; g]: d, its slope g.d and g.g."""
    out = np.empty((1, len(g)))
    slopes, g_sqs = mmes_search._directions(np.stack([s, y, g])[None], [fresh],
                                            np.empty((1, 2, 3)), out)
    return out[0], slopes[0], g_sqs[0]


@pytest.mark.parametrize("n", range(2, 7))
def test_direction_is_the_dense_memoryless_bfgs_step(n):
    rng = np.random.default_rng(401 + n)
    eye = np.eye(2 << n)
    for _ in range(4):
        s, y, g = rng.standard_normal((3, 2 << n))
        y *= np.sign(s @ y) * rng.uniform(0.1, 10)  # s.y > 0 and gamma away from 1
        rho, gamma = 1 / (s @ y), (s @ y) / (y @ y)
        h = ((eye - rho * np.outer(s, y)) @ (gamma * eye) @ (eye - rho * np.outer(y, s))
             + rho * np.outer(s, s))
        expected = -h @ g
        d, slope, g_sq = direction(s, y, g)
        assert np.linalg.norm(d - expected) <= 1e-12 * np.linalg.norm(expected)
        assert abs(slope - g @ expected) <= 1e-12 * abs(g @ expected) and slope < 0
        assert abs(g_sq - g @ g) <= 1e-12 * (g @ g)


def test_direction_falls_back_to_minus_the_gradient():
    rng = np.random.default_rng(409)
    s, y, g = rng.standard_normal((3, 32))
    y *= np.sign(s @ y)
    assert not np.array_equal(direction(s, y, g)[0], -g)
    split = np.r_[np.ones(16), np.zeros(16)]
    cases = [
        (s, y, g, True),  # a restart's first move: s and y are no move
        (s, -y, g, False),  # s.y < 0
        (s * split, y * (1 - split), g, False),  # s.y == 0
        # g.g and every product with g underflow, so g.d >= 0 as computed
        (s, y, 1e-200 * g, False),
    ]
    for s_, y_, g_, fresh in cases:
        d, slope, g_sq = direction(s_, y_, g_, fresh)
        np.testing.assert_array_equal(d, -g_)
        assert slope == -g_sq


def test_an_eight_qubit_job_stays_within_its_value_pass_budget():
    # 811 value passes with the Barzilai-Borwein step this replaced
    result = minimize_potential(MinimizeConfig(n_qubits=8, restarts=2, seed=0))
    assert sum(result.evaluations) <= 400


@pytest.mark.parametrize("n", range(2, 11))
def test_spread_inverts_the_gather(n):
    gather, spread = mmes_search._tables(n)
    np.testing.assert_array_equal(gather, balanced_index(n))
    subsets, dim = len(gather), 1 << n
    # entry i of row s of the spread is the place, among the S blocks of a
    # point, of amplitude i in block s
    assert spread.shape == (subsets, dim)
    rows, columns = np.indices((subsets, dim))
    np.testing.assert_array_equal(spread >> n, rows)
    np.testing.assert_array_equal(gather.ravel()[spread], columns)


def test_stop_reasons_and_evaluations_per_restart():
    result = minimize_potential(MinimizeConfig(n_qubits=4, restarts=5, seed=2))
    assert len(result.stop_reasons) == len(result.evaluations) == 5
    assert set(result.stop_reasons) <= {"grad_tol", "step_tol", "ftol"}
    assert result.converged == [True] * 5
    # every accepted step and the start cost one value pass, rejected trials more
    assert all(e >= len(t) for e, t in zip(result.evaluations, result.traces))


@pytest.mark.parametrize("n", range(2, 9))
def test_objective_matches_oracle(n):
    state = random_state(n, np.random.default_rng(500 + n))
    assert abs(objective(encode_state(state)) - pi_me(state)) < 1e-14
