"""Fuzzing of the library's public calls: a mistyped argument raises an EntpotError.

Every ``entpot.__all__`` callable that takes numbers, sequences or text is
driven with wrong types in each such argument: a float for an int, bool,
str, None, complex, ragged lists, nan/inf and numpy scalars. A call must
raise the EntpotError subclass documented for that argument, never a raw
builtin or numpy exception, and must not return: a result would mean the
input was coerced. Valid integers, Python or numpy, give their result or
an EntpotError, the same for both. Arguments typed as entpot objects (a
PureState, a parsed AST, an rng) and the result records are out of scope.

Sizes stay small: counts are at most 20 and states at most 2 qubits, so
no example builds a large array.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpot import (
    CatalogMissError,
    ConfigError,
    DensityMatrix,
    DimensionError,
    EntpotError,
    FormatError,
    KetSyntaxError,
    MinimizeConfig,
    NonUnitaryError,
    NormalizationError,
    PureState,
    SubsetError,
    analyze,
    apply_local_unitary,
    balanced_subsets,
    catalog_state,
    eval_ket,
    format_ket,
    gradient,
    make_state,
    objective,
    parse_ket,
    purity,
    random_state,
    reduced_density,
)
from entpot.qstate import MAX_QUBITS

SETTINGS = settings(max_examples=60, deadline=None)

BELL = make_state(2, [2**-0.5, 0, 0, 2**-0.5])

numpy_scalars = st.sampled_from([np.float64(2.0), np.float32(1.0), np.bool_(True), np.bool_(False),
                                 np.complex128(1 + 0j), np.str_("2"), np.float64("nan")])
ragged_lists = st.lists(st.one_of(st.integers(0, 20), st.lists(st.integers(0, 20), max_size=2)),
                        min_size=1, max_size=3)
# anything but a Python or numpy integer
not_integers = st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none(),
                         st.complex_numbers(), ragged_lists, numpy_scalars)
# anything but text
not_text = st.one_of(st.integers(-5, 20), st.floats(), st.booleans(), st.none(),
                     st.complex_numbers(), ragged_lists,
                     numpy_scalars.filter(lambda v: not isinstance(v, str)))
# anything but a finite positive real number
not_tolerances = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan]),
                           st.booleans(), st.text(max_size=3), st.none(), st.complex_numbers(),
                           ragged_lists, st.sampled_from([np.bool_(True), np.complex128(1e-8),
                                                          np.str_("1e-8"), [1e-8]]))


def outcome(call, value):
    """What ``call(value)`` gives: its result, or the class of the EntpotError
    it raised. Any other exception fails the test."""
    try:
        result = call(value)
    except EntpotError as exc:
        return type(exc)
    if isinstance(result, PureState):
        return result.n_qubits, result.amplitudes.tobytes()
    if isinstance(result, DensityMatrix):
        return result.kept_qubits, result.entries.tobytes()
    return result


#: argument -> (call taking that argument, error a mistyped value raises)
INTEGER_ARGUMENTS = {
    "PureState.n_qubits": (lambda v: PureState(v, [1, 0]), DimensionError),
    "make_state.n_qubits": (lambda v: make_state(v, [1, 0]), DimensionError),
    "random_state.n_qubits": (lambda v: random_state(v, np.random.default_rng(0)), DimensionError),
    "balanced_subsets.n": (balanced_subsets, DimensionError),
    "apply_local_unitary.qubit": (lambda v: apply_local_unitary(BELL, v, np.eye(2)), SubsetError),
    "reduced_density.keep": (lambda v: reduced_density(BELL, [v]), SubsetError),
    "DensityMatrix.kept_qubits": (lambda v: DensityMatrix((v,), np.eye(2) / 2), SubsetError),
    "MinimizeConfig.n_qubits": (lambda v: MinimizeConfig(v), ConfigError),
    "MinimizeConfig.restarts": (lambda v: MinimizeConfig(2, v), ConfigError),
    "MinimizeConfig.seed": (lambda v: MinimizeConfig(2, 1, v), ConfigError),
    "format_ket.precision": (lambda v: format_ket(BELL, v), ConfigError),
}


@pytest.mark.parametrize("argument", list(INTEGER_ARGUMENTS))
@SETTINGS
@given(value=not_integers)
def test_mistyped_integer_arguments_raise_their_error(argument, value):
    call, error = INTEGER_ARGUMENTS[argument]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("argument", list(INTEGER_ARGUMENTS))
@SETTINGS
@given(value=st.integers(-3, 20), numpy_type=st.sampled_from([np.int16, np.int64]))
def test_numpy_integers_give_what_python_integers_give(argument, value, numpy_type):
    call, _ = INTEGER_ARGUMENTS[argument]
    assert outcome(call, numpy_type(value)) == outcome(call, value)


def test_balanced_subsets_rejects_counts_above_the_cap_before_listing():
    with pytest.raises(DimensionError, match="limit of 14"):
        balanced_subsets(MAX_QUBITS + 1)


def test_keep_sets_and_kept_qubits_must_be_iterable():
    for keep in (1, None, 2.5):
        with pytest.raises(SubsetError, match="kept qubits must be integers"):
            reduced_density(BELL, keep)
        with pytest.raises(SubsetError, match="kept qubits must be integers"):
            DensityMatrix(keep, np.eye(2) / 2)


# ---------------------------------------------------------------------------
# Arrays of numbers: one entry of a valid array is spoiled
# ---------------------------------------------------------------------------

KINDS = ("not a number", "ragged", "non-finite")
#: argument -> (call taking that argument whole, and the error of an entry of
#: each of KINDS; None where the call returns a float)
ARRAY_ARGUMENTS = {
    "PureState.amplitudes": (lambda v: PureState(2, v),
                             FormatError, FormatError, NormalizationError),
    "make_state.amplitudes": (lambda v: make_state(2, v, "renormalize"),
                              FormatError, FormatError, NormalizationError),
    "apply_local_unitary.u": (lambda v: apply_local_unitary(BELL, 1, v),
                              NonUnitaryError, NonUnitaryError, NonUnitaryError),
    "DensityMatrix.entries": (lambda v: DensityMatrix((1,), v),
                              SubsetError, SubsetError, SubsetError),
    "purity.rho": (purity, SubsetError, SubsetError, None),
    "objective.point": (objective, FormatError, DimensionError, NormalizationError),
    "gradient.point": (gradient, FormatError, DimensionError, NormalizationError),
}
#: the 2x2 matrices and the points of 8 reals; the amplitudes are 4 numbers
MATRICES = ("apply_local_unitary.u", "DensityMatrix.entries", "purity.rho")
POINTS = ("objective.point", "gradient.point")

not_numbers = st.one_of(st.text(max_size=3), st.none(), st.booleans(),
                        st.sampled_from([np.str_("1"), np.bool_(True), np.bool_(False), {}]))
spoilers = st.one_of(
    st.tuples(st.just("not a number"), not_numbers),
    st.tuples(st.just("ragged"), st.lists(st.floats(-2, 2), min_size=2, max_size=3)),
    st.tuples(st.just("non-finite"), st.sampled_from([math.nan, math.inf, -math.inf,
                                                      np.float64("nan"), np.float32("inf")])),
)
# a complex entry is no real number
real_spoilers = spoilers | st.tuples(st.just("not a number"),
                                     st.complex_numbers(max_magnitude=2).filter(lambda z: z.imag))


@pytest.mark.parametrize("argument", list(ARRAY_ARGUMENTS))
@SETTINGS
@given(data=st.data())
def test_arrays_with_a_spoiled_entry_raise_their_error(argument, data):
    size = 8 if argument in POINTS else 4
    entries = data.draw(st.lists(st.floats(-2, 2) | st.integers(-2, 2),
                                 min_size=size, max_size=size))
    kind, spoiler = data.draw(real_spoilers if argument in POINTS else spoilers)
    entries[data.draw(st.integers(0, size - 1))] = spoiler
    value = [entries[:2], entries[2:]] if argument in MATRICES else entries
    call, *errors = ARRAY_ARGUMENTS[argument]
    error = errors[KINDS.index(kind)]
    if error is None:
        assert isinstance(call(value), float)
    else:
        with pytest.raises(error):
            call(value)


@pytest.mark.parametrize("argument", list(ARRAY_ARGUMENTS))
@SETTINGS
@given(value=st.one_of(not_numbers, numpy_scalars.filter(lambda v: v.dtype.kind in "bU")))
def test_non_numbers_in_place_of_arrays_raise_their_error(argument, value):
    call, error, _, _ = ARRAY_ARGUMENTS[argument]
    with pytest.raises(error):
        call(value)


# purity takes any array of numbers, a 0-d one too
@pytest.mark.parametrize("argument", [a for a in ARRAY_ARGUMENTS if a != "purity.rho"])
@SETTINGS
@given(value=st.one_of(st.integers(-2, 2), st.floats(-2, 2),
                       numpy_scalars.filter(lambda v: v.dtype.kind == "f")))
def test_a_number_in_place_of_an_array_raises_an_entpot_error(argument, value):
    with pytest.raises(EntpotError):
        ARRAY_ARGUMENTS[argument][0](value)


# ---------------------------------------------------------------------------
# Text and real settings
# ---------------------------------------------------------------------------

TEXT_ARGUMENTS = {
    "parse_ket.text": (parse_ket, KetSyntaxError),
    "catalog_state.name": (lambda v: catalog_state(v, "omega"), CatalogMissError),
    "catalog_state.variant": (lambda v: catalog_state("hs", v), CatalogMissError),
    "make_state.normalize_policy": (lambda v: make_state(1, [1, 0], v), ConfigError),
    "eval_ket.normalize_policy": (lambda v: eval_ket(parse_ket("|0>"), v), ConfigError),
    "analyze.tol": (lambda v: analyze(BELL, v), ConfigError),
}


@pytest.mark.parametrize("argument", list(TEXT_ARGUMENTS))
@SETTINGS
@given(data=st.data())
def test_mistyped_text_and_tolerances_raise_their_error(argument, data):
    call, error = TEXT_ARGUMENTS[argument]
    value = data.draw(not_tolerances if argument == "analyze.tol" else not_text)
    with pytest.raises(error):
        call(value)
