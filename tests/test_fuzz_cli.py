"""Fuzzing of the CLI's input paths: any input ends in a documented exit code.

Inputs stay short. A free-form expression has at most 14 characters, so at
most 12 qubits; the token and tree grammars and the JSON states stop at 4
qubits, so no example builds a large state.
"""
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entpot.cli import run

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

KET_ALPHABET = "01|<>+-*/(). ^ijpiwsqrtexpconj2e"
KET_TOKENS = ("|0>", "|1>", "|01>", "|10>", "|11>", "|0110>", "+", "-", "*", "/",
              "(", ")", " ", "2", "0.5", "1e400", "i", "pi", "w", "sqrt(", "exp(", "conj(")
ket_trees = st.recursive(
    st.sampled_from(("|00>", "|01>", "|10>", "|11>", "2", "0", "i", "w", "1e400", "sqrt(2)")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(st.sampled_from(("sqrt", "exp", "conj", "-")), inner)
        .map(lambda t: f"{t[0]}({t[1]})"),
    ),
    max_leaves=6,
)
expressions = st.one_of(
    st.text(alphabet=KET_ALPHABET, max_size=14),
    st.lists(st.sampled_from(KET_TOKENS), max_size=10).map("".join),
    ket_trees,
)

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(), st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
amplitude = st.one_of(st.floats(-2, 2), st.floats(), json_scalars)
pairs = st.lists(st.lists(amplitude, min_size=2, max_size=2), max_size=17)
sized_states = st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    "amplitudes": st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                           min_size=1 << n, max_size=1 << n),
}))
json_texts = st.one_of(
    st.text(max_size=40),
    json_values.map(json.dumps),
    st.fixed_dictionaries({"n": st.one_of(st.integers(-1, 16), json_values),
                           "amplitudes": st.one_of(pairs, json_values)}).map(json.dumps),
    sized_states.map(json.dumps),
)
renormalize = st.sampled_from([[], ["--renormalize"]])


def assert_documented_exit(code, capsys):
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert "Traceback" not in err


@SETTINGS
@given(expressions, renormalize)
def test_fuzz_expr(capsys, text, flags):
    # --expr=TEXT keeps an expression that starts with '-' from reading as a flag
    assert_documented_exit(run(["analyze", f"--expr={text}", *flags]), capsys)


@SETTINGS
@given(json_texts, renormalize)
def test_fuzz_json_file(tmp_path, capsys, text, flags):
    path = tmp_path / "state.json"
    path.write_text(text, encoding="utf-8")
    assert_documented_exit(run(["analyze", "--file", str(path), *flags]), capsys)
