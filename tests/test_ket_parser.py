import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entpot.errors import (
    ConfigError,
    DegenerateStateError,
    KetEvalError,
    KetSyntaxError,
    KetTypeError,
    KetWidthError,
    NormalizationError,
)
from entpot.ket_parser import (
    ComplexLiteral,
    FunctionCall,
    KetLiteral,
    Product,
    Sum,
    eval_ket,
    format_ket,
    load_ket_file,
    parse_ket,
    strip_ket_comments,
)
from entpot.qstate import MAX_QUBITS, catalog_state, random_state

HS_EXPR = "(|0011>+|1100>+w*(|0101>+|1010>)+w*w*(|0110>+|1001>))/sqrt(6)"


def test_parse_single_ket():
    ast = parse_ket("|0000>")
    assert isinstance(ast, KetLiteral)
    assert ast.bits == "0000"
    assert ast.span == (0, 6)


def test_parse_bell_like_expression():
    ast = parse_ket("(|0011>+|1100>)/sqrt(2)")
    assert isinstance(ast, Product)
    assert ast.ops == ("*", "/")
    pair, norm = ast.factors
    assert isinstance(pair, Sum)
    assert pair.signs == ("+", "+")
    assert pair.span == (0, 15)
    assert all(isinstance(term, KetLiteral) for term in pair.terms)
    assert isinstance(norm, FunctionCall)
    assert norm.func == "sqrt"


def test_eval_single_ket():
    state = eval_ket(parse_ket("|0011>"))
    assert state.n_qubits == 4
    assert state.amplitudes[3] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_hs_expression_matches_catalog():
    state = eval_ket(parse_ket(HS_EXPR))
    expected = catalog_state("hs", "omega")
    np.testing.assert_allclose(state.amplitudes, expected.amplitudes, atol=1e-15)


def test_cluster_sign_expression_matches_catalog():
    state = eval_ket(parse_ket("0.5*(|0000>+|0101>+|1010>-|1111>)"))
    np.testing.assert_array_equal(
        state.amplitudes, catalog_state("cluster", "sign").amplitudes
    )


def test_implicit_multiplication():
    explicit = eval_ket(parse_ket("(w*|0101>+|0000>)/sqrt(2)"))
    implicit = eval_ket(parse_ket("(w|0101>+|0000>)/sqrt(2)"))
    np.testing.assert_array_equal(explicit.amplitudes, implicit.amplitudes)


def test_exp_and_conj():
    a = eval_ket(parse_ket("exp(i*pi/4)*|0>+conj(exp(i*pi/4))*|1>"), "renormalize")
    phase = np.exp(1j * np.pi / 4) / np.sqrt(2)
    np.testing.assert_allclose(a.amplitudes, [phase, phase.conjugate()], atol=1e-15)


# ---------------------------------------------------------------------------
# formatting and round trips
# ---------------------------------------------------------------------------


def test_format_basis_state():
    state = eval_ket(parse_ket("|0000>"))
    assert format_ket(state) == "(1+0*i)*|0000>"


def test_format_cluster_sign():
    text = format_ket(catalog_state("cluster", "sign"))
    assert text.count("|") == 4
    assert "(-0.5+0*i)*|1111>" in text
    assert "(0.5+0*i)*|0000>" in text


@pytest.mark.parametrize("precision", ["3", -1, 2.5, True, None, np.float64(3)],
                         ids=["str", "negative", "float", "bool", "none", "numpy-float"])
def test_format_ket_rejects_a_precision_other_than_a_non_negative_integer(precision):
    with pytest.raises(ConfigError, match="precision must be"):
        format_ket(catalog_state("hs", "omega"), precision)


def test_round_trip_random_states():
    rng = np.random.default_rng(79)
    for _ in range(200):
        state = random_state(4, rng)
        back = eval_ket(parse_ket(format_ket(state, 17)), "strict")
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_round_trip_low_precision():
    rng = np.random.default_rng(83)
    state = random_state(3, rng)
    back = eval_ket(parse_ket(format_ket(state, 8)), "renormalize")
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_round_trip_property(seed, n):
    state = random_state(n, np.random.default_rng(seed))
    back = eval_ket(parse_ket(format_ket(state, 17)), "strict")
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


@pytest.mark.parametrize("n", [10, MAX_QUBITS])
def test_round_trip_every_basis_term(n):
    """2^n terms in one flat chain: parse and evaluate without deep recursion."""
    state = random_state(n, np.random.default_rng(n))
    back = eval_ket(parse_ket(format_ket(state)), "strict")
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


# ---------------------------------------------------------------------------
# errors and totality
# ---------------------------------------------------------------------------


def test_width_mismatch():
    with pytest.raises(KetWidthError) as err:
        parse_ket("|01>+|0011>")
    assert err.value.span == (5, 11)


def test_width_mismatch_at_the_end_of_a_long_sum():
    text = "+".join(["|00>"] * 1999 + ["|000>"])
    with pytest.raises(KetWidthError) as err:
        parse_ket(text)
    assert err.value.span == (len(text) - 5, len(text))


def test_width_mismatch_spans_the_ket_inside_parentheses():
    with pytest.raises(KetWidthError) as err:
        parse_ket("|0>+(|00>)")
    assert err.value.span == (5, 9)


@pytest.mark.parametrize("text,span", [
    ("+".join(["|0>"] * 2000) + "+2", None),
    ("(|0>+2+|0>)", (1, 6)),
    ("(|0>+|0>+2)", (0, 11)),
    ("(2*|0>*|0>/2)", (1, 10)),
    ("(|0>/2/|0>)", (0, 11)),
    ("(|0>/(1-1)*2)", (1, 10)),
])
def test_chain_error_spans_the_chain_up_to_the_failing_element(text, span):
    """The span runs from the chain's start through the failing element;
    at the last element it is the whole chain, parentheses included."""
    with pytest.raises((KetTypeError, KetEvalError)) as err:
        eval_ket(parse_ket(text))
    assert err.value.span == (span or (0, len(text)))


@pytest.mark.parametrize("text", [
    "", "   ", "|>", "|01", "|012>", "(|00>", "foo", "sqrt 2", "2**3",
    "|00> |11> +", "1 +", ")", "@",
])
def test_syntax_errors(text):
    with pytest.raises(KetSyntaxError):
        parse_ket(text)


@pytest.mark.parametrize("text", [5, None, b"|0>", ["|0>"]], ids=["int", "none", "bytes", "list"])
def test_text_that_is_not_a_str_is_a_syntax_error(text):
    with pytest.raises(KetSyntaxError, match="expected ket text") as err:
        parse_ket(text)
    assert err.value.span == (0, 0)


def _assert_syntax_error(text, message, span):
    with pytest.raises(KetSyntaxError) as err:
        parse_ket(text)
    assert type(err.value) is KetSyntaxError
    assert str(err.value) == f"{message} (at {span[0]}..{span[1]})"
    assert err.value.span == span


@pytest.mark.parametrize("text,span", [
    ("٣|0>", (0, 1)),   # ARABIC-INDIC DIGIT THREE: float() reads it as 3
    ("１|0>", (0, 1)),   # FULLWIDTH DIGIT ONE
    ("ｉ|0>", (0, 1)),   # FULLWIDTH LATIN SMALL LETTER I
    ("|0>²", (3, 4)),   # SUPERSCRIPT TWO: str.isdigit accepts it
])
def test_unicode_lookalikes_are_illegal_characters(text, span):
    _assert_syntax_error(text, f"illegal character {text[span[0]]!r}", span)


@pytest.mark.parametrize("space", ["\xa0", "\u2028", "\x1c"])
def test_unicode_whitespace_between_terms_is_skipped(space):
    text = f"{space}|0>{space}+{space}2{space}|1>{space}"
    ast = parse_ket(text)
    assert isinstance(ast, Sum)
    assert ast == parse_ket(text.replace(space, " "))


@pytest.mark.parametrize("text,name,span", [
    ("1e|0>", "e", (1, 2)),      # no exponent digits: the 'e' is an identifier
    ("1e+|0>", "e", (1, 2)),
    ("1e5e|0>", "e", (3, 4)),
])
def test_exponent_without_digits_leaves_an_identifier(text, name, span):
    _assert_syntax_error(text, f"unknown identifier {name!r}", span)


@pytest.mark.parametrize("text,value,end", [
    ("1.e1|0>", 10.0, 4),
    (".5|0>", 0.5, 2),
    ("5.|0>", 5.0, 2),
])
def test_number_forms(text, value, end):
    assert parse_ket(text) == Product(
        (ComplexLiteral(value, (0, end)), KetLiteral("0", (end, end + 3))),
        ("*", "*"),
        (0, end + 3),
    )


def test_two_dots_split_into_two_numbers():
    assert parse_ket("1..2") == Product(
        (ComplexLiteral(1.0, (0, 2)), ComplexLiteral(0.2, (2, 4))), ("*", "*"), (0, 4)
    )


@pytest.mark.parametrize("text,message,span", [
    ("|", "expected bits after '|'", (0, 1)),
    ("|>", "expected bits after '|'", (0, 1)),
    ("|01", "unterminated ket, expected '>'", (0, 3)),
    ("|012>", "unterminated ket, expected '>'", (0, 3)),
    ("|0 1>", "unterminated ket, expected '>'", (0, 2)),
])
def test_ket_lexing_errors(text, message, span):
    _assert_syntax_error(text, message, span)


def test_deep_nesting_is_rejected_not_crashing():
    with pytest.raises(KetSyntaxError):
        parse_ket("(" * 5000 + "1" + ")" * 5000)


@pytest.mark.parametrize("text,err", [
    ("|00>+2", KetTypeError),
    ("2+|00>", KetTypeError),
    ("|00>*|00>", KetTypeError),
    ("|00>/|00>", KetTypeError),
    ("sqrt(|00>)", KetTypeError),
    ("1+1", KetTypeError),          # scalar result, not a state
    ("|00>/0", KetEvalError),
    ("|00>/(2-2)", KetEvalError),
])
def test_eval_errors(text, err):
    with pytest.raises(err):
        eval_ket(parse_ket(text))


def test_eval_normalization_policy():
    ast = parse_ket("|00>+|11>")
    with pytest.raises(NormalizationError):
        eval_ket(ast, "strict")
    state = eval_ket(ast, "renormalize")
    assert abs(state.amplitudes[0] - 1 / np.sqrt(2)) < 1e-15


def test_eval_zero_state():
    with pytest.raises(DegenerateStateError):
        eval_ket(parse_ket("0*|00>"), "renormalize")



def test_ket_wider_than_the_cap_rejected_before_evaluation():
    text = "(|" + "0" * MAX_QUBITS + ">+|" + "1" * (MAX_QUBITS + 1) + ">)"
    with pytest.raises(KetWidthError, match="limit of 14") as err:
        parse_ket(text)
    assert err.value.span == (MAX_QUBITS + 4, len(text) - 1)
    parse_ket("|" + "0" * MAX_QUBITS + ">")  # at the cap: parsed, not evaluated

@settings(max_examples=500, deadline=None)
@given(st.text(max_size=40))
def test_parser_totality(text):
    """Arbitrary input either parses or raises a span-carrying syntax error."""
    try:
        parse_ket(text)
    except KetSyntaxError as err:
        start, end = err.span
        assert 0 <= start <= end <= max(len(text), 1)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="01|><+-*/(). spiwconvexjqrt", max_size=60))
def test_parser_totality_grammar_alphabet(text):
    try:
        parse_ket(text)
    except KetSyntaxError:
        pass


# ---------------------------------------------------------------------------
# .ket files
# ---------------------------------------------------------------------------


def test_strip_comments_preserves_offsets():
    text = "# header\n(|00>+|11>)  # trailing\n/sqrt(2)\n"
    stripped = strip_ket_comments(text)
    assert len(stripped) == len(text)
    idx = text.index("(|00>")
    assert stripped[idx : idx + 5] == "(|00>"
    assert "#" not in stripped


def test_load_ket_file(tmp_path):
    path = tmp_path / "bell.ket"
    path.write_text("# a Bell pair\n(|00>+|11>)/sqrt(2)\n", encoding="utf-8")
    state = load_ket_file(path)
    np.testing.assert_allclose(
        state.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15
    )
