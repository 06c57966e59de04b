"""Parse bra-ket state expressions into PureState values and print them back.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/')? factor)*      -- '*' may be left implicit
    factor := number | constant | func '(' expr ')' | ket | '(' expr ')' | '-' factor
    ket    := '|' [01]+ '>'
    constant ::= 'i' | 'pi' | 'w'                -- w = exp(2i*pi/3)
    func     ::= 'sqrt' | 'exp' | 'conj'
    number   ::= decimal literal (optional fraction and exponent)

Implicit multiplication binds like '*', so ``w|0101>`` and ``w*|0101>``
parse identically. All kets in one expression must have the same width.
Errors carry a (start, end) span into the source text.

One compiled regular expression, ``_TOKEN``, tokenizes the text; a position
it does not match holds an illegal character.

Each ``a+b-c`` chain is one n-ary ``Sum`` node and each ``a*b/c`` chain one
n-ary ``Product`` node. Evaluation folds a chain from the left, so it
recurses only as deep as parentheses, functions and signs nest (at most 200
levels), and the 2^14 terms ``format_ket`` prints for a generic 14-qubit
state parse and evaluate back.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import (
    FormatError,
    KetEvalError,
    KetSyntaxError,
    KetTypeError,
    KetWidthError,
)
from .qstate import MAX_QUBITS, OMEGA, NormalizePolicy, PureState, make_state

Span = tuple[int, int]

_MAX_DEPTH = 200
_FUNCTIONS = ("sqrt", "exp", "conj")
_CONSTANTS = {"i": 1j, "pi": complex(np.pi), "w": OMEGA}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KetLiteral:
    bits: str
    span: Span


@dataclass(frozen=True)
class ComplexLiteral:
    value: complex
    span: Span


@dataclass(frozen=True)
class NamedConstant:
    name: str
    span: Span


@dataclass(frozen=True)
class Sum:
    """terms[0] signs[1] terms[1] ...; signs[0] is always '+'."""

    terms: tuple["KetAst", ...]
    signs: tuple[str, ...]
    span: Span


@dataclass(frozen=True)
class Product:
    """factors[0] ops[1] factors[1] ...; ops[0] is always '*'."""

    factors: tuple["KetAst", ...]
    ops: tuple[str, ...]
    span: Span


@dataclass(frozen=True)
class Negation:
    child: "KetAst"
    span: Span


@dataclass(frozen=True)
class FunctionCall:
    func: str
    arg: "KetAst"
    span: Span


KetAst = Union[
    KetLiteral, ComplexLiteral, NamedConstant,
    Sum, Product, Negation, FunctionCall,
]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


# One alternative per token kind. The classes are ASCII-only: str.isdigit
# accepts '²', which float() rejects, and \d and \w accept '٣', '１' and 'ｉ',
# which the language does not use, so all four stay illegal characters.
# \s matches exactly the characters str.isspace accepts.
_TOKEN = re.compile(
    r"""
      (?P<space>\s+)
    | (?P<op>[-+*/()])
    | (?P<ket>\|[01]*>?)
    | (?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<ident>[A-Za-z][A-Za-z0-9]*)
    """,
    re.VERBOSE,
)


def _lex(text: str) -> list[tuple]:
    """Tokens as (kind, text, value, span) tuples, ending with an "eof" token.

    kind is "number", "ident", "ket" or the operator character itself; value
    is set for numbers only, and a ket's text is its bits.
    """
    tokens = []
    pos, end = 0, len(text)
    while pos < end:
        match = _TOKEN.match(text, pos)
        if match is None:
            raise KetSyntaxError(f"illegal character {text[pos]!r}", (pos, pos + 1))
        start, pos = pos, match.end()
        kind, lexeme = match.lastgroup, match.group()
        if kind == "op":
            tokens.append((lexeme, lexeme, None, (start, pos)))
        elif kind == "number":
            tokens.append((kind, lexeme, float(lexeme), (start, pos)))
        elif kind == "ident":
            tokens.append((kind, lexeme, None, (start, pos)))
        elif kind == "ket":
            closed = lexeme.endswith(">")
            bits = lexeme[1 : len(lexeme) - closed]
            if not bits:
                raise KetSyntaxError("expected bits after '|'", (start, start + 1))
            if not closed:
                raise KetSyntaxError("unterminated ket, expected '>'", (start, pos))
            tokens.append((kind, bits, None, (start, pos)))
    tokens.append(("eof", "", None, (end, end)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_FACTOR_START = ("number", "ident", "ket", "(")


class _Parser:
    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> str:
        """Step past the current token; returns its kind."""
        self.pos += 1
        return self.tokens[self.pos - 1][0]

    def expect(self, kind: str, what: str) -> Span:
        """Step past a token of this kind; returns its span."""
        tok_kind, _, _, span = self.tokens[self.pos]
        if tok_kind != kind:
            raise KetSyntaxError(f"expected {what}", span)
        self.pos += 1
        return span

    def expr(self, depth: int) -> KetAst:
        terms, signs = [self.term(depth)], ["+"]
        while self.kind() in ("+", "-"):
            signs.append(self.advance())
            terms.append(self.term(depth))
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms), tuple(signs), (terms[0].span[0], terms[-1].span[1]))

    def term(self, depth: int) -> KetAst:
        factors, ops = [self.factor(depth)], ["*"]
        while True:
            kind = self.kind()
            if kind in ("*", "/"):
                ops.append(self.advance())
            elif kind in _FACTOR_START:  # implicit multiplication
                ops.append("*")
            else:
                break
            factors.append(self.factor(depth))
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors), tuple(ops), (factors[0].span[0], factors[-1].span[1]))

    def factor(self, depth: int) -> KetAst:
        kind, text, value, span = self.tokens[self.pos]
        if depth >= _MAX_DEPTH:
            raise KetSyntaxError("expression nested too deeply", span)
        if kind == "-":
            self.advance()
            child = self.factor(depth + 1)
            return Negation(child, (span[0], child.span[1]))
        if kind == "number":
            self.advance()
            return ComplexLiteral(complex(value), span)
        if kind == "ket":
            self.advance()
            return KetLiteral(text, span)
        if kind == "(":
            self.advance()
            inner = self.expr(depth + 1)
            closing = self.expect(")", "')'")
            return replace(inner, span=(span[0], closing[1]))
        if kind == "ident":
            self.advance()
            if text in _FUNCTIONS:
                self.expect("(", f"'(' after {text}")
                arg = self.expr(depth + 1)
                closing = self.expect(")", "')'")
                return FunctionCall(text, arg, (span[0], closing[1]))
            if text in _CONSTANTS:
                return NamedConstant(text, span)
            raise KetSyntaxError(f"unknown identifier {text!r}", span)
        raise KetSyntaxError("expected a number, constant, ket or '('", span)


def parse_ket(text: str) -> KetAst:
    """Parse a ket expression; raises span-carrying errors, never crashes."""
    if not isinstance(text, str):
        raise KetSyntaxError(f"expected ket text, got {type(text).__name__}", (0, 0))
    if not text.strip():
        raise KetSyntaxError("empty expression", (0, len(text)))
    parser = _Parser(_lex(text))
    ast = parser.expr(depth=0)
    kind, _, _, span = parser.tokens[parser.pos]
    if kind != "eof":
        raise KetSyntaxError("unexpected trailing input", span)
    # one token per KetLiteral of the AST, in source order; the span is the ket's
    # own, without the parentheses a KetLiteral node's span may include
    kets = [(bits, span) for kind, bits, _, span in parser.tokens if kind == "ket"]
    for bits, span in kets:
        if len(bits) > MAX_QUBITS:
            raise KetWidthError(
                f"ket width {len(bits)} exceeds the limit of {MAX_QUBITS} qubits",
                span,
            )
        if len(bits) != len(kets[0][0]):
            raise KetWidthError(
                f"ket width {len(bits)} does not match width {len(kets[0][0])}",
                span,
            )
    return ast


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _prefix_span(node: Sum | Product, k: int) -> Span:
    """Span of a failure at element k of a chain: the chain up to element k,
    or the whole node, parentheses included, at the last element."""
    items = node.terms if isinstance(node, Sum) else node.factors
    return node.span if k == len(items) - 1 else (items[0].span[0], items[k].span[1])


def _eval(node: KetAst) -> complex | np.ndarray:
    if isinstance(node, KetLiteral):
        vec = np.zeros(1 << len(node.bits), dtype=np.complex128)
        vec[int(node.bits, 2)] = 1.0
        return vec
    if isinstance(node, ComplexLiteral):
        return node.value
    if isinstance(node, NamedConstant):
        return _CONSTANTS[node.name]
    if isinstance(node, Sum):
        acc = _eval(node.terms[0])
        for k in range(1, len(node.terms)):
            right = _eval(node.terms[k])
            if isinstance(acc, np.ndarray) != isinstance(right, np.ndarray):
                raise KetTypeError("cannot add a scalar and a state", _prefix_span(node, k))
            acc = acc + right if node.signs[k] == "+" else acc - right
        return acc
    if isinstance(node, Product):
        acc = _eval(node.factors[0])
        for k in range(1, len(node.factors)):
            right = _eval(node.factors[k])
            if node.ops[k] == "*":
                if isinstance(acc, np.ndarray) and isinstance(right, np.ndarray):
                    raise KetTypeError("cannot multiply two states", _prefix_span(node, k))
                acc = acc * right
            elif isinstance(right, np.ndarray):
                raise KetTypeError("cannot divide by a state", _prefix_span(node, k))
            elif right == 0:
                raise KetEvalError("division by zero", _prefix_span(node, k))
            else:
                acc = acc / right
        return acc
    if isinstance(node, Negation):
        return -_eval(node.child)
    if isinstance(node, FunctionCall):
        arg = _eval(node.arg)
        if isinstance(arg, np.ndarray):
            raise KetTypeError(f"{node.func}() takes a scalar, not a state", node.span)
        if node.func == "sqrt":
            return complex(np.sqrt(complex(arg)))
        if node.func == "exp":
            return complex(np.exp(complex(arg)))
        return complex(np.conj(arg))
    raise TypeError(f"not a ket AST node: {node!r}")  # pragma: no cover


def eval_ket(ast: KetAst, normalize_policy: NormalizePolicy = "strict") -> PureState:
    """Evaluate a parsed expression down to a PureState."""
    # overflow leaves non-finite amplitudes, which make_state rejects
    with np.errstate(over="ignore", invalid="ignore"):
        value = _eval(ast)
    if not isinstance(value, np.ndarray):
        raise KetTypeError("expression evaluates to a scalar, not a state", ast.span)
    n = int(np.log2(value.size))
    return make_state(n, value, normalize_policy)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def format_ket(state: PureState, precision: int = 17) -> str:
    """Canonical expression: nonzero terms in index order, ``(re+im*i)`` amplitudes.

    At precision 17 the formatted text evaluates back to the exact
    amplitudes.
    """
    n = state.n_qubits
    terms = []
    for i, a in enumerate(state.amplitudes):
        if a == 0:
            continue
        sign = "+" if a.imag >= 0 else "-"
        terms.append(
            f"({a.real:.{precision}g}{sign}{abs(a.imag):.{precision}g}*i)"
            f"*|{i:0{n}b}>"
        )
    return "+".join(terms)


# ---------------------------------------------------------------------------
# .ket files: UTF-8, one expression, '#' starts a line comment
# ---------------------------------------------------------------------------


def strip_ket_comments(text: str) -> str:
    """Blank out '#' comments, preserving every character offset."""
    out = []
    for line in text.splitlines(keepends=True):
        idx = line.find("#")
        if idx >= 0:
            comment = line[idx:].rstrip("\r\n")
            newline = line[idx + len(comment):]
            line = line[:idx] + " " * len(comment) + newline
        out.append(line)
    return "".join(out)


def load_ket_file(path, normalize_policy: NormalizePolicy = "strict") -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"ket file is not valid UTF-8: {exc}") from exc
    return eval_ket(parse_ket(strip_ket_comments(text)), normalize_policy)
