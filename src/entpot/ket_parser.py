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

Each ``a+b-c`` chain is one n-ary ``Sum`` node and each ``a*b/c`` chain one
n-ary ``Product`` node. Evaluation folds a chain from the left, so it
recurses only as deep as parentheses, functions and signs nest (at most 200
levels), and the 2^14 terms ``format_ket`` prints for a generic 14-qubit
state parse and evaluate back.
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class _Token:
    kind: str  # one of: number ident ket + - * / ( ) eof
    text: str
    value: float | None
    span: Span


# ASCII-only classes: str.isdigit/isalpha accept Unicode lookalikes that
# float() rejects, so they must not drive the lexer.
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, end = 0, len(text)
    while pos < end:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/()":
            tokens.append(_Token(ch, ch, None, (pos, pos + 1)))
            pos += 1
            continue
        if ch == "|":
            j = pos + 1
            while j < end and text[j] in "01":
                j += 1
            if j == pos + 1:
                raise KetSyntaxError("expected bits after '|'", (pos, j))
            if j >= end or text[j] != ">":
                raise KetSyntaxError("unterminated ket, expected '>'", (pos, j))
            tokens.append(_Token("ket", text[pos + 1 : j], None, (pos, j + 1)))
            pos = j + 1
            continue
        if ch in _DIGITS or (ch == "." and pos + 1 < end and text[pos + 1] in _DIGITS):
            j = pos
            while j < end and text[j] in _DIGITS:
                j += 1
            if j < end and text[j] == ".":
                j += 1
                while j < end and text[j] in _DIGITS:
                    j += 1
            if j < end and text[j] in "eE":
                k = j + 1
                if k < end and text[k] in "+-":
                    k += 1
                if k < end and text[k] in _DIGITS:
                    j = k
                    while j < end and text[j] in _DIGITS:
                        j += 1
            tokens.append(_Token("number", text[pos:j], float(text[pos:j]), (pos, j)))
            pos = j
            continue
        if ch in _LETTERS:
            j = pos
            while j < end and (text[j] in _LETTERS or text[j] in _DIGITS):
                j += 1
            tokens.append(_Token("ident", text[pos:j], None, (pos, j)))
            pos = j
            continue
        raise KetSyntaxError(f"illegal character {ch!r}", (pos, pos + 1))
    tokens.append(_Token("eof", "", None, (end, end)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_FACTOR_START = ("number", "ident", "ket", "(")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise KetSyntaxError(f"expected {what}", tok.span)
        return self.advance()

    def expr(self, depth: int) -> KetAst:
        terms, signs = [self.term(depth)], ["+"]
        while self.peek().kind in ("+", "-"):
            signs.append(self.advance().kind)
            terms.append(self.term(depth))
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms), tuple(signs), (terms[0].span[0], terms[-1].span[1]))

    def term(self, depth: int) -> KetAst:
        factors, ops = [self.factor(depth)], ["*"]
        while True:
            kind = self.peek().kind
            if kind in ("*", "/"):
                ops.append(self.advance().kind)
            elif kind in _FACTOR_START:  # implicit multiplication
                ops.append("*")
            else:
                break
            factors.append(self.factor(depth))
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors), tuple(ops), (factors[0].span[0], factors[-1].span[1]))

    def factor(self, depth: int) -> KetAst:
        if depth >= _MAX_DEPTH:
            raise KetSyntaxError("expression nested too deeply", self.peek().span)
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            child = self.factor(depth + 1)
            return Negation(child, (tok.span[0], child.span[1]))
        if tok.kind == "number":
            self.advance()
            return ComplexLiteral(complex(tok.value), tok.span)
        if tok.kind == "ket":
            self.advance()
            return KetLiteral(tok.text, tok.span)
        if tok.kind == "(":
            self.advance()
            inner = self.expr(depth + 1)
            closing = self.expect(")", "')'")
            return replace(inner, span=(tok.span[0], closing.span[1]))
        if tok.kind == "ident":
            self.advance()
            if tok.text in _FUNCTIONS:
                self.expect("(", f"'(' after {tok.text}")
                arg = self.expr(depth + 1)
                closing = self.expect(")", "')'")
                return FunctionCall(tok.text, arg, (tok.span[0], closing.span[1]))
            if tok.text in _CONSTANTS:
                return NamedConstant(tok.text, tok.span)
            raise KetSyntaxError(f"unknown identifier {tok.text!r}", tok.span)
        raise KetSyntaxError("expected a number, constant, ket or '('", tok.span)


def parse_ket(text: str) -> KetAst:
    """Parse a ket expression; raises span-carrying errors, never crashes."""
    if not text.strip():
        raise KetSyntaxError("empty expression", (0, len(text)))
    parser = _Parser(_lex(text))
    ast = parser.expr(depth=0)
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise KetSyntaxError("unexpected trailing input", trailing.span)
    # one token per KetLiteral of the AST, in source order; the span is the ket's
    # own, without the parentheses a KetLiteral node's span may include
    kets = [tok for tok in parser.tokens if tok.kind == "ket"]
    for tok in kets:
        if len(tok.text) > MAX_QUBITS:
            raise KetWidthError(
                f"ket width {len(tok.text)} exceeds the limit of {MAX_QUBITS} qubits",
                tok.span,
            )
        if len(tok.text) != len(kets[0].text):
            raise KetWidthError(
                f"ket width {len(tok.text)} does not match width {len(kets[0].text)}",
                tok.span,
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
