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
"""
from __future__ import annotations

from dataclasses import dataclass
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
    left: "KetAst"
    right: "KetAst"
    span: Span


@dataclass(frozen=True)
class Difference:
    left: "KetAst"
    right: "KetAst"
    span: Span


@dataclass(frozen=True)
class Product:
    left: "KetAst"
    right: "KetAst"
    span: Span


@dataclass(frozen=True)
class Quotient:
    left: "KetAst"
    right: "KetAst"
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
    Sum, Difference, Product, Quotient, Negation, FunctionCall,
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
        node = self.term(depth)
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self.term(depth)
            span = (node.span[0], right.span[1])
            node = Sum(node, right, span) if op.kind == "+" else Difference(node, right, span)
        return node

    def term(self, depth: int) -> KetAst:
        node = self.factor(depth)
        while True:
            kind = self.peek().kind
            if kind in ("*", "/"):
                op = self.advance()
                right = self.factor(depth)
                span = (node.span[0], right.span[1])
                node = Product(node, right, span) if op.kind == "*" else Quotient(node, right, span)
            elif kind in _FACTOR_START:  # implicit multiplication
                right = self.factor(depth)
                node = Product(node, right, (node.span[0], right.span[1]))
            else:
                return node

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
            return _respan(inner, (tok.span[0], closing.span[1]))
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


def _respan(node: KetAst, span: Span) -> KetAst:
    cls = type(node)
    fields = {f: getattr(node, f) for f in node.__dataclass_fields__}
    fields["span"] = span
    return cls(**fields)


def _ket_literals(node: KetAst):
    if isinstance(node, KetLiteral):
        yield node
    elif isinstance(node, (Sum, Difference, Product, Quotient)):
        yield from _ket_literals(node.left)
        yield from _ket_literals(node.right)
    elif isinstance(node, Negation):
        yield from _ket_literals(node.child)
    elif isinstance(node, FunctionCall):
        yield from _ket_literals(node.arg)


def parse_ket(text: str) -> KetAst:
    """Parse a ket expression; raises span-carrying errors, never crashes."""
    if not text.strip():
        raise KetSyntaxError("empty expression", (0, len(text)))
    parser = _Parser(_lex(text))
    ast = parser.expr(depth=0)
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise KetSyntaxError("unexpected trailing input", trailing.span)
    widths = list(_ket_literals(ast))
    for lit in widths:
        if len(lit.bits) > MAX_QUBITS:
            raise KetWidthError(
                f"ket width {len(lit.bits)} exceeds the limit of {MAX_QUBITS} qubits",
                lit.span,
            )
        if len(lit.bits) != len(widths[0].bits):
            raise KetWidthError(
                f"ket width {len(lit.bits)} does not match width {len(widths[0].bits)}",
                lit.span,
            )
    return ast


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval(node: KetAst) -> complex | np.ndarray:
    if isinstance(node, KetLiteral):
        vec = np.zeros(1 << len(node.bits), dtype=np.complex128)
        vec[int(node.bits, 2)] = 1.0
        return vec
    if isinstance(node, ComplexLiteral):
        return node.value
    if isinstance(node, NamedConstant):
        return _CONSTANTS[node.name]
    if isinstance(node, (Sum, Difference)):
        left, right = _eval(node.left), _eval(node.right)
        if isinstance(left, np.ndarray) != isinstance(right, np.ndarray):
            raise KetTypeError("cannot add a scalar and a state", node.span)
        return left + right if isinstance(node, Sum) else left - right
    if isinstance(node, Product):
        left, right = _eval(node.left), _eval(node.right)
        if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
            raise KetTypeError("cannot multiply two states", node.span)
        return left * right
    if isinstance(node, Quotient):
        left, right = _eval(node.left), _eval(node.right)
        if isinstance(right, np.ndarray):
            raise KetTypeError("cannot divide by a state", node.span)
        if right == 0:
            raise KetEvalError("division by zero", node.span)
        return left / right
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
