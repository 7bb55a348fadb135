"""The operator-precedence parser against a recursive-descent reference.

``_ReferenceParser`` is the recursive-descent parser the operator-precedence
loop in ``nmr.syntax`` replaced, kept here verbatim in behaviour.  On every
input both must give the same AST or the same ``ParseError`` (message,
line, column).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

import pytest

from nmr.errors import ParseError
from nmr.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Knows,
    Not,
    Or,
    parse_formula,
)

from helpers import rand_formula

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = {"true", "false", "K", "M"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str, first_line: int = 1) -> list[_Token]:
    tokens: list[_Token] = []
    for offset, raw in enumerate(text.split("\n")):
        line_no = first_line + offset
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch in " \t\r":
                i += 1
                continue
            if ch == "#":
                break
            col = i + 1
            if raw.startswith("<->", i):
                tokens.append(_Token("<->", "<->", line_no, col))
                i += 3
            elif raw.startswith("->", i):
                tokens.append(_Token("->", "->", line_no, col))
                i += 2
            elif ch in "~&|()":
                tokens.append(_Token(ch, ch, line_no, col))
                i += 1
            else:
                m = _ATOM_RE.match(raw, i)
                if not m:
                    raise ParseError(f"unexpected character {ch!r}", line_no, col)
                word = m.group(0)
                kind = word if word in _RESERVED else "atom"
                tokens.append(_Token(kind, word, line_no, col))
                i += len(word)
    last_line = first_line + text.count("\n")
    tokens.append(_Token("end", "", last_line, len(text.split("\n")[-1]) + 1))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(self._unexpected(tok, f"expected {kind!r}"), tok.line, tok.column)
        return self.take()

    @staticmethod
    def _unexpected(tok: _Token, detail: str) -> str:
        what = "end of input" if tok.kind == "end" else f"{tok.text!r}"
        return f"unexpected {what} ({detail})"

    def parse_formula(self) -> Formula:
        left = self.parse_implied()
        if self.peek().kind == "<->":
            self.take()
            right = self.parse_implied()
            left = Iff(left, right)
            tok = self.peek()
            if tok.kind == "<->":
                raise ParseError("'<->' is non-associative; parenthesize", tok.line, tok.column)
        return left

    def parse_implied(self) -> Formula:
        left = self.parse_clause()
        if self.peek().kind == "->":
            self.take()
            return Implies(left, self.parse_implied())
        return left

    def parse_clause(self) -> Formula:
        left = self.parse_term()
        while self.peek().kind == "|":
            self.take()
            left = Or(left, self.parse_term())
        return left

    def parse_term(self) -> Formula:
        left = self.parse_unary()
        while self.peek().kind == "&":
            self.take()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.take()
            return Not(self.parse_unary())
        if tok.kind == "K":
            self.take()
            return Knows(self.parse_unary())
        if tok.kind == "M":
            self.take()
            return Not(Knows(Not(self.parse_unary())))
        if tok.kind == "true":
            self.take()
            return TOP
        if tok.kind == "false":
            self.take()
            return BOTTOM
        if tok.kind == "atom":
            self.take()
            return Atom(tok.text)
        if tok.kind == "(":
            self.take()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        raise ParseError(self._unexpected(tok, "expected a formula"), tok.line, tok.column)


def _reference_parse(text: str, first_line: int = 1) -> Formula:
    parser = _ReferenceParser(_tokenize(text, first_line))
    formula = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(parser._unexpected(tok, "trailing input"), tok.line, tok.column)
    return formula


def _outcome(parse, text: str, first_line: int):
    try:
        return parse(text, first_line)
    except ParseError as exc:
        return (exc.message, exc.line, exc.column)


def _assert_same(text: str, first_line: int) -> bool:
    want = _outcome(_reference_parse, text, first_line)
    assert _outcome(parse_formula, text, first_line) == want, (text, first_line)
    return isinstance(want, Formula)


_TOKENS = ["P", "Q", "K", "M", "~", "&", "|", "->", "<->", "(", ")", "true", "false",
           "#", "é", "\t", "\r", "\v", "\n"]
_GLUE = ["", " ", " ", " ", "  ", "\n"]


def test_random_token_strings_parse_like_the_reference():
    rng = random.Random(7)
    valid = 0
    for _ in range(12_000):
        n = rng.randint(0, 14)
        text = "".join(rng.choice(_TOKENS) + rng.choice(_GLUE) for _ in range(n))
        valid += _assert_same(text, rng.choice([1, 1, 5, 120]))
    assert valid > 200


def _spell(f: Formula, rng: random.Random) -> list[str]:
    """Tokens of f with parentheses at random, so precedence decides the rest."""
    if isinstance(f, Atom):
        out = [f.name]
    elif f == TOP or f == BOTTOM:
        out = ["true" if f == TOP else "false"]
    elif isinstance(f, Not) and isinstance(f.sub, Knows) and isinstance(f.sub.sub, Not) \
            and rng.random() < 0.5:
        out = ["M", *_spell(f.sub.sub.sub, rng)]
    elif isinstance(f, (Not, Knows)):
        out = ["~" if isinstance(f, Not) else "K", *_spell(f.sub, rng)]
    else:
        op = {And: "&", Or: "|", Implies: "->", Iff: "<->"}[type(f)]
        out = [*_spell(f.left, rng), op, *_spell(f.right, rng)]
    if rng.random() < 0.4:
        out = ["(", *out, ")"]
    return out


def test_random_formulas_with_random_parentheses_parse_like_the_reference():
    rng = random.Random(11)
    valid = 0
    for _ in range(6_000):
        tokens = _spell(rand_formula(rng, ["P", "Q", "R"], rng.randint(1, 5)), rng)
        for _ in range(rng.choice([0, 0, 1, 2])):  # damage some: drop, add or swap a token
            i = rng.randrange(len(tokens) + 1)
            edit = rng.random()
            if edit < 0.4 and i < len(tokens):
                del tokens[i]
            elif edit < 0.8:
                tokens.insert(i, rng.choice(_TOKENS[:13]))
            elif i < len(tokens):
                tokens[i] = rng.choice(_TOKENS[:13])
        text = rng.choice([" ", "  ", "\t"]).join(tokens)
        valid += _assert_same(text, rng.randint(1, 3))
    assert valid > 3_000


def test_redundant_parentheses_need_no_recursion():
    n = 100_000
    assert parse_formula("(" * n + "P" + ")" * n) == Atom("P")
    with pytest.raises(ParseError) as err:
        parse_formula("(" * n + "P" + ")" * (n - 1))
    assert (err.value.message, err.value.column) == (
        "unexpected end of input (expected ')')", 2 * n + 1)
