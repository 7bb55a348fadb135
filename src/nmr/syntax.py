"""Formula and theory ASTs for a propositional modal language.

The language has one epistemic operator ``K``.  ``M x`` is accepted as
surface syntax and desugared to ``~K ~x`` while parsing; the AST itself
only ever contains ``K``.

Grammar (precedence high to low; ``->`` right-associative, ``<->``
non-associative)::

    formula  ::= implied ('<->' implied)?
    implied  ::= clause ('->' implied)?
    clause   ::= term ('|' term)*
    term     ::= unary ('&' unary)*
    unary    ::= '~' unary | 'K' unary | 'M' unary
               | 'true' | 'false' | ATOM | '(' formula ')'
    ATOM     ::= [A-Za-z_][A-Za-z0-9_]*      (not a reserved word)

Theory files (``.ael``) hold one formula per line, ``#`` starts a
comment, and an optional first line ``vocab: A B C`` pins the
vocabulary (and with it the world indexing).  Without the header the
vocabulary is the atoms of the theory in first-occurrence order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import ParseError
from .worlds import Vocabulary


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Formula:
    """Base class for formula nodes; all nodes are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Knows(Formula):
    sub: Formula


TOP = Top()
BOTTOM = Bottom()

_BINARY = (And, Or, Implies, Iff)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Not, Knows)):
        return (f.sub,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    return ()


def objective(f: Formula) -> bool:
    """True iff no K occurs in the formula."""
    if isinstance(f, Knows):
        return False
    return all(objective(c) for c in children(f))


def atoms_of(f: Formula) -> Iterator[str]:
    """Atom names in first-occurrence order (with repeats)."""
    if isinstance(f, Atom):
        yield f.name
    for c in children(f):
        yield from atoms_of(c)


# ---------------------------------------------------------------------------
# Theory
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Theory:
    """A finite modal theory over a fixed vocabulary."""

    vocabulary: Vocabulary
    formulas: tuple[Formula, ...]

    def __post_init__(self):
        for f in self.formulas:
            for name in atoms_of(f):
                if name not in self.vocabulary:
                    raise ValueError(
                        f"atom {name!r} occurs in the theory but not in the vocabulary"
                    )

    @classmethod
    def from_formulas(cls, formulas, vocabulary: Vocabulary | None = None) -> "Theory":
        formulas = tuple(formulas)
        if vocabulary is None:
            seen: dict[str, None] = {}
            for f in formulas:
                for name in atoms_of(f):
                    seen.setdefault(name)
            vocabulary = Vocabulary(tuple(seen))
        return cls(vocabulary, formulas)

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_ATOM_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = {"true", "false", "K", "M"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # 'atom' | 'true' | 'false' | 'K' | 'M' | '~' | '&' | '|' | '->' | '<->' | '(' | ')' | 'end'
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


class _Parser:
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


def parse_formula(text: str, first_line: int = 1) -> Formula:
    parser = _Parser(_tokenize(text, first_line))
    formula = parser.parse_formula()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(parser._unexpected(tok, "trailing input"), tok.line, tok.column)
    return formula


_VOCAB_HEADER_RE = re.compile(r"^\s*vocab\s*:", re.IGNORECASE)


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def theory_lines(text: str) -> tuple[Vocabulary | None, list[tuple[int, str]]]:
    """Split a theory file (``.ael`` or ``.dt``) into its optional
    ``vocab:`` header and its content lines.

    Comments are stripped and blank lines dropped.  A ``vocab:`` line is
    a header only as the first content line; its names must be distinct,
    well-formed, non-reserved atoms.  Returns the declared vocabulary (or
    None) and the remaining lines as (line number, text) pairs.
    """
    vocabulary: Vocabulary | None = None
    lines: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        if vocabulary is None and not lines and _VOCAB_HEADER_RE.match(line):
            names = line.split(":", 1)[1].split()
            for name in names:
                if not _ATOM_RE.fullmatch(name) or name in _RESERVED:
                    raise ParseError(f"bad atom name {name!r} in vocab header",
                                     line_no, line.index(name) + 1)
            if len(set(names)) != len(names):
                raise ParseError("duplicate atom in vocab header", line_no, 1)
            vocabulary = Vocabulary(tuple(names))
            continue
        lines.append((line_no, line))
    return vocabulary, lines


def parse_theory(text: str) -> Theory:
    """Parse an ``.ael`` theory file."""
    vocabulary, lines = theory_lines(text)
    formulas = [parse_formula(line, first_line=line_no) for line_no, line in lines]
    try:
        return Theory.from_formulas(formulas, vocabulary)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LEVEL_IFF, _LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY, _LEVEL_ATOM = range(6)


def _level(f: Formula) -> int:
    if isinstance(f, Iff):
        return _LEVEL_IFF
    if isinstance(f, Implies):
        return _LEVEL_IMPLIES
    if isinstance(f, Or):
        return _LEVEL_OR
    if isinstance(f, And):
        return _LEVEL_AND
    if isinstance(f, (Not, Knows)):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _wrap(f: Formula, min_level: int) -> str:
    s = print_formula(f)
    return f"({s})" if _level(f) < min_level else s


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; re-parsing gives back the same AST."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return "~" + _wrap(f.sub, _LEVEL_UNARY)
    if isinstance(f, Knows):
        return "K " + _wrap(f.sub, _LEVEL_UNARY)
    if isinstance(f, And):
        return f"{_wrap(f.left, _LEVEL_AND)} & {_wrap(f.right, _LEVEL_UNARY)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left, _LEVEL_OR)} | {_wrap(f.right, _LEVEL_AND)}"
    if isinstance(f, Implies):
        return f"{_wrap(f.left, _LEVEL_OR)} -> {_wrap(f.right, _LEVEL_IMPLIES)}"
    if isinstance(f, Iff):
        return f"{_wrap(f.left, _LEVEL_IMPLIES)} <-> {_wrap(f.right, _LEVEL_IMPLIES)}"
    raise TypeError(f"not a formula: {f!r}")


def print_theory(t: Theory) -> str:
    """Render a theory in the ``.ael`` file format, vocab header included."""
    lines = []
    if len(t.vocabulary):
        lines.append("vocab: " + " ".join(t.vocabulary.atoms))
    lines.extend(print_formula(f) for f in t.formulas)
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Modal-subformula collection and polarity analysis
# ---------------------------------------------------------------------------

def collect_modal_subformulas(t: Theory) -> tuple[Formula, ...]:
    """Distinct arguments of K, first occurrence first, innermost before enclosing."""
    seen: dict[Formula, None] = {}

    def walk(f: Formula) -> None:
        for c in children(f):
            walk(c)
        if isinstance(f, Knows):
            seen.setdefault(f.sub)

    for f in t.formulas:
        walk(f)
    return tuple(seen)


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BOTH = "both"

    def flip(self) -> "Polarity":
        if self is Polarity.POSITIVE:
            return Polarity.NEGATIVE
        if self is Polarity.NEGATIVE:
            return Polarity.POSITIVE
        return Polarity.BOTH

    def join(self, other: "Polarity") -> "Polarity":
        return self if self is other else Polarity.BOTH


@dataclass(frozen=True, slots=True)
class KOccurrence:
    """One occurrence of K, addressed by formula index and child path."""

    formula_index: int
    path: tuple[int, ...]
    subformula: Formula
    polarity: Polarity


def modal_polarities(t: Theory) -> tuple[KOccurrence, ...]:
    """Polarity of every K occurrence, by sign propagation.

    ``~`` and the antecedent of ``->`` flip the sign; both sides of
    ``<->`` count as occurring under both signs.
    """
    out: list[KOccurrence] = []

    def walk(f: Formula, sign: Polarity, idx: int, path: tuple[int, ...]) -> None:
        if isinstance(f, Not):
            walk(f.sub, sign.flip(), idx, path + (0,))
        elif isinstance(f, (And, Or)):
            walk(f.left, sign, idx, path + (0,))
            walk(f.right, sign, idx, path + (1,))
        elif isinstance(f, Implies):
            walk(f.left, sign.flip(), idx, path + (0,))
            walk(f.right, sign, idx, path + (1,))
        elif isinstance(f, Iff):
            walk(f.left, Polarity.BOTH, idx, path + (0,))
            walk(f.right, Polarity.BOTH, idx, path + (1,))
        elif isinstance(f, Knows):
            out.append(KOccurrence(idx, path, f.sub, sign))
            walk(f.sub, sign, idx, path + (0,))

    for i, f in enumerate(t.formulas):
        walk(f, Polarity.POSITIVE, i, ())
    return tuple(out)


def only_negative(t: Theory) -> bool:
    """True iff no K occurrence is positive (or of both polarities)."""
    return all(occ.polarity is Polarity.NEGATIVE for occ in modal_polarities(t))
