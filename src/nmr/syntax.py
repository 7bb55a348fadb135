"""Formula and theory ASTs for a propositional modal language.

The language has one epistemic operator ``K``.  ``M x`` is accepted as
surface syntax and desugared to ``~K ~x`` while parsing; the AST itself
only ever contains ``K``.

Grammar (precedence high to low; ``->`` right-associative, ``<->``
non-associative).  ``parse_formula`` implements it as one
operator-precedence loop over an operator and an operand stack, so
nesting depth costs no recursion::

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

#: Every character of a line matches one alternative, so ``finditer``
#: walks a line without gaps: blanks and a comment are skipped, group 1
#: is a token and group 2 a character that starts none.
_TOKEN_RE = re.compile(r"[ \t\r]+|#.*|(<->|->|[~&|()]|[A-Za-z_][A-Za-z0-9_]*)|(.)")
_KEYWORDS = _RESERVED | {"<->", "->", "~", "&", "|", "(", ")"}

_UNARY = {"~", "K", "M"}
_OPERAND = {"atom": Atom, "true": lambda _: TOP, "false": lambda _: BOTTOM}
#: Binding power of a pending operator; '(' has none and stops reductions.
_POWER = {"<->": 1, "->": 2, "|": 3, "&": 4, "~": 5, "K": 5, "M": 5}
#: A binary operator that follows an operand first reduces the pending
#: operators whose power exceeds this: '&' and '|' their own kind too
#: (left associative), '->' not (right associative).  Any other token
#: there reduces everything down to the innermost '('.
_REDUCES_ABOVE = {"<->": 1, "->": 2, "|": 2, "&": 3}
_NODE = {"<->": Iff, "->": Implies, "|": Or, "&": And, "~": Not, "K": Knows,
         "M": lambda sub: Not(Knows(Not(sub)))}


def _tokenize(text: str, first_line: int) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) per token and a last ``end`` token; a
    keyword's or operator's kind is its text, a name's is ``atom``."""
    tokens = []
    lines = text.split("\n")
    for line_no, line in enumerate(lines, first_line):
        for m in _TOKEN_RE.finditer(line):
            word, bad = m.groups()
            if word:
                tokens.append((word if word in _KEYWORDS else "atom", word, line_no, m.start() + 1))
            elif bad:
                raise ParseError(f"unexpected character {bad!r}", line_no, m.start() + 1)
    tokens.append(("end", "", first_line + len(lines) - 1, len(lines[-1]) + 1))
    return tokens


def _unexpected(token: tuple[str, str, int, int], detail: str) -> ParseError:
    kind, text, line, column = token
    what = "end of input" if kind == "end" else repr(text)
    return ParseError(f"unexpected {what} ({detail})", line, column)


def parse_formula(text: str, first_line: int = 1) -> Formula:
    """Parse one formula by operator precedence, with explicit stacks in
    place of recursion; error lines count from ``first_line``."""
    ops: list[str] = []  # pending operators and open parentheses, innermost last
    operands: list[Formula] = []
    want_operand = True
    for token in _tokenize(text, first_line):
        kind = token[0]
        if want_operand:
            if kind in _UNARY or kind == "(":
                ops.append(kind)
            elif kind in _OPERAND:
                operands.append(_OPERAND[kind](token[1]))
                want_operand = False
            else:
                raise _unexpected(token, "expected a formula")
            continue
        floor = _REDUCES_ABOVE.get(kind, 0)
        while ops and _POWER.get(ops[-1], 0) > floor:
            op = ops.pop()
            if op in _UNARY:
                operands[-1] = _NODE[op](operands[-1])
            else:
                right = operands.pop()
                operands[-1] = _NODE[op](operands[-1], right)
        if kind in _REDUCES_ABOVE:
            if kind == "<->" and ops and ops[-1] == "<->":
                raise ParseError("'<->' is non-associative; parenthesize", token[2], token[3])
            ops.append(kind)
            want_operand = True
        elif kind == ")" and ops:
            ops.pop()
        elif kind == "end" and not ops:
            return operands[0]
        else:  # only '(' can be left pending
            raise _unexpected(token, "expected ')'" if ops else "trailing input")


_VOCAB_HEADER_RE = re.compile(r"^\s*vocab\s*:", re.IGNORECASE)
_WORD_RE = re.compile(r"\S+")


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
        line = raw.partition("#")[0]
        if not line.strip():
            continue
        if vocabulary is None and not lines and _VOCAB_HEADER_RE.match(line):
            words = [(m[0], m.start() + 1)
                     for m in _WORD_RE.finditer(line, line.index(":") + 1)]
            for name, column in words:
                if not _ATOM_RE.fullmatch(name) or name in _RESERVED:
                    raise ParseError(f"bad atom name {name!r} in vocab header", line_no, column)
            names: dict[str, None] = {}
            for name, column in words:
                if name in names:
                    raise ParseError("duplicate atom in vocab header", line_no, column)
                names[name] = None
            vocabulary = Vocabulary(tuple(names))
            continue
        lines.append((line_no, line))
    return vocabulary, lines


def unknown_atom_position(lines: list[tuple[int, str]],
                          vocabulary: Vocabulary) -> tuple[int, int]:
    """Line and column of the first atom not in ``vocabulary``, in parsed
    theory lines listed in the order the theory checks them."""
    for line_no, line in lines:
        for m in _ATOM_RE.finditer(line):
            if m[0] not in _RESERVED and m[0] not in vocabulary:
                return line_no, m.start() + 1
    return 1, 1


def parse_theory(text: str) -> Theory:
    """Parse an ``.ael`` theory file."""
    vocabulary, lines = theory_lines(text)
    formulas = [parse_formula(line, first_line=line_no) for line_no, line in lines]
    try:
        return Theory.from_formulas(formulas, vocabulary)
    except ValueError as exc:
        raise ParseError(str(exc), *unknown_atom_position(lines, vocabulary)) from None


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
