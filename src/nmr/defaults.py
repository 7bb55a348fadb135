"""Default theories, their modal translation, and Reiter extensions.

A default ``PRE : J1, ..., Jm / CONS`` translates to the modal rule

    K PRE & ~K ~J1 & ... & ~K ~Jm -> CONS

(the ``K PRE`` conjunct is dropped when the prerequisite is the trivial
``true``).  Facts pass through unchanged, so the translated theory has
exactly one formula per fact and per default.

``reiter_extensions`` computes extensions directly and independently of
the modal machinery: deductively closed theories are represented by
belief states over the finite vocabulary, theoremhood by entailment,
and the classical applicability fixpoint test is run against every
candidate generated from a subset of default consequents.  That
independence is what makes ``align_check`` a meaningful cross-check of
the two routes.

Default theory files (``.dt``): ``#`` comments, an optional ``vocab:``
header (read as in ``.ael`` files), fact lines (objective formulas), and default lines containing
``/``, written ``PRE : J1, J2 / CONS`` with PRE omissible and the
justification list possibly empty.  Modal operators are not allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import ParseError, ResourceCapError
from .syntax import (
    TOP,
    And,
    Formula,
    Implies,
    Knows,
    Not,
    Theory,
    atoms_of,
    objective,
    parse_formula,
    theory_lines,
)
from .semantics import EXPANSION, SOLVERS, STABLE, SemanticsResult
from .truth import TruthFunctionKind, models_mask
from .operators import OperatorContext
from .worlds import BeliefState, Vocabulary

#: 2^|defaults| candidate subsets are enumerated; cap the exponent.
DEFAULT_SUBSET_CAP = 20

#: Default-logic names for semantics of the translated modal theory;
#: ``dl_semantics`` also accepts every name in ``semantics.SOLVERS``.
DL_ALIASES = {"reiter": STABLE, "weak": EXPANSION}


@dataclass(frozen=True, slots=True)
class Default:
    """prerequisite : justifications / consequent, all objective."""

    prerequisite: Formula
    justifications: tuple[Formula, ...]
    consequent: Formula

    def __post_init__(self):
        for f in (self.prerequisite, *self.justifications, self.consequent):
            if not objective(f):
                raise ValueError("default components must be objective formulas")


def _components(facts, defaults) -> Iterator[Formula]:
    yield from facts
    for d in defaults:
        yield d.prerequisite
        yield from d.justifications
        yield d.consequent


@dataclass(frozen=True, slots=True)
class DefaultTheory:
    vocabulary: Vocabulary
    facts: tuple[Formula, ...]
    defaults: tuple[Default, ...]

    def __post_init__(self):
        for f in _components(self.facts, self.defaults):
            if not objective(f):
                raise ValueError("default theories are objective")
            for name in atoms_of(f):
                if name not in self.vocabulary:
                    raise ValueError(f"atom {name!r} not in the vocabulary")

    @classmethod
    def from_parts(cls, facts, defaults, vocabulary: Vocabulary | None = None) -> "DefaultTheory":
        facts = tuple(facts)
        defaults = tuple(defaults)
        if vocabulary is None:
            seen: dict[str, None] = {}
            for f in _components(facts, defaults):
                for name in atoms_of(f):
                    seen.setdefault(name)
            vocabulary = Vocabulary(tuple(seen))
        return cls(vocabulary, facts, defaults)


def _parse_objective(text: str, line_no: int) -> Formula:
    f = parse_formula(text, first_line=line_no)
    if not objective(f):
        raise ParseError("modal operator not allowed in a default theory file", line_no, 1)
    return f


def parse_default_theory(text: str) -> DefaultTheory:
    """Parse a ``.dt`` file; lines containing ``/`` are defaults, others facts."""
    vocabulary, lines = theory_lines(text)
    facts: list[Formula] = []
    defaults: list[Default] = []
    for line_no, line in lines:
        if "/" not in line:
            facts.append(_parse_objective(line, line_no))
            continue
        head, _, cons_text = line.partition("/")
        if "/" in cons_text:
            raise ParseError("more than one '/' in a default", line_no, line.index("/", line.index("/") + 1) + 1)
        if ":" not in head:
            raise ParseError("default is missing ':' before '/'", line_no, 1)
        pre_text, _, just_text = head.partition(":")
        prerequisite = TOP if not pre_text.strip() else _parse_objective(pre_text, line_no)
        justifications = tuple(
            _parse_objective(part, line_no)
            for part in just_text.split(",")
            if part.strip()
        )
        consequent = _parse_objective(cons_text, line_no)
        defaults.append(Default(prerequisite, justifications, consequent))
    try:
        return DefaultTheory.from_parts(facts, defaults, vocabulary)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None


def konolige(dt: DefaultTheory) -> Theory:
    """Purely syntactic translation into the modal language."""
    out: list[Formula] = list(dt.facts)
    for d in dt.defaults:
        conjuncts: list[Formula] = []
        if d.prerequisite != TOP:
            conjuncts.append(Knows(d.prerequisite))
        conjuncts.extend(Not(Knows(Not(j))) for j in d.justifications)
        if conjuncts:
            antecedent = conjuncts[0]
            for c in conjuncts[1:]:
                antecedent = And(antecedent, c)
            out.append(Implies(antecedent, d.consequent))
        else:
            out.append(d.consequent)
    return Theory(dt.vocabulary, tuple(out))


@lru_cache(maxsize=256)
def _theory_masks(dt: DefaultTheory) -> tuple[int, tuple, tuple, tuple]:
    """Model masks of the facts (conjoined), and per default of the
    prerequisite, the justifications and the consequent."""
    vocab = dt.vocabulary
    facts = vocab.full_mask
    for f in dt.facts:
        facts &= models_mask(f, vocab)
    return (
        facts,
        tuple(models_mask(d.prerequisite, vocab) for d in dt.defaults),
        tuple(tuple(models_mask(j, vocab) for j in d.justifications) for d in dt.defaults),
        tuple(models_mask(d.consequent, vocab) for d in dt.defaults),
    )


def gamma_operator(dt: DefaultTheory, e: BeliefState) -> BeliefState:
    """Consequence closure of the facts under the defaults active w.r.t. e.

    A default is applied once its prerequisite is entailed by the
    accumulating state and each justification is satisfiable in e;
    applying it intersects the state with the consequent's models.
    Iterated to a fixpoint (consequents can enable prerequisites).
    """
    b, prereqs, justs, conss = _theory_masks(dt)
    while True:
        nxt = b
        for prereq, just, cons in zip(prereqs, justs, conss):
            if nxt & ~prereq:
                continue
            if all(e.mask & jm for jm in just):
                nxt &= cons
        if nxt == b:
            return BeliefState(dt.vocabulary, b)
        b = nxt


def reiter_extensions(dt: DefaultTheory, max_defaults: int = DEFAULT_SUBSET_CAP) -> list[BeliefState]:
    """All extensions, by checking every consequent-subset candidate.

    Every extension is the closure of the facts plus the consequents of
    its own applied defaults, so enumerating model sets of
    facts + consequent-subsets and keeping the fixpoints of the
    applicability closure is complete.
    """
    if len(dt.defaults) > max_defaults:
        raise ResourceCapError(
            f"{len(dt.defaults)} defaults exceed the subset-enumeration cap {max_defaults}"
        )
    vocab = dt.vocabulary
    facts_mask, _, _, cons = _theory_masks(dt)

    candidates: set[int] = set()
    for bits in range(1 << len(dt.defaults)):
        m = facts_mask
        for i in range(len(dt.defaults)):
            if bits >> i & 1:
                m &= cons[i]
        candidates.add(m)

    out = []
    for m in sorted(candidates):
        cand = BeliefState(vocab, m)
        if gamma_operator(dt, cand) == cand:
            out.append(cand)
    return out


def dl_semantics(dt: DefaultTheory, kind: str,
                 truth: TruthFunctionKind = TruthFunctionKind.KLEENE) -> SemanticsResult:
    """The requested semantics of the translated theory.

    ``weak`` extensions are the expansions of the translation and
    ``reiter`` extensions its stable extensions; ``kk`` and ``wf`` map
    to themselves.
    """
    target = DL_ALIASES.get(kind, kind)
    if target not in SOLVERS:
        raise ValueError(f"unknown default-logic semantics {kind!r}")
    return SOLVERS[target](OperatorContext(konolige(dt), truth))


@dataclass(frozen=True, slots=True)
class AlignReport:
    """Side-by-side results of the direct and translated routes."""

    aligned: bool
    reiter: tuple[BeliefState, ...]
    stable: tuple[BeliefState, ...]


def align_check(dt: DefaultTheory,
                truth: TruthFunctionKind = TruthFunctionKind.KLEENE) -> AlignReport:
    """Compare direct Reiter extensions with stable extensions of the
    translation (they must be equal)."""
    reiter = tuple(reiter_extensions(dt))
    stable = tuple(dl_semantics(dt, "reiter", truth).belief_states())
    return AlignReport(aligned=reiter == stable, reiter=reiter, stable=stable)
