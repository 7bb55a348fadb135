"""Two-valued, three-valued, and supervaluation truth functions.

Everything funnels through one formula compiler.  It folds every
subtree whose value does not depend on the epistemic operator into a
constant pair of masks (worlds where it is true, worlds where it is
false) and turns the rest into a closure (x, y) -> (true_mask,
false_mask).  Propositional connectives follow the strong three-valued
tables.  What ``K x`` means is a rule the caller supplies.

The evaluator's rule reads x and y as a pair of world masks (pp, cp),
and ``K x`` is world-independent:

* ``K x`` is false when some certainly possible world falsifies x,
* true when every potentially possible world satisfies x,
* unknown otherwise.

On a total state (pp == cp) every formula is two-valued and the
evaluation is exactly classical S5 over the possible-world set, so the
same evaluator serves ``eval_s5``.

The supervaluation function instead evaluates the theory classically in
every total completion b with cp <= b <= pp and keeps only verdicts all
completions agree on.  It is at least as precise as the three-valued
evaluation and strictly more precise on case-split tautologies, at the
cost of 2^u classical passes for u unknown worlds.

``guess_evaluator`` serves the expansion candidates with a second rule:
each K x outside any other K reads one bit of a guess, so the same
compiler yields the classical models of every K-guess reduct.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .errors import ResourceCapError
from .syntax import (
    And,
    Atom,
    Bottom,
    Formula,
    Iff,
    Implies,
    Knows,
    Not,
    Or,
    Theory,
    Top,
    objective,
)
from .worlds import (
    BeliefState,
    PartialBeliefState,
    Vocabulary,
    World,
    atom_worlds_mask,
    _require_same_vocabulary,
)

#: Largest number of unknown worlds the supervaluation will case-split on.
DEFAULT_COMPLETION_CAP = 20


class TruthValue3(Enum):
    T = "t"
    F = "f"
    U = "u"

    @classmethod
    def from_bool(cls, b: bool) -> "TruthValue3":
        return cls.T if b else cls.F

    def leq_p(self, other: "TruthValue3") -> bool:
        """Precision order: u below both t and f, t and f incomparable."""
        return self is TruthValue3.U or self is other

    def __str__(self) -> str:
        return self.value


class TruthFunctionKind(Enum):
    KLEENE = "kleene"
    SUPERVALUATION = "sv"


# ---------------------------------------------------------------------------
# Mask-level evaluation
# ---------------------------------------------------------------------------

def _connective(kind: type, a, b=None):
    """The closure (x, y) -> (t, f) of a connective over its operands'
    closures, by the strong three-valued tables."""
    if kind is Not:
        def ev_not(x, y):
            t, fm = a(x, y)
            return fm, t
        return ev_not
    if kind is And:
        def ev_and(x, y):
            t1, f1 = a(x, y)
            t2, f2 = b(x, y)
            return t1 & t2, f1 | f2
        return ev_and
    if kind is Or:
        def ev_or(x, y):
            t1, f1 = a(x, y)
            t2, f2 = b(x, y)
            return t1 | t2, f1 & f2
        return ev_or
    if kind is Implies:
        def ev_implies(x, y):
            t1, f1 = a(x, y)
            t2, f2 = b(x, y)
            return f1 | t2, t1 & f2
        return ev_implies
    if kind is Iff:
        def ev_iff(x, y):
            t1, f1 = a(x, y)
            t2, f2 = b(x, y)
            return (t1 & t2) | (f1 & f2), (t1 & f2) | (f1 & t2)
        return ev_iff
    raise TypeError(f"not a connective: {kind!r}")


def _closure(part):
    """A compiled part as a closure, a constant pair lifted to one."""
    return part if callable(part) else lambda x, y: part


def _compile(f: Formula, vocabulary: Vocabulary, knows):
    """Specialize a formula to its (true_mask, false_mask) pair when the
    ``K`` rule cannot change it, else to a closure (x, y) -> (t, f).

    ``knows(x)`` compiles ``K x``; whether and how it compiles x is up
    to the rule.  The fixpoint loops re-evaluate the same formulas
    thousands of times, so every K-free subtree is evaluated here once.
    """
    full = vocabulary.full_mask
    if isinstance(f, Atom):
        t = atom_worlds_mask(vocabulary.index(f.name), len(vocabulary))
        return t, full & ~t
    if isinstance(f, Top):
        return full, 0
    if isinstance(f, Bottom):
        return 0, full
    if isinstance(f, Knows):
        return knows(f.sub)
    if isinstance(f, Not):
        parts = (_compile(f.sub, vocabulary, knows),)
    else:
        parts = (_compile(f.left, vocabulary, knows), _compile(f.right, vocabulary, knows))
    ev = _connective(type(f), *map(_closure, parts))
    return ev if any(map(callable, parts)) else ev(0, 0)


def _three_valued_knows(vocabulary: Vocabulary):
    """The K rule of the evaluator, x and y being the (pp, cp) masks:
    K x is true when every pp world satisfies x, false when some cp
    world falsifies it."""
    full = vocabulary.full_mask

    def knows(sub: Formula):
        part = _compile(sub, vocabulary, knows)
        if not callable(part):  # an objective x: K x reads only its models
            t, fm = part
            return lambda pp, cp: (full if pp & ~t == 0 else 0, full if fm & cp else 0)

        def ev_knows(pp, cp):
            t, fm = part(pp, cp)
            return (full if pp & ~t == 0 else 0, full if fm & cp else 0)

        return ev_knows

    return knows


def _conjunction(t: Theory, knows):
    """The closure (x, y) -> (t, f) of the conjunction of t's formulas,
    its constant members folded into the starting masks."""
    true0, false0 = t.vocabulary.full_mask, 0
    parts = []
    for f in t.formulas:
        part = _compile(f, t.vocabulary, knows)
        if callable(part):
            parts.append(part)
        else:
            true0 &= part[0]
            false0 |= part[1]

    def run(x: int, y: int) -> tuple[int, int]:
        true_acc, false_acc = true0, false0
        for part in parts:
            tm, fm = part(x, y)
            true_acc &= tm
            false_acc |= fm
        return true_acc, false_acc

    return run


@lru_cache(maxsize=4096)
def _compiled_formula(f: Formula, vocabulary: Vocabulary):
    return _compile(f, vocabulary, _three_valued_knows(vocabulary))


@lru_cache(maxsize=1024)
def compiled_theory(t: Theory):
    """The closure (pp_mask, cp_mask) -> (true_mask, false_mask) of the
    three-valued theory value, compiled once per theory."""
    return _conjunction(t, _three_valued_knows(t.vocabulary))


def formula_status_masks(f: Formula, pp_mask: int, cp_mask: int,
                         vocabulary: Vocabulary) -> tuple[int, int]:
    """(true_mask, false_mask) of a formula across all worlds.

    The two masks are computed independently: the K truth check reads
    over pp, the K falsity check over cp.  On the consistent pairs used
    everywhere outside the oracle the checks are mutually exclusive and
    this is exactly the strong three-valued evaluation.  On raw mask
    pairs (cp not contained in pp, reachable only from the oracle's
    alternating iteration) both checks may fire at once; that is the
    standard four-valued reading, and the one that keeps the evaluation
    monotone in the information order, which the convergence of the
    alternating iteration depends on.
    """
    part = _compiled_formula(f, vocabulary)
    return part(pp_mask, cp_mask) if callable(part) else part


def sv_theory_masks(t: Theory, pp_mask: int, cp_mask: int,
                    cap: int = DEFAULT_COMPLETION_CAP) -> tuple[int, int]:
    """Supervaluation value per world, by case analysis over the
    completions cp <= b <= pp.

    A raw inconsistent mask pair (oracle only) has no completions, and
    the empty case analysis makes every verdict vacuously unanimous:
    both masks come back full, the four-valued reading that keeps the
    function monotone in the information order.
    """
    full = t.vocabulary.full_mask
    if cp_mask & ~pp_mask:
        return full, full
    unknown = pp_mask & ~cp_mask
    u = unknown.bit_count()
    if u > cap:
        raise ResourceCapError(
            f"supervaluation over {u} unknown worlds exceeds the completion cap {cap}"
        )
    run = compiled_theory(t)
    true_acc = full
    false_acc = full
    part = 0
    while True:  # every subset part of the unknown worlds, the empty one first
        sat, _ = run(cp_mask | part, cp_mask | part)
        true_acc &= sat
        false_acc &= full & ~sat
        if not true_acc and not false_acc:
            break
        part = (part - unknown) & unknown
        if not part:
            break
    return true_acc, false_acc


def models_mask(f: Formula, vocabulary: Vocabulary) -> int:
    """Mask of the classical models of an objective formula."""
    if not objective(f):
        raise ValueError(f"models_mask needs an objective formula, got {f!r}")
    tm, _ = formula_status_masks(f, 0, 0, vocabulary)
    return tm


def models(formulas, vocabulary: Vocabulary) -> BeliefState:
    """Classical models of a set of objective formulas."""
    mask = vocabulary.full_mask
    for f in formulas:
        mask &= models_mask(f, vocabulary)
    return BeliefState(vocabulary, mask)


# ---------------------------------------------------------------------------
# Evaluation under a K-guess
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def guess_evaluator(t: Theory, guessed: tuple[Formula, ...]):
    """Compile the K-guess reducts of t into one closure.

    Returns ``(run, read)``: ``run(guess)`` is the mask of the models of
    the objective theory obtained by replacing every K x that lies
    outside any other K with bit i of ``guess``, where ``guessed[i] ==
    x``; ``read`` is the mask of the guess bits that can matter.  A K
    nested inside another one is never read.
    """
    bit_of = {x: i for i, x in enumerate(guessed)}
    full = t.vocabulary.full_mask
    on, off = (full, 0), (0, full)
    read = 0

    def knows(sub: Formula):
        nonlocal read
        i = bit_of[sub]
        read |= 1 << i
        return lambda guess, _: on if guess >> i & 1 else off

    reduct = _conjunction(t, knows)
    return (lambda guess: reduct(guess, 0)[0]), read


# ---------------------------------------------------------------------------
# Pointwise API
# ---------------------------------------------------------------------------

def _value_at(masks: tuple[int, int], index: int) -> TruthValue3:
    tm, fm = masks
    if tm >> index & 1:
        return TruthValue3.T
    if fm >> index & 1:
        return TruthValue3.F
    return TruthValue3.U


def eval_s5(b: BeliefState, w: World, f: Formula) -> bool:
    """Classical satisfaction at w under belief state b; w need not lie in b."""
    _require_same_vocabulary(b.vocabulary, w.vocabulary)
    tm, _ = formula_status_masks(f, b.mask, b.mask, b.vocabulary)
    return bool(tm >> w.index & 1)


def entails(b: BeliefState, f: Formula) -> bool:
    """True iff every world of b satisfies f (so the empty state entails everything)."""
    tm, _ = formula_status_masks(f, b.mask, b.mask, b.vocabulary)
    return b.mask & ~tm == 0


def eval_kleene(pb: PartialBeliefState, w: World, f: Formula) -> TruthValue3:
    _require_same_vocabulary(pb.vocabulary, w.vocabulary)
    return _value_at(formula_status_masks(f, pb.pp.mask, pb.cp.mask, pb.vocabulary), w.index)


def eval_kleene_theory(pb: PartialBeliefState, w: World, t: Theory) -> TruthValue3:
    _require_same_vocabulary(pb.vocabulary, w.vocabulary)
    _require_same_vocabulary(pb.vocabulary, t.vocabulary)
    return _value_at(compiled_theory(t)(pb.pp.mask, pb.cp.mask), w.index)


def eval_sv(pb: PartialBeliefState, w: World, t: Theory,
            cap: int = DEFAULT_COMPLETION_CAP) -> TruthValue3:
    _require_same_vocabulary(pb.vocabulary, w.vocabulary)
    _require_same_vocabulary(pb.vocabulary, t.vocabulary)
    return _value_at(sv_theory_masks(t, pb.pp.mask, pb.cp.mask, cap), w.index)


def eval_sv_formula(pb: PartialBeliefState, w: World, f: Formula,
                    cap: int = DEFAULT_COMPLETION_CAP) -> TruthValue3:
    return eval_sv(pb, w, Theory(pb.vocabulary, (f,)), cap)
