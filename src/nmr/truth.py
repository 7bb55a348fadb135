"""Two-valued, three-valued, and supervaluation truth functions.

Everything funnels through one vectorized evaluator that computes, for a
formula and a pair of world masks (pp, cp), the mask of worlds where the
formula is true and the mask where it is false (unknown = neither).
Propositional connectives follow the strong three-valued tables.  The
epistemic operator is world-independent:

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

``guess_evaluator`` serves the expansion candidates: it compiles the
classical models of a theory once its outermost K-subformulas are
replaced by the bits of a guess.
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
    children,
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

def _compile(f: Formula, vocabulary: Vocabulary):
    """Specialize a formula to a closure (pp_mask, cp_mask) -> (t, f);
    the fixpoint loops re-evaluate the same formulas thousands of times."""
    full = vocabulary.full_mask
    if isinstance(f, Atom):
        t = atom_worlds_mask(vocabulary.index(f.name), len(vocabulary))
        fm = full & ~t
        return lambda pp, cp: (t, fm)
    if isinstance(f, Top):
        return lambda pp, cp: (full, 0)
    if isinstance(f, Bottom):
        return lambda pp, cp: (0, full)
    if isinstance(f, Not):
        sub = _compile(f.sub, vocabulary)

        def ev_not(pp, cp):
            t, fm = sub(pp, cp)
            return fm, t

        return ev_not
    if isinstance(f, Knows):
        sub = _compile(f.sub, vocabulary)

        def ev_knows(pp, cp):
            t, fm = sub(pp, cp)
            return (full if pp & ~t == 0 else 0, full if fm & cp else 0)

        return ev_knows
    left, right = _compile(f.left, vocabulary), _compile(f.right, vocabulary)
    if isinstance(f, And):

        def ev_and(pp, cp):
            t1, f1 = left(pp, cp)
            t2, f2 = right(pp, cp)
            return t1 & t2, f1 | f2

        return ev_and
    if isinstance(f, Or):

        def ev_or(pp, cp):
            t1, f1 = left(pp, cp)
            t2, f2 = right(pp, cp)
            return t1 | t2, f1 & f2

        return ev_or
    if isinstance(f, Implies):

        def ev_implies(pp, cp):
            t1, f1 = left(pp, cp)
            t2, f2 = right(pp, cp)
            return f1 | t2, t1 & f2

        return ev_implies
    if isinstance(f, Iff):

        def ev_iff(pp, cp):
            t1, f1 = left(pp, cp)
            t2, f2 = right(pp, cp)
            return (t1 & t2) | (f1 & f2), (t1 & f2) | (f1 & t2)

        return ev_iff
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=4096)
def _compiled_formula(f: Formula, vocabulary: Vocabulary):
    return _compile(f, vocabulary)


@lru_cache(maxsize=1024)
def compiled_theory(t: Theory):
    """The closure (pp_mask, cp_mask) -> (true_mask, false_mask) of the
    three-valued theory value, compiled once per theory."""
    parts = tuple(_compiled_formula(f, t.vocabulary) for f in t.formulas)
    full = t.vocabulary.full_mask

    def run(pp_mask: int, cp_mask: int) -> tuple[int, int]:
        true_acc = full
        false_acc = 0
        for part in parts:
            tm, fm = part(pp_mask, cp_mask)
            true_acc &= tm
            false_acc |= fm
        return true_acc, false_acc

    return run


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
    return _compiled_formula(f, vocabulary)(pp_mask, cp_mask)


def kleene_theory_masks(t: Theory, pp_mask: int, cp_mask: int) -> tuple[int, int]:
    """Three-valued theory value per world: false if a member is false,
    true if all members are true."""
    return compiled_theory(t)(pp_mask, cp_mask)


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

_GUESS_OPS = {
    Not: lambda full, a: full & ~a,
    And: lambda full, a, b: a & b,
    Or: lambda full, a, b: a | b,
    Implies: lambda full, a, b: (full & ~a) | b,
    Iff: lambda full, a, b: full & ~(a ^ b),
}


def _compile_guess(f: Formula, vocabulary: Vocabulary, bit_of: dict[Formula, int],
                   read: set[int]):
    """Models of f once each K x outside any other K is replaced by bit
    ``bit_of[x]`` of a guess: a constant mask when f reads no bit, else a
    closure guess -> mask.  Adds the bits it reads to ``read``."""
    full = vocabulary.full_mask
    if isinstance(f, Atom):
        return atom_worlds_mask(vocabulary.index(f.name), len(vocabulary))
    if isinstance(f, Top):
        return full
    if isinstance(f, Bottom):
        return 0
    if isinstance(f, Knows):
        i = bit_of[f.sub]
        read.add(i)
        return lambda g: full if g >> i & 1 else 0
    op = _GUESS_OPS[type(f)]
    parts = [_compile_guess(c, vocabulary, bit_of, read) for c in children(f)]
    if all(isinstance(p, int) for p in parts):
        return op(full, *parts)
    fns = [p if callable(p) else (lambda g, p=p: p) for p in parts]
    if len(fns) == 1:
        (a,) = fns
        return lambda g: op(full, a(g))
    a, b = fns
    return lambda g: op(full, a(g), b(g))


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
    read: set[int] = set()
    fixed = t.vocabulary.full_mask
    parts = []
    for f in t.formulas:
        part = _compile_guess(f, t.vocabulary, bit_of, read)
        if callable(part):
            parts.append(part)
        else:
            fixed &= part

    def run(guess: int) -> int:
        mask = fixed
        for part in parts:
            mask &= part(guess)
        return mask

    return run, sum(1 << i for i in read)


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
    return _value_at(kleene_theory_masks(t, pb.pp.mask, pb.cp.mask), w.index)


def eval_sv(pb: PartialBeliefState, w: World, t: Theory,
            cap: int = DEFAULT_COMPLETION_CAP) -> TruthValue3:
    _require_same_vocabulary(pb.vocabulary, w.vocabulary)
    _require_same_vocabulary(pb.vocabulary, t.vocabulary)
    return _value_at(sv_theory_masks(t, pb.pp.mask, pb.cp.mask, cap), w.index)


def eval_sv_formula(pb: PartialBeliefState, w: World, f: Formula,
                    cap: int = DEFAULT_COMPLETION_CAP) -> TruthValue3:
    return eval_sv(pb, w, Theory(pb.vocabulary, (f,)), cap)
