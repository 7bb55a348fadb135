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

The same closures give the K-guess reducts behind the expansion
candidates.  Each distinct x under a K that lies outside any other K is
a guess slot, numbered in compile order (``theory_closures``).  Called
as (None, guess), the closure of such a K x returns (full, 0) or
(0, full) from bit i of guess, i being its slot, and never evaluates x.
So ``run(None, guess)`` is the value of the reduct, the objective
theory in which each of those K x is replaced by its guessed value,
and its true mask is the set of the reduct's models.  The same compile
records, for each member of the theory, the mask of the slots it reads,
so a search over guesses can evaluate a member once its slots are
guessed (``theory_closures``).
"""

from __future__ import annotations

from enum import Enum

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


def _three_valued_knows(vocabulary: Vocabulary, slots: dict, read: list):
    """The K rule of the evaluator, x and y being the (pp, cp) masks:
    K x is true when every pp world satisfies x, false when some cp
    world falsifies it.

    Each distinct x that lies outside any other K is compiled once, and
    the closure of K x is recorded in ``slots[x]``.  Its insertion index
    is its guess slot: called as (None, guess), it reads that bit of the
    guess.  Each such K ORs its slot's bit into ``read[0]``, so the
    caller learns which slots a formula reads by clearing the cell
    before compiling it.  A K nested deeper is compiled with its
    enclosing argument and not looked up: hashing a formula walks all
    of it, so a lookup at every nesting level would cost time quadratic
    in the depth."""
    full = vocabulary.full_mask
    on, off = (full, 0), (0, full)
    nested = False
    bits = {}  # the slot bit of each recorded closure, found without hashing x

    def rule(part, slot=None):
        if not callable(part):  # an objective x: K x reads only its models
            t, fm = part

            def ev_objective(pp, cp):
                if pp is None:
                    return on if cp >> slot & 1 else off
                return (full if pp & ~t == 0 else 0, full if fm & cp else 0)

            return ev_objective

        def ev_knows(pp, cp):
            if pp is None:
                return on if cp >> slot & 1 else off
            t, fm = part(pp, cp)
            return (full if pp & ~t == 0 else 0, full if fm & cp else 0)

        return ev_knows

    def knows(sub: Formula):
        nonlocal nested
        if nested:
            return rule(_compile(sub, vocabulary, knows))
        ev_knows = slots.get(sub)
        if ev_knows is None:
            nested = True
            slot = len(slots)
            ev_knows = slots[sub] = rule(_compile(sub, vocabulary, knows), slot)
            nested = False
            bits[ev_knows] = 1 << slot
        read[0] |= bits[ev_knows]
        return ev_knows

    return knows


def _conjunction(t: Theory, knows, read: list):
    """The closure (x, y) -> (t, f) of the conjunction of t's formulas,
    its constant members folded into the starting masks; the true mask
    of those members; and the (reads, closure) pair of every other
    member, reads being the slots ``knows`` recorded in ``read`` while
    that member compiled."""
    true0, false0 = t.vocabulary.full_mask, 0
    parts = []
    reads = []
    for f in t.formulas:
        read[0] = 0
        part = _compile(f, t.vocabulary, knows)
        if callable(part):
            parts.append(part)
            reads.append(read[0])
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

    return run, true0, list(zip(reads, parts))


def theory_closures(t: Theory):
    """The theory compiled once, as four items:

    * the closure (pp_mask, cp_mask) -> (true_mask, false_mask) of its
      three-valued value;
    * its guess slots, the dict from each distinct x under a K outside
      any other K to the closure of K x, slot i being the i-th key;
    * the models of its objective (K-free) members;
    * the (reads, closure) pair of each other member, in theory order:
      reads has bit i set iff the member holds slot i's K outside any
      other K, and the closure is the member's own, so
      ``closure(None, guess)`` is its reduct's value.

    Recording the reads costs no compile and no hash.  Nothing caches
    these: the caller keeps them while it evaluates the theory and they
    are freed with the caller, as ``OperatorContext`` does for a solve."""
    slots: dict = {}
    read = [0]
    run, objective, formula_reads = _conjunction(
        t, _three_valued_knows(t.vocabulary, slots, read), read)
    return run, slots, objective, formula_reads


def compiled_theory(t: Theory):
    """The closure of the three-valued theory value (``theory_closures``)."""
    return theory_closures(t)[0]


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
    part = _compile(f, vocabulary, _three_valued_knows(vocabulary, {}, [0]))
    return part(pp_mask, cp_mask) if callable(part) else part


def sv_theory_masks(run, vocabulary: Vocabulary, pp_mask: int, cp_mask: int,
                    cap: int = DEFAULT_COMPLETION_CAP) -> tuple[int, int]:
    """Supervaluation value per world, by case analysis over the
    completions cp <= b <= pp.

    ``run`` is the theory's compiled three-valued closure
    (``compiled_theory``), evaluated classically on each completion.

    A raw inconsistent mask pair (oracle only) has no completions, and
    the empty case analysis makes every verdict vacuously unanimous:
    both masks come back full, the four-valued reading that keeps the
    function monotone in the information order.
    """
    full = vocabulary.full_mask
    if cp_mask & ~pp_mask:
        return full, full
    unknown = pp_mask & ~cp_mask
    u = unknown.bit_count()
    if u > cap:
        raise ResourceCapError(
            f"supervaluation over {u} unknown worlds exceeds the completion cap {cap}"
        )
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
# Pointwise API.  Each call compiles its formula or theory afresh; to evaluate
# one at many worlds or states, compile it once (``compiled_theory``).
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
    return _value_at(sv_theory_masks(compiled_theory(t), t.vocabulary,
                                     pb.pp.mask, pb.cp.mask, cap), w.index)


def eval_sv_formula(pb: PartialBeliefState, w: World, f: Formula,
                    cap: int = DEFAULT_COMPLETION_CAP) -> TruthValue3:
    return eval_sv(pb, w, Theory(pb.vocabulary, (f,)), cap)
