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

The supervaluation function instead keeps only the verdicts on which
the classical evaluations in every total completion b with
cp <= b <= pp agree.  It is at least as precise as the three-valued
evaluation and strictly more precise on case-split tautologies.  A
completion matters only through the guess it induces on the guess slots
below and the K nested in them, so ``sv_theory_masks`` evaluates one
reduct per guess some completion induces, not the theory once per
completion.

The same closures give the K-guess reducts behind the expansion
candidates and the supervaluation.  Each distinct x under a K that lies
outside any other K is a guess slot, numbered in compile order
(``theory_closures``).  At any belief pair such a K x is
world-independent, so a member of the theory is a function of the
values of the slots it reads: the compile keeps one table per member
that is not objective, keyed by those values, and a call evaluates
each slot once and a member only on a table miss.  Called as (None,
guess), the theory closure takes the total valuation guess, bit i being
slot i's value, and never evaluates a slot's x: ``run(None, guess)`` is
the value of the reduct, the objective theory in which each of those
K x is replaced by its guessed value, and its true mask is the set of
the reduct's models.  Both kinds of call share the tables.  The same
compile records, for each member of the theory, the mask of the slots
it reads and its atoms outside any K, and for each slot the models of
x when x is objective and the atoms of x, so a search over guesses can
evaluate a member once its slots are guessed and split the slots into
atom-disjoint groups (``semantics.expansion_candidates``).
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

#: The supervaluation is refused past this many unknown worlds and guess bits.
DEFAULT_COMPLETION_CAP = 20

#: Most bits of masks the member tables of one compiled theory keep
#: (``theory_closures``): 4 MiB, which at 16 atoms is 256 entries.
TABLE_BIT_BUDGET = 1 << 25


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
    to the rule.  Every atom met is ORed, as its vocabulary bit, into
    ``knows.cell[1]``, so a rule learns the atoms of what it compiles.
    The fixpoint loops re-evaluate the same formulas thousands of
    times, so every K-free subtree is evaluated here once.
    """
    full = vocabulary.full_mask
    if isinstance(f, Atom):
        i = vocabulary.index(f.name)
        knows.cell[1] |= 1 << i
        t = atom_worlds_mask(i, len(vocabulary))
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


def _k_value(full: int, part):
    """The closure (pp, cp) -> (t, f) of K x, x being compiled to
    ``part``: K x is true when every pp world satisfies x, false when
    some cp world falsifies it."""
    if not callable(part):  # an objective x: K x reads only its models
        fm = part[1]  # the complement of the models

        def ev_objective(pp, cp):
            return (0 if pp & fm else full, full if fm & cp else 0)

        return ev_objective

    def ev_knows(pp, cp):
        t, fm = part(pp, cp)
        return (full if pp & ~t == 0 else 0, full if fm & cp else 0)

    return ev_knows


def _three_valued_knows(vocabulary: Vocabulary):
    """The K rule of the evaluator, x and y being the (pp, cp) masks:
    every K, nested or not, is ``_k_value`` of its argument."""
    full = vocabulary.full_mask

    def knows(sub: Formula):
        return _k_value(full, _compile(sub, vocabulary, knows))

    knows.cell = [0, 0]
    return knows


def theory_closures(t: Theory):
    """The theory compiled once, as seven items:

    * ``run``, the closure (pp_mask, cp_mask) -> (true_mask, false_mask)
      of its three-valued value, and (None, guess) -> the value of its
      guess-reduct;
    * its guess slots, the dict from each distinct x under a K outside
      any other K to the closure (pp, cp) -> (t, f) of K x, slot i being
      the i-th key;
    * the x of each supervaluation guess bit (``sv_theory_masks``):
      slot i's as item i, then that of each K nested in a slot's x, in
      reverse compile order; each is x's models when x is objective,
      else x's closure, in which at (None, guess) item j's K reads bit j;
    * the models of its objective (K-free) members;
    * the list whose item i is the atoms of slot i's x, as a mask of
      vocabulary indices, nested K included;
    * the atoms outside any K of each member, as masks: the objective
      members first, then the others in the order of the next item;
    * the (reads, closure) pair of each other member, in theory order:
      reads has bit i set iff the member holds slot i's K outside any
      other K, and ``closure(None, guess)`` is its reduct's value.

    A member reads the world only through its atoms and each slot's K x
    only through that slot's value, which is world-independent.  So its
    value is a function of the slots in its reads, and ``run`` works in
    three steps: it evaluates each slot once, to the mask t_bits of the
    slots that are true and f_bits of those that are false (an
    objective slot straight from its models); it looks each member up in
    its table under the key (t_bits & reads) | (f_bits & reads) << m, m
    being the slot count; and only on a miss it calls the member's
    closure as (None, key), where the K x of slot i reads bit i of each
    half of the key.  A (None, guess) call is the total valuation
    t_bits = guess, f_bits = its complement, under the same key, so
    every caller of ``run`` and of the member closures shares one table
    per member.  The tables of one compile keep at most
    ``TABLE_BIT_BUDGET`` bits of masks, an entry counting two masks of
    one bit per world; a miss past that is evaluated and not kept.

    Each distinct x under a K outside any other K is compiled once, with
    ``_k_value`` at (pp, cp) for each K nested in it.  A nested K is
    compiled with its enclosing argument and not looked up, so one that
    occurs twice has two guess bits: hashing a formula walks all of it,
    so a lookup at every nesting level would cost time quadratic in the
    depth.  Recording the reads, the arguments and the atoms costs no
    compile and no hash.  Nothing global caches these: the caller keeps
    them while it evaluates the theory and they are freed with the
    caller, as ``OperatorContext`` does for a solve."""
    vocabulary = t.vocabulary
    full = vocabulary.full_mask
    slots: dict = {}
    slot_parts: list = []  # x of each slot, compiled
    nested_parts: list = []  # x of each K nested in a slot's x, compiled
    slot_atoms: list = []
    bits = {}  # the slot bit of each recorded closure, found without hashing x
    cell = [0, 0]  # the slots a member reads, and the atoms met (``_compile``)
    nested = False

    def slot_value(part, bit: int):
        """K x of slot ``bit``: ``_k_value`` at (pp, cp), and at (None,
        key) its bit of each half of the key.  Written out rather than
        wrapping ``_k_value``, so a slot costs the compile one closure."""
        if not callable(part):
            fm = part[1]

            def ev_objective(pp, cp):
                if pp is None:
                    return (full if cp & bit else 0, full if cp >> m & bit else 0)
                return (0 if pp & fm else full, full if fm & cp else 0)

            return ev_objective

        def ev_knows(pp, cp):
            if pp is None:
                return (full if cp & bit else 0, full if cp >> m & bit else 0)
            t, fm = part(pp, cp)
            return (full if pp & ~t == 0 else 0, full if fm & cp else 0)

        return ev_knows

    def nested_value(part, k: int):
        """The k-th nested K, guess bit last - k: ``_k_value``, and at
        (None, guess) that bit."""
        ev = _k_value(full, part)

        def ev_nested(pp, cp):
            if pp is None:
                return (full, 0) if cp >> last - k & 1 else (0, full)
            return ev(pp, cp)

        return ev_nested

    def knows(sub: Formula):
        nonlocal nested
        if nested:
            part = _compile(sub, vocabulary, knows)
            nested_parts.append(part)
            return nested_value(part, len(nested_parts) - 1)
        ev_slot = slots.get(sub)
        if ev_slot is None:
            nested, outer, cell[1] = True, cell[1], 0
            part = _compile(sub, vocabulary, knows)
            nested = False
            slot_atoms.append(cell[1])
            cell[1] = outer
            bit = 1 << len(slot_parts)
            slot_parts.append(part)
            ev_slot = slots[sub] = slot_value(part, bit)
            bits[ev_slot] = bit
        cell[0] |= bits[ev_slot]
        return ev_slot

    knows.cell = cell
    true0, false0 = full, 0
    objective_atoms, member_atoms, reads, parts = [], [], [], []
    for f in t.formulas:
        cell[0] = cell[1] = 0
        part = _compile(f, vocabulary, knows)
        if callable(part):
            parts.append(part)
            reads.append(cell[0])
            member_atoms.append(cell[1])
        else:
            true0 &= part[0]
            false0 |= part[1]
            objective_atoms.append(cell[1])
    m = len(slots)
    every = (1 << m) - 1
    last = m + len(nested_parts) - 1
    slot_models = [p if callable(p) else p[0] for p in slot_parts + nested_parts[::-1]]
    # each slot's two key bits, with x's false mask or the closure of K x
    objective_slots = [(1 << i, 1 << m + i, part[1]) for i, part in enumerate(slot_parts)
                       if not callable(part)]
    nested_slots = [(1 << i, 1 << m + i, ev_slot)
                    for i, (part, ev_slot) in enumerate(zip(slot_parts, slots.values()))
                    if callable(part)]
    tables = [{} for _ in parts]
    members = [(r | r << m, table, part) for r, table, part in zip(reads, tables, parts)]
    room = TABLE_BIT_BUDGET // (2 * vocabulary.world_count)

    def miss(table: dict, key: int, part):
        """A member's value under ``key``, kept in its table while the
        budget allows."""
        nonlocal room
        value = part(None, key)
        if room:
            table[key] = value
            room -= 1
        return value

    def run(x, y):
        if x is None:
            key = y & every
            key |= (every ^ key) << m
        else:
            key = 0
            for t_bit, f_bit, fm in objective_slots:
                if not x & fm:
                    key |= t_bit
                if y & fm:
                    key |= f_bit
            for t_bit, f_bit, ev_slot in nested_slots:
                is_true, is_false = ev_slot(x, y)
                if is_true:
                    key |= t_bit
                if is_false:
                    key |= f_bit
        true_acc, false_acc = true0, false0
        for rr, table, part in members:
            k = key & rr
            tm, fm = table.get(k) or miss(table, k, part)
            true_acc &= tm
            false_acc |= fm
        return true_acc, false_acc

    def member(r: int, table: dict, part):
        def tabled(_, guess):
            t_bits = guess & r
            key = t_bits | (r ^ t_bits) << m
            return table.get(key) or miss(table, key, part)

        return tabled

    formula_reads = [(r, member(r, table, part)) for r, table, part in zip(reads, tables, parts)]
    return (run, slots, slot_models, true0, slot_atoms, objective_atoms + member_atoms,
            formula_reads)


def compiled_theory(t: Theory):
    """The closure of the three-valued theory value (``theory_closures``)."""
    return theory_closures(t)[0]


def formula_status_masks(f: Formula, pp_mask: int, cp_mask: int,
                         vocabulary: Vocabulary) -> tuple[int, int]:
    """(true_mask, false_mask) of a formula across all worlds.

    The two masks are computed independently: the K truth check reads
    over pp, the K falsity check over cp.  On consistent pairs, the only
    ones any solver or oracle passes, the checks are mutually exclusive
    and this is exactly the strong three-valued evaluation.  On a raw
    mask pair (cp not contained in pp) from a direct caller both checks
    may fire at once; that is the standard four-valued reading, the one
    that keeps the evaluation monotone in the information order.
    """
    part = _compile(f, vocabulary, _three_valued_knows(vocabulary))
    return part(pp_mask, cp_mask) if callable(part) else part


def sv_theory_masks(run, slot_models: list, vocabulary: Vocabulary, pp_mask: int,
                    cp_mask: int, cap: int = DEFAULT_COMPLETION_CAP) -> tuple[int, int]:
    """Supervaluation value per world: the verdicts on which the
    classical evaluations at every completion cp <= b <= pp agree.

    ``run`` is the theory's compiled three-valued closure and item i of
    ``slot_models`` the argument x_i of guess bit i (``theory_closures``):
    slot i for i < m, a K nested in a slot's x above.  M_i(g), the
    models of x_i with each K in it taking its bit of g, is x_i's models
    or the true mask of x_i's closure at (None, g), and reads only the
    bits above i.

    Each K x_i is world-independent, so a completion b matters only
    through its guess g_b, bit i set iff b <= M_i(g_b) (each K in x_i
    takes its bit of g_b at (b, b), by induction from the last bit
    down), and at (b, b) the theory takes the value of its g_b-reduct,
    whose models ``run(None, g_b)[0]`` gives.  The true mask is then the
    AND of the reducts' models over the achievable guesses
    G = {g_b : cp <= b <= pp}, and the false mask the AND of their
    complements.  A guess g is achievable iff U = pp & AND{M_i(g) :
    g_i = 1} contains cp and U is no subset of M_j(g) for any g_j = 0.
    If g = g_b, then cp <= b <= U, and U <= M_j(g) would give
    b <= M_j(g).  Conversely b = U lies in [cp, pp], and g_U = g by
    induction from the last bit down: where g_U agrees with g above i,
    x_i has the models M_i(g) at (U, U), which contain U iff g_i = 1.

    The search guesses the bits from the last down on an explicit stack.
    A node holds its guessed bits, U and the M_j(g) of the bits guessed
    false, and is dropped when cp leaves U or U <= M_j(g) for one of
    them.  Both are final, as U only shrinks below a node, and every
    other node reaches a leaf: guess each lower bit true iff
    U <= M_k(g), which leaves U as it is.  A node has the bits of g_U
    above its depth, so the nodes at one depth have distinct U in
    [cp, pp]: there are at most min(2^d, 2^u) of them after d guessed
    bits, for u unknown worlds, and at most min(2^n, 2^u) leaves for n
    bits.  The search is refused only when both u and n exceed ``cap``.

    A raw inconsistent mask pair, which no solver or oracle passes, has
    no completions, and the empty case analysis makes every verdict
    vacuously unanimous: both masks come back full, the four-valued
    reading that keeps the function monotone in the information order.
    """
    full = vocabulary.full_mask
    if cp_mask & ~pp_mask:
        return full, full
    unknown = (pp_mask & ~cp_mask).bit_count()
    if unknown > cap and len(slot_models) > cap:
        raise ResourceCapError(f"supervaluation over {unknown} unknown worlds and "
                               f"{len(slot_models)} guess bits exceeds the cap {cap}")
    true_acc = false_acc = full
    stack = [(len(slot_models), 0, pp_mask, ())]
    while stack and (true_acc or false_acc):
        d, guess, u, zeros = stack.pop()
        if not d:
            sat = run(None, guess)[0]
            true_acc &= sat
            false_acc &= full & ~sat
            continue
        d -= 1
        models_d = slot_models[d]
        if callable(models_d):  # M_d(g): the bits above d are guessed
            models_d = models_d(None, guess)[0]
        if u & ~models_d:  # else U <= M_d and bit d cannot read false
            stack.append((d, guess, u, (*zeros, models_d)))
        one = u & models_d
        if not cp_mask & ~one and all(one & ~m for m in zeros):
            stack.append((d, guess | 1 << d, one, zeros))
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
    run, _, slot_models, *_ = theory_closures(t)
    return _value_at(sv_theory_masks(run, slot_models, t.vocabulary,
                                     pb.pp.mask, pb.cp.mask, cap), w.index)


def eval_sv_formula(pb: PartialBeliefState, w: World, f: Formula,
                    cap: int = DEFAULT_COMPLETION_CAP) -> TruthValue3:
    return eval_sv(pb, w, Theory(pb.vocabulary, (f,)), cap)
