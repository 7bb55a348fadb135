"""The four semantics: Kripke-Kleene, expansions, stable, well-founded.

Each solver returns a ``SemanticsResult``.  The Kripke-Kleene and
well-founded extensions are unique per theory and may be partial;
expansions and stable extensions are (possibly empty) lists of total
states, canonically ordered by their world-mask encoding.

Derivation traces record how world statuses were settled, one batch per
step, and can be replayed: applying the steps to the initial state must
reproduce the reported result, and ``validate_trace`` re-derives each
step's justification from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, ResourceCapError
from .syntax import collect_modal_subformulas
from .truth import TruthFunctionKind
from .worlds import BeliefState, PartialBeliefState, bottom_p, set_bits
from .operators import (
    NOT_STABLE,
    OperatorContext,
    RevisionLog,
    kk_closure,
    kk_lfp,
    moore_step,
    stable_revision,
)

#: Upper bound on distinct K-subformulas for the K-guess search.
DEFAULT_MODAL_CAP = 20

KK = "kk"
EXPANSION = "expansion"
STABLE = "stable"
WF = "wf"

STEP_KK = "kk"
STEP_MI = "mi"
STEP_STABLE_REMOVAL = "stable-removal"


@dataclass(frozen=True, slots=True)
class TraceStep:
    """A batch of worlds settled in one derivation step."""

    kind: str     # STEP_KK | STEP_MI | STEP_STABLE_REMOVAL
    mask: int     # the settled worlds, as a world mask
    status: str   # "t" or "f"

    @property
    def worlds(self) -> tuple[int, ...]:
        """Canonical indices of the settled worlds, ascending."""
        return tuple(set_bits(self.mask))


@dataclass(frozen=True, slots=True)
class DerivationTrace:
    initial: PartialBeliefState
    steps: tuple[TraceStep, ...]
    final: PartialBeliefState

    def replay(self) -> list[PartialBeliefState]:
        """States after each step, starting from the initial state."""
        states = [self.initial]
        for step in self.steps:
            cur = states[-1]
            if step.status == "t":
                nxt = PartialBeliefState.of_masks(cur.vocabulary, cur.pp.mask,
                                                  cur.cp.mask | step.mask)
            else:
                nxt = PartialBeliefState.of_masks(cur.vocabulary, cur.pp.mask & ~step.mask,
                                                  cur.cp.mask)
            states.append(nxt)
        return states


@dataclass(frozen=True, slots=True)
class SemanticsResult:
    kind: str                                  # KK | EXPANSION | STABLE | WF
    truth: TruthFunctionKind
    results: tuple[PartialBeliefState, ...]
    traces: tuple[DerivationTrace, ...] = ()   # kk/wf: one; stable: one per extension

    def belief_states(self) -> list[BeliefState]:
        """The pp components; for total results these are the extensions themselves."""
        return [r.pp for r in self.results]


# ---------------------------------------------------------------------------
# Kripke-Kleene
# ---------------------------------------------------------------------------

def _kk_closure(ctx: OperatorContext, pb: PartialBeliefState,
                steps: list[TraceStep]) -> PartialBeliefState:
    """``kk_closure`` above pb, appending its steps to the trace steps."""
    changes: list[tuple[int, int]] = []
    fix = kk_closure(ctx, pb, changes)
    for newly_false, newly_true in changes:
        if newly_false:
            steps.append(TraceStep(STEP_KK, newly_false, "f"))
        if newly_true:
            steps.append(TraceStep(STEP_KK, newly_true, "t"))
    return fix


def kripke_kleene_extension(ctx: OperatorContext) -> SemanticsResult:
    """The precision-least fixpoint of the three-valued revision, with trace."""
    start = bottom_p(ctx.vocabulary)
    steps: list[TraceStep] = []
    fix = _kk_closure(ctx, start, steps)
    trace = DerivationTrace(start, tuple(steps), fix)
    return SemanticsResult(KK, ctx.truth, (fix,), (trace,))


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

def expansion_candidates(ctx: OperatorContext,
                         max_modal: int = DEFAULT_MODAL_CAP) -> list[BeliefState]:
    """The expansions of the theory, each once, mask-ascending, found by
    a depth-first search over K-guesses.

    A guess gives a truth value to every K x that lies outside any other
    K, bit i to slot i of ``ctx.knows_masks``; the reduct replaces each
    of those by its value, which leaves an objective theory.  For each
    member of the theory that is not objective, ``ctx.formula_reads``
    holds the slots it reads and its closure, and ``closure(None,
    guess)[0]`` is the model set of its reduct (``truth.theory_closures``).
    Nothing is compiled here.

    The three-valued (Kleene) Kripke-Kleene state kk = (hi, lo) fixes
    every K x it makes true or false to that value.  The undecided
    slots are then guessed depth first, in slot order, from an explicit
    stack.  A node at depth d has the first d undecided slots guessed
    and holds the mask of the members complete so far.  The root mask
    is the models of the objective members and of every member that
    reads no undecided slot, evaluated once at the fixed guess.  Any
    other member is ANDed in at the depth of its last undecided slot,
    so a node costs only the members that complete there.

    A node, the root included, is dropped in two cases.  (1) Its mask
    loses a world of lo: masks only shrink down the tree, so no leaf
    below it contains lo, and every expansion does (below).  (2) Its
    mask is 0 while a decided guess bit is 0: every leaf below has the
    empty mask, where every K x reads true, so the leaf test fails on
    that bit.  A leaf, a total guess g whose reduct has the models m,
    is kept iff m lies in hi and the K x of every undecided slot, read
    at (m, m), returns its bit of g.

    The leaves kept are exactly the expansions, each once.  For a belief
    state E let g_E be the guess it induces, bit i being the value of
    slot i's K x at (E, E).  Such a K x is world-independent, so on the
    total state (E, E) the theory takes its g_E-reduct's value:
    ``moore_step`` maps E to the models of the g_E-reduct.

    * Sound.  A kept leaf (g, m) has lo <= m (case 1 at every level)
      and m <= hi, so (m, m) is at least as precise as kk.  Kleene
      evaluation is precision-monotone, so every fixed slot reads at
      (m, m) the value kk gave it, and the leaf test checks the other
      slots: g = g_m.  Then ``moore_step`` maps m to the models of the
      g-reduct, which is m, and m is an expansion.
    * Complete.  Let E be an expansion.  The total state (E, E) is a
      fixpoint of the Kleene revision, which agrees with the one-step
      revision on total states, and kk is that revision's least fixpoint
      in the precision order, so kk <=_p (E, E): lo <= E <= hi.
      Precision monotonicity again gives g_E the value kk fixed on every
      slot kk decides, so the search reaches each prefix of g_E.  Each
      node on that path ANDs the g_E-reduct values of some members, so
      its mask contains their conjunction E, and with it lo: case 1
      never drops it.  If the mask is 0, then E is empty and g_E is all
      true, so case 2 never drops it either.  At the leaf m = E, which
      lies in hi, and g_E = g_m: the leaf is kept.
    * Once.  A kept leaf has g = g_m, so two kept leaves with one mask
      have one guess, and the search visits each guess at most once.

    An expansion does not depend on the truth function (``moore_step``
    reads total states only), and every stable extension is an
    expansion under either one: its stable revision removes only worlds
    false under it, and evaluates its own worlds to true.

    The ``collect_modal_subformulas`` walk stays only as the guess cap:
    it counts the distinct K arguments, nested ones included, which the
    compile's slots do not, and the benchmark's ``semantics.guesses``
    counter reads that function's result.
    """
    subs = collect_modal_subformulas(ctx.theory)
    if len(subs) > max_modal:
        raise ResourceCapError(
            f"{len(subs)} distinct K-subformulas exceed the guess cap {max_modal}"
        )
    kk = kk_lfp(ctx.kleene_view())
    lo, hi = kk.cp.mask, kk.pp.mask
    knows = list(ctx.knows_masks.values())
    fixed = 0
    undecided: list[int] = []
    for i, ev_knows in enumerate(knows):
        is_true, is_false = ev_knows(hi, lo)
        if is_true:
            fixed |= 1 << i
        elif not is_false:
            undecided.append(i)
    # the undecided bits still unguessed at each depth
    pending = [sum(1 << i for i in undecided[d:]) for d in range(len(undecided) + 1)]
    depth_of = {slot: d for d, slot in enumerate(undecided, 1)}
    completes: list[list] = [[] for _ in pending]
    root = ctx.objective_mask
    for reads, part in ctx.formula_reads:
        open_reads = reads & pending[0]
        if open_reads:
            completes[depth_of[open_reads.bit_length() - 1]].append(part)
        else:
            root &= part(None, fixed)[0]
    every = (1 << len(knows)) - 1

    def dropped(d: int, guess: int, mask: int) -> bool:
        return bool(lo & ~mask) or (not mask and guess | pending[d] != every)

    found = []
    stack = [] if dropped(0, fixed, root) else [(0, fixed, root)]
    while stack:
        d, guess, mask = stack.pop()
        if d == len(undecided):
            if mask & ~hi == 0 and all(
                    bool(knows[i](mask, mask)[0]) == bool(guess >> i & 1) for i in undecided):
                found.append(mask)
            continue
        bit = 1 << undecided[d]
        d += 1
        for child in (guess, guess | bit):
            m = mask
            for part in completes[d]:
                m &= part(None, child)[0]
            if not dropped(d, child, m):
                stack.append((d, child, m))
    return [BeliefState(ctx.vocabulary, m) for m in sorted(found)]


def expansions(ctx: OperatorContext, max_modal: int = DEFAULT_MODAL_CAP) -> SemanticsResult:
    """All total belief states the one-step revision maps to themselves.

    Every candidate already is one; the test is the definition itself,
    re-checked at one revision per expansion."""
    found = [b for b in expansion_candidates(ctx, max_modal) if moore_step(ctx, b) == b]
    return SemanticsResult(EXPANSION, ctx.truth,
                           tuple(PartialBeliefState.total(b) for b in found))


# ---------------------------------------------------------------------------
# Stable extensions
# ---------------------------------------------------------------------------

def stable_extensions(ctx: OperatorContext, max_modal: int = DEFAULT_MODAL_CAP) -> SemanticsResult:
    """The candidates are the expansions (stable states are always
    fixpoints of the one-step revision); each is kept iff its stable
    revision reproduces it."""
    results = []
    traces = []
    full = BeliefState.full(ctx.vocabulary)
    for b in expansion_candidates(ctx, max_modal):
        log = RevisionLog()
        outcome = stable_revision(ctx, b, log)
        if outcome is NOT_STABLE or outcome != b:
            continue
        steps = tuple(TraceStep(STEP_STABLE_REMOVAL, m, "f") for m in log.removals)
        results.append(PartialBeliefState.total(b))
        traces.append(DerivationTrace(PartialBeliefState(full, b), steps,
                                      PartialBeliefState.total(b)))
    return SemanticsResult(STABLE, ctx.truth, tuple(results), tuple(traces))


# ---------------------------------------------------------------------------
# Well-founded extension
# ---------------------------------------------------------------------------

def greatest_unfounded_set(ctx: OperatorContext, pb: PartialBeliefState) -> int:
    """Mask of the largest set U of unknown worlds that can jointly be
    assumed certainly possible: every member must evaluate the theory
    to true once all of U is so assumed.

    Computed as the greatest fixpoint of that self-supporting condition
    by downward iteration from all unknown worlds (the condition is
    monotone in U, so the limit contains every unfounded set).
    """
    unknown = pb.unknown_mask
    u = unknown
    for _ in range(ctx.vocabulary.world_count + 2):
        t_mask, _ = ctx.status_masks(pb.pp.mask, pb.cp.mask | u)
        nxt = t_mask & unknown
        if nxt == u:
            return u
        if nxt & ~u:
            raise InternalInvariantError("unfounded-set iteration is not decreasing")
        u = nxt
    raise InternalInvariantError("unfounded-set iteration failed to converge")


def well_founded_extension(ctx: OperatorContext) -> SemanticsResult:
    """Alternate the Kripke-Kleene closure with maximize-ignorance steps.

    Every pass closes under the three-valued revision, then turns the
    greatest unfounded set into certainly possible worlds; the run
    halts when that set is empty.  Each maximize-ignorance step only
    ever adds certainly possible worlds, and a later contradiction of
    one would break the precision-increasing chain, which is checked.
    """
    start = bottom_p(ctx.vocabulary)
    steps: list[TraceStep] = []
    pb = start
    for _ in range(ctx.vocabulary.world_count + 2):
        pb = _kk_closure(ctx, pb, steps)
        u = greatest_unfounded_set(ctx, pb)
        if not u:
            break
        steps.append(TraceStep(STEP_MI, u, "t"))
        pb = pb.with_certainly_possible(u)
    else:
        raise InternalInvariantError("well-founded iteration failed to converge")
    trace = DerivationTrace(start, tuple(steps), pb)
    return SemanticsResult(WF, ctx.truth, (pb,), (trace,))


#: The solver of each semantics, by name.
SOLVERS = {
    KK: kripke_kleene_extension,
    EXPANSION: expansions,
    STABLE: stable_extensions,
    WF: well_founded_extension,
}


# ---------------------------------------------------------------------------
# Trace replay and validation
# ---------------------------------------------------------------------------

def replay_trace(trace: DerivationTrace) -> PartialBeliefState:
    """Structurally replay the steps; the result must equal the recorded final state."""
    final = trace.replay()[-1]
    if final != trace.final:
        raise InternalInvariantError("trace replay does not reproduce the final state")
    return final


def validate_trace(ctx: OperatorContext, trace: DerivationTrace) -> None:
    """Re-derive every step's justification.

    A kk step may only settle unknown worlds, to the value the theory
    actually takes there; an mi step must name a self-supporting set of
    unknown worlds; a stable-removal step may only delete worlds where
    the theory is false.  Raises on the first violation.
    """
    states = trace.replay()
    for step, state in zip(trace.steps, states):
        if step.kind == STEP_KK:
            if step.mask & ~state.unknown_mask:
                raise InternalInvariantError("kk step touches a settled world")
            t_mask, f_mask = ctx.status_masks(state.pp.mask, state.cp.mask)
            want = t_mask if step.status == "t" else f_mask
            if step.mask & ~want:
                raise InternalInvariantError("kk step not justified by the truth function")
        elif step.kind == STEP_MI:
            if step.status != "t" or step.mask & ~state.unknown_mask:
                raise InternalInvariantError("mi step must make unknown worlds possible")
            t_mask, _ = ctx.status_masks(state.pp.mask, state.cp.mask | step.mask)
            if step.mask & ~t_mask:
                raise InternalInvariantError("mi step set is not unfounded")
        elif step.kind == STEP_STABLE_REMOVAL:
            if step.status != "f" or step.mask & ~state.pp.mask:
                raise InternalInvariantError("stable removal of an already impossible world")
            _, f_mask = ctx.status_masks(state.pp.mask, state.cp.mask)
            if step.mask & ~f_mask:
                raise InternalInvariantError("stable removal not justified")
        else:
            raise InternalInvariantError(f"unknown trace step kind {step.kind!r}")
    if states[-1] != trace.final:
        raise InternalInvariantError("trace replay does not reproduce the final state")
