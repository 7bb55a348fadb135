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

#: Upper bound on distinct K-subformulas for the 2^m expansion guess loop.
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
    """Model sets of the K-guess reducts the Kripke-Kleene state allows,
    deduplicated, mask-ascending.

    A guess gives a truth value to every K x that lies outside any other
    K; the reduct replaces each of those by its value, which leaves an
    objective theory.  Only guesses that agree with the three-valued
    (Kleene) Kripke-Kleene state kk are tried: a K x that kk makes true
    or false is fixed to that value, the undecided ones are enumerated,
    and a reduct whose models fall outside [kk.cp, kk.pp] is dropped.

    Nothing is compiled here: slot i of ``ctx.knows_masks`` is bit i of
    a guess, and ``ctx.kleene_masks(None, guess)`` is the reduct's value
    (``truth.theory_closures``).

    Complete for expansions, and so for stable extensions (each stable
    extension is an expansion, under either truth function: its stable
    revision removes only worlds false under it, and evaluates its own
    worlds to true).  Let E be an expansion.  The total state (E, E) is
    a fixpoint of the Kleene revision, which agrees with the one-step
    revision on total states, and kk is that revision's least fixpoint
    in the precision order, so kk <=_p (E, E): cp <= E <= pp.  Kleene
    evaluation is precision-monotone, so every K x that kk decides has
    that same value under E.  The guess E induces therefore agrees with
    the fixed values, and under it the theory reduces to an objective
    theory whose models are exactly E.  Both the enumeration and the
    interval filter keep E.  Sound in the weaker sense needed here: a
    candidate is only a candidate, and the callers test each one.
    """
    subs = collect_modal_subformulas(ctx.theory)
    if len(subs) > max_modal:
        raise ResourceCapError(
            f"{len(subs)} distinct K-subformulas exceed the guess cap {max_modal}"
        )
    kk = kk_lfp(ctx.kleene_view())
    lo, hi = kk.cp.mask, kk.pp.mask
    fixed = free = 0
    for i, ev_knows in enumerate(ctx.knows_masks.values()):
        is_true, is_false = ev_knows(hi, lo)
        if is_true:
            fixed |= 1 << i
        elif not is_false:
            free |= 1 << i
    masks: set[int] = set()
    choice = 0
    while True:  # every subset of the undecided guess bits, the empty one first
        m = ctx.kleene_masks(None, fixed | choice)[0]
        if lo & ~m == 0 and m & ~hi == 0:
            masks.add(m)
        choice = (choice - free) & free
        if not choice:
            break
    return [BeliefState(ctx.vocabulary, m) for m in sorted(masks)]


def expansions(ctx: OperatorContext, max_modal: int = DEFAULT_MODAL_CAP) -> SemanticsResult:
    """All total belief states the one-step revision maps to themselves."""
    found = [b for b in expansion_candidates(ctx, max_modal) if moore_step(ctx, b) == b]
    return SemanticsResult(EXPANSION, ctx.truth,
                           tuple(PartialBeliefState.total(b) for b in found))


# ---------------------------------------------------------------------------
# Stable extensions
# ---------------------------------------------------------------------------

def stable_extensions(ctx: OperatorContext, max_modal: int = DEFAULT_MODAL_CAP) -> SemanticsResult:
    """Candidates come from the expansion guesses (stable states are
    always fixpoints of the one-step revision); each is kept iff its
    stable revision reproduces it."""
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
