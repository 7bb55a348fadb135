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
    OperatorContext,
    RevisionLog,
    kk_closure,
    kk_lfp,
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

def kripke_kleene_extension(ctx: OperatorContext) -> SemanticsResult:
    """The precision-least fixpoint of the three-valued revision, with trace."""
    start = bottom_p(ctx.vocabulary)
    settled: list[tuple[int, str]] = []
    fix = kk_closure(ctx, start, settled)
    trace = DerivationTrace(start, tuple(TraceStep(STEP_KK, m, s) for m, s in settled), fix)
    return SemanticsResult(KK, ctx.truth, (fix,), (trace,))


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

def expansion_candidates(ctx: OperatorContext,
                         max_modal: int = DEFAULT_MODAL_CAP) -> list[BeliefState]:
    """The expansions of the theory, each once, mask-ascending, found by
    a depth-first search over K-guesses split into atom-disjoint groups.

    A guess gives a truth value to every K x that lies outside any other
    K, bit i to slot i of ``ctx.knows_masks``; the reduct replaces each
    of those by its value, which leaves an objective theory.  For each
    member of the theory that is not objective, ``ctx.formula_reads``
    holds the slots it reads and its closure, and ``closure(None,
    guess)[0]`` is the model set of its reduct (``truth.theory_closures``).
    Nothing is compiled here.

    The three-valued (Kleene) Kripke-Kleene state kk = (hi, lo) fixes
    every K x it makes true or false to that value.  The root mask is
    the models of the objective members and of every member that reads
    no undecided slot, evaluated once at the fixed guess.  The undecided
    slots, the members that read them and the atoms they touch are
    merged into atom-disjoint groups (``_groups``): two share a group
    when they share an atom or a slot, the atoms of a slot being those
    of its argument and those of a member the ones outside any K, and
    every other member links its own atoms.

    Each group is searched from the root (``_guess_leaves``): its slots
    are guessed depth first, in slot order, from an explicit stack, and
    a node at depth d holds the root ANDed with the members of the group
    complete at its first d slots; a member is ANDed in at the depth of
    its last slot in the group, so a node costs only the members that
    complete there.  A node is dropped when its mask is 0 or loses a
    world of lo: masks only shrink down the tree.  A leaf, the group's
    slots guessed and its mask m_G, is kept iff the K x of every slot of
    the group, read at (m_G, m_G), returns its bit of the guess.  A
    candidate is the AND m of one kept leaf per group (the root when no
    slot is undecided), kept iff m is not 0 and lo <= m <= hi.  The
    empty state is decided once, on the whole theory: it is kept iff lo
    is 0 and it is an expansion, that is ``kleene_masks(0, 0)`` has no
    true world.

    For a belief state E let g_E be the guess it induces, bit i being
    the value of slot i's K x at (E, E).  Such a K x is
    world-independent, so on the total state (E, E) the theory takes its
    g_E-reduct's value: ``moore_step`` maps E to the models of the
    g_E-reduct, and E is an expansion iff it is the reduct's models
    under its own guess.

    * The groups factor.  A member's reduct is a cylinder over its own
      atoms: its K x are constants, so it reads a world only through the
      atoms outside any K.  At a guess g the reduct's models are then
      m = AND_C P_C(g), one factor per atom-disjoint component C (the
      groups, and the components that hold no undecided slot, whose
      factor is fixed and lies in the root), each a cylinder over C's
      atoms that reads only C's slots.  A group G's leaf mask is m_G =
      P_G(g) AND the other components' fixed factors, so m is the AND of
      the m_G.  If m != 0, every factor is non-empty, and as cylinders
      over disjoint atoms m and m_G have the same projection on G's
      atoms.  The argument x of a slot of G has its atoms in G, so its
      models (a K nested in x read at the same state, by induction on
      the nesting) are a cylinder over G's atoms, and m <= models(x) iff
      m_G <= models(x): each slot's K x reads the same at its group's
      leaf as at m.
    * Sound.  A kept candidate m has lo <= m <= hi, so (m, m) is at
      least as precise as kk.  Kleene evaluation is precision-monotone,
      so every fixed slot reads at (m, m) the value kk gave it, and by
      the above the leaf tests check the undecided slots: g = g_m.  Then
      ``moore_step`` maps m to the models of the g-reduct, which is m,
      and m is an expansion.
    * Complete.  Let E be an expansion.  The total state (E, E) is a
      fixpoint of the Kleene revision, which agrees with the one-step
      revision on total states, and kk is that revision's least fixpoint
      in the precision order, so kk <=_p (E, E): lo <= E <= hi.  If E
      is empty, lo is 0 and E is kept as the empty state.  Otherwise
      precision monotonicity gives g_E the value kk fixed on every slot
      kk decides, and each group's search reaches its part of g_E: every
      node on that path contains E, which is not 0 and contains lo, so
      none is dropped.  Its leaf has m_G containing E and passes, by the
      above, and the AND of these leaves is E, which is kept.
    * Once.  A kept candidate has g = g_m, so two with one mask have one
      guess, and the search visits each guess of a group at most once.

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
    fixed = undecided = 0
    for i, ev_knows in enumerate(knows):
        is_true, is_false = ev_knows(hi, lo)
        if is_true:
            fixed |= 1 << i
        elif not is_false:
            undecided |= 1 << i
    root = ctx.objective_mask
    objective_count = len(ctx.member_atoms) - len(ctx.formula_reads)
    linked = ctx.member_atoms[:objective_count]
    open_members = []
    for (reads, part), atoms in zip(ctx.formula_reads, ctx.member_atoms[objective_count:]):
        if reads & undecided:
            open_members.append((reads, atoms, part))
        else:
            root &= part(None, fixed)[0]
            linked.append(atoms)
    groups = _groups(ctx.slot_atoms, undecided, open_members, linked) if undecided else []
    found = [root]
    for slots, members in groups:
        leaves = _guess_leaves(knows, slots, members, root, fixed, lo)
        found = [m for m in (p & leaf for p in found for leaf in leaves) if m and not lo & ~m]
    found = [m for m in found if m and not lo & ~m and not m & ~hi]
    if not lo and not ctx.kleene_masks(0, 0)[0]:
        found.append(0)
    return [BeliefState(ctx.vocabulary, m) for m in sorted(found)]


def _guess_leaves(knows: list, slots: int, members: list, root: int, guess: int,
                  lo: int) -> list[int]:
    """The masks of the leaves ``expansion_candidates`` keeps for one
    group: its slots ``slots`` guessed depth first from ``root``, the
    other slots at their bits of ``guess``, and each (reads, atoms,
    closure) of ``members`` ANDed in at the depth of its last slot in
    the group."""
    undecided = list(set_bits(slots))
    depth_of = {slot: d for d, slot in enumerate(undecided, 1)}
    completes: list[list] = [[] for _ in range(len(undecided) + 1)]
    for reads, _, part in members:
        completes[depth_of[(reads & slots).bit_length() - 1]].append(part)
    leaves = []
    stack = [(0, guess, root)] if root and not lo & ~root else []
    while stack:
        d, guess, mask = stack.pop()
        if d == len(undecided):
            if all(bool(knows[i](mask, mask)[0]) == bool(guess >> i & 1) for i in undecided):
                leaves.append(mask)
            continue
        bit = 1 << undecided[d]
        d += 1
        for child in (guess, guess | bit):
            m = mask
            for part in completes[d]:
                m &= part(None, child)[0]
            if m and not lo & ~m:
                stack.append((d, child, m))
    return leaves


def _groups(slot_atoms: list[int], undecided: int, open_members: list,
            linked: list[int]) -> list[tuple[int, list]]:
    """The undecided slots and the open members, the (reads, atoms,
    closure) of each member that reads one, merged into atom-disjoint
    groups: one (slots, members) pair per group that holds a slot.

    Two items share a group when they share an atom or a slot.  The
    items are each undecided slot with the atoms of its argument (from
    ``slot_atoms``), each open member with its atoms and its undecided
    reads, and the atoms of every other member (``linked``) alone.  The
    groups stay pairwise disjoint, so merging each item with every group
    it meets builds them in one pass."""
    items = [(atoms, 1 << i, ()) for i, atoms in enumerate(slot_atoms) if undecided >> i & 1]
    items += [(member[1], member[0] & undecided, (member,)) for member in open_members]
    items += [(atoms, 0, ()) for atoms in linked]
    groups: list[tuple[int, int, tuple]] = []
    for atoms, slots, members in items:
        apart = []
        for group in groups:
            if group[0] & atoms or group[1] & slots:
                atoms |= group[0]
                slots |= group[1]
                members += group[2]
            else:
                apart.append(group)
        groups = [*apart, (atoms, slots, members)]
    return [(slots, list(members)) for _, slots, members in groups if slots]


def expansions(ctx: OperatorContext, max_modal: int = DEFAULT_MODAL_CAP) -> SemanticsResult:
    """All total belief states the one-step revision maps to themselves.

    Every candidate already is one; the test is the definition itself,
    re-checked at one revision per expansion."""
    found = [b for b in expansion_candidates(ctx, max_modal)
             if ctx.kleene_masks(b.mask, b.mask)[0] == b.mask]
    return SemanticsResult(EXPANSION, ctx.truth,
                           tuple(PartialBeliefState.total(b) for b in found))


# ---------------------------------------------------------------------------
# Stable extensions
# ---------------------------------------------------------------------------

def stable_extensions(ctx: OperatorContext, max_modal: int = DEFAULT_MODAL_CAP) -> SemanticsResult:
    """The candidates are the expansions (stable states are always
    fixpoints of the one-step revision); each is kept iff its stable
    revision reproduces it."""
    results, traces = [], []
    full = BeliefState.full(ctx.vocabulary)
    for b in expansion_candidates(ctx, max_modal):
        log = RevisionLog()
        if stable_revision(ctx, b, log) != b:   # NOT_STABLE included
            continue
        total = PartialBeliefState.total(b)
        steps = tuple(TraceStep(STEP_STABLE_REMOVAL, m, "f") for m in log.removals)
        results.append(total)
        traces.append(DerivationTrace(PartialBeliefState(full, b), steps, total))
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
        settled: list[tuple[int, str]] = []
        pb = kk_closure(ctx, pb, settled)
        steps += [TraceStep(STEP_KK, m, s) for m, s in settled]
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
