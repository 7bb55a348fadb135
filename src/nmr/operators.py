"""Semantic operators on belief states and their fixpoint iterations.

* ``moore_step`` is the classical one-step revision: keep exactly the
  worlds that satisfy the theory under the current belief state.
* ``approx_step`` is its three-valued counterpart on partial states:
  worlds where the theory is false become certainly impossible, worlds
  where it is true become certainly possible, the rest stay unknown.
  It agrees with ``moore_step`` on total states and is monotone in the
  precision order, which makes its iteration from the fully unknown
  state converge to the least fixpoint (``kk_closure``, ``kk_lfp``).
* ``stable_revision`` rebuilds the impossible worlds of a candidate
  belief state b while keeping b's ignorance pinned: starting from all
  worlds, it repeatedly deletes the worlds where the theory is false
  relative to (current, b).  b is a stable extension exactly when the
  iteration lands back on b.
* ``klfp_moore`` iterates ``moore_step`` downward from the full world
  set; for theories whose K occurrences are all negative the operator
  is monotone, so this reaches its knowledge-least fixpoint.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

from .errors import InternalInvariantError
from .syntax import Formula, Theory, only_negative
from .truth import TruthFunctionKind, sv_theory_masks, theory_closures
from .worlds import (
    BeliefState,
    PartialBeliefState,
    Vocabulary,
    _require_same_vocabulary,
    bottom_p,
    leq_p,
)


@dataclass(frozen=True, slots=True)
class OperatorContext:
    """A theory plus the truth function its operators evaluate with."""

    theory: Theory
    truth: TruthFunctionKind = TruthFunctionKind.KLEENE
    #: The theory's compiled three-valued evaluator, built once here and
    #: held by nothing else, so it is freed with the context.
    kleene_masks: Callable[[int, int], tuple[int, int]] = field(
        init=False, repr=False, compare=False)
    #: The guess slots of ``kleene_masks``: the closure of K x for each
    #: distinct x that lies outside any other K, slot i being the i-th
    #: key (``truth.theory_closures``).
    knows_masks: dict[Formula, Callable[[int, int], tuple[int, int]]] = field(
        init=False, repr=False, compare=False)
    #: The models of the theory's objective members, which
    #: ``kleene_masks`` folds into its starting masks.
    objective_mask: int = field(init=False, repr=False, compare=False)
    #: The (reads, closure) pair of every other member, in theory order:
    #: bit i of reads is set iff the member reads guess slot i, and
    #: ``closure(None, guess)`` is the member's reduct value.
    formula_reads: list[tuple[int, Callable[[int, int], tuple[int, int]]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        names = ("kleene_masks", "knows_masks", "objective_mask", "formula_reads")
        for name, value in zip(names, theory_closures(self.theory)):
            object.__setattr__(self, name, value)

    def kleene_view(self) -> "OperatorContext":
        """This theory under the three-valued truth function, sharing this
        context's compiled closures."""
        if self.truth is TruthFunctionKind.KLEENE:
            return self
        view = copy.copy(self)
        object.__setattr__(view, "truth", TruthFunctionKind.KLEENE)
        return view

    @property
    def vocabulary(self) -> Vocabulary:
        return self.theory.vocabulary

    def status_masks(self, pp_mask: int, cp_mask: int) -> tuple[int, int]:
        if self.truth is TruthFunctionKind.KLEENE:
            return self.kleene_masks(pp_mask, cp_mask)
        return sv_theory_masks(self.kleene_masks, self.vocabulary, pp_mask, cp_mask)


class NotStableSignal:
    """Returned by ``stable_revision`` when the candidate is unreachable.

    A normal return variant, not an error: it reports that the
    derivation deleted a world of the candidate itself, after which the
    candidate can never be reproduced.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_STABLE"


NOT_STABLE = NotStableSignal()


def moore_step(ctx: OperatorContext, b: BeliefState) -> BeliefState:
    """All worlds satisfying the theory classically under b."""
    _require_same_vocabulary(b.vocabulary, ctx.vocabulary)
    return BeliefState(b.vocabulary, ctx.kleene_masks(b.mask, b.mask)[0])


def approx_step(ctx: OperatorContext, pb: PartialBeliefState) -> PartialBeliefState:
    """One three-valued revision step; always yields a consistent pair."""
    _require_same_vocabulary(pb.vocabulary, ctx.vocabulary)
    t_mask, f_mask = ctx.status_masks(pb.pp.mask, pb.cp.mask)
    full = ctx.vocabulary.full_mask
    return PartialBeliefState.of_masks(pb.vocabulary, full & ~f_mask, t_mask)


def kk_closure(ctx: OperatorContext, pb: PartialBeliefState,
               changes: list[tuple[int, int]] | None = None) -> PartialBeliefState:
    """Least fixpoint of ``approx_step`` above pb in the precision order.

    Each step may only add determined worlds, so the chain is strictly
    increasing until the fixpoint and converges within 2*|W| + 1 steps.
    If ``changes`` is given, every step appends its pair of world masks
    (newly certainly impossible, newly certainly possible).
    """
    for _ in range(2 * ctx.vocabulary.world_count + 2):
        nxt = approx_step(ctx, pb)
        if not leq_p(pb, nxt):
            raise InternalInvariantError("approx_step chain is not precision-increasing")
        if nxt == pb:
            return pb
        if changes is not None:
            changes.append((pb.pp.mask & ~nxt.pp.mask, nxt.cp.mask & ~pb.cp.mask))
        pb = nxt
    raise InternalInvariantError("approx_step iteration failed to converge")


def kk_lfp(ctx: OperatorContext) -> PartialBeliefState:
    """The Kripke-Kleene state: the closure of the totally unknown state."""
    return kk_closure(ctx, bottom_p(ctx.vocabulary))


@dataclass
class RevisionLog:
    """Optional collector for the per-round removals of a stable revision."""

    removals: list[int] = field(default_factory=list)


def stable_revision(ctx: OperatorContext, b: BeliefState,
                    log: RevisionLog | None = None) -> BeliefState | NotStableSignal:
    """Delete refutable worlds under b's pinned ignorance until none remain.

    Starts at the full world set Z = W and repeatedly removes the worlds
    where the theory evaluates to false against (Z, b).  Falsity is
    final along the run (the evaluation is precision-monotone and b
    never moves), so removing every refutable world at once is safe.
    The run aborts with ``NOT_STABLE`` the moment it would remove a
    world of b itself: the pair would stop being consistent and the
    iteration could no longer land on b.
    """
    _require_same_vocabulary(b.vocabulary, ctx.vocabulary)
    z = ctx.vocabulary.full_mask
    while True:
        _, f_mask = ctx.status_masks(z, b.mask)
        removed = z & f_mask
        if not removed:
            return BeliefState(b.vocabulary, z)
        if removed & b.mask:
            return NOT_STABLE
        if log is not None:
            log.removals.append(removed)
        z &= ~removed


def klfp_moore(ctx: OperatorContext) -> BeliefState:
    """Knowledge-least fixpoint of ``moore_step``, for negative-K theories.

    With only negative K occurrences the operator is monotone in the
    knowledge order, so iterating from the ignorance-maximal full world
    set produces a decreasing chain of world sets whose limit is the
    least fixpoint in knowledge.
    """
    if not only_negative(ctx.theory):
        raise ValueError("klfp_moore requires a theory with only negative K occurrences")
    b = BeliefState.full(ctx.vocabulary)
    for _ in range(ctx.vocabulary.world_count + 2):
        nxt = moore_step(ctx, b)
        if nxt == b:
            return b
        b = nxt
    raise InternalInvariantError("moore_step iteration failed to converge")

