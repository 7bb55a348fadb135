"""Semantic operators on belief states and their fixpoint iterations.

The operators map world sets to world sets.  Masks inside, objects at
the public boundary: every loop here, and the loops of ``semantics`` and
``oracle`` that call in, runs on world masks ((pp, cp) pairs when
partial).  A public function checks the vocabulary of the state it
takes once and builds one object per result.  One revision loop,
``revise_masks``, serves ``stable_revision``, ``oracle.brute_stable``
and ``oracle.algebraic_wf``.

* ``moore_step`` is the classical one-step revision: keep exactly the
  worlds that satisfy the theory under the current belief state.
* ``approx_step`` is its three-valued counterpart on partial states:
  worlds where the theory is false become certainly impossible, worlds
  where it is true become certainly possible, the rest stay unknown.
  It agrees with ``moore_step`` on total states and is monotone in the
  precision order, which makes its iteration from the fully unknown
  state converge to the least fixpoint (``kk_closure``, ``kk_lfp``).
* ``stable_revision`` rebuilds the impossible worlds of a candidate
  belief state b while keeping b's ignorance pinned; b is a stable
  extension exactly when the revision lands back on b.
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
    #: The x of each guess bit of the supervaluation: slot i's as item i,
    #: then that of each K nested in a slot's x (``truth.theory_closures``).
    slot_models: list[int | Callable] = field(init=False, repr=False, compare=False)
    #: The models of the theory's objective members, which
    #: ``kleene_masks`` folds into its starting masks.
    objective_mask: int = field(init=False, repr=False, compare=False)
    #: Item i is the atoms of slot i's x, as a mask of vocabulary indices.
    slot_atoms: list[int] = field(init=False, repr=False, compare=False)
    #: The atoms outside any K of each member, as masks: the objective
    #: members first, then the others in the order of ``formula_reads``.
    member_atoms: list[int] = field(init=False, repr=False, compare=False)
    #: The (reads, closure) pair of every other member, in theory order:
    #: bit i of reads is set iff the member reads guess slot i, and
    #: ``closure(None, guess)`` is the member's reduct value.
    formula_reads: list[tuple[int, Callable[[None, int], tuple[int, int]]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        names = ("kleene_masks", "knows_masks", "slot_models", "objective_mask",
                 "slot_atoms", "member_atoms", "formula_reads")
        for name, value in zip(names, theory_closures(self.theory), strict=True):
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
        return sv_theory_masks(self.kleene_masks, self.slot_models, self.vocabulary,
                               pp_mask, cp_mask)


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
               settled: list[tuple[int, str]] | None = None) -> PartialBeliefState:
    """Least fixpoint of ``approx_step`` above pb in the precision order.

    Iterates ``ctx.status_masks`` on pb's (pp, cp) pair of masks.  Each
    step must give a consistent pair (cp within pp) at least as precise
    as the last: it may only add determined worlds, so the chain is
    strictly increasing until the fixpoint and converges within
    2*|W| + 1 steps.  If ``settled`` is given, every step appends the
    worlds it settles as (mask, status) pairs: the newly certainly
    impossible worlds with "f", then the newly certainly possible ones
    with "t", each only when there are any.
    """
    _require_same_vocabulary(pb.vocabulary, ctx.vocabulary)
    full = ctx.vocabulary.full_mask
    pp, cp = pb.pp.mask, pb.cp.mask
    for _ in range(2 * ctx.vocabulary.world_count + 2):
        t_mask, f_mask = ctx.status_masks(pp, cp)
        next_pp = full & ~f_mask
        if t_mask & ~next_pp:
            raise InternalInvariantError("approx_step gave an inconsistent pair")
        if next_pp & ~pp or cp & ~t_mask:
            raise InternalInvariantError("approx_step chain is not precision-increasing")
        if next_pp == pp and t_mask == cp:
            return PartialBeliefState.of_masks(pb.vocabulary, pp, cp)
        if settled is not None:
            settled += [(m, s) for m, s in ((pp & ~next_pp, "f"), (t_mask & ~cp, "t")) if m]
        pp, cp = next_pp, t_mask
    raise InternalInvariantError("approx_step iteration failed to converge")


def kk_lfp(ctx: OperatorContext) -> PartialBeliefState:
    """The Kripke-Kleene state: the closure of the totally unknown state."""
    return kk_closure(ctx, bottom_p(ctx.vocabulary))


@dataclass
class RevisionLog:
    """Optional collector for the per-round removals of a stable revision."""

    removals: list[int] = field(default_factory=list)


def revise_masks(ctx: OperatorContext, pinned: int,
                 removals: list[int] | None = None) -> int | None:
    """The stable revision loop on masks.

    Starts at the full world set Z = W and repeatedly removes the worlds
    where the theory evaluates to false against (Z, pinned); returns the
    Z where none is left, or None the moment a removal would touch a
    world of ``pinned``, after which (Z, pinned) would be inconsistent.
    Falsity is final along the run (the evaluation is precision-monotone
    and pinned never moves), so removing every refutable world at once
    is safe.  If ``removals`` is given, every round appends the worlds
    it removed.
    """
    z = ctx.vocabulary.full_mask
    while True:
        _, f_mask = ctx.status_masks(z, pinned)
        removed = z & f_mask
        if not removed:
            return z
        if removed & pinned:
            return None
        if removals is not None:
            removals.append(removed)
        z &= ~removed


def stable_revision(ctx: OperatorContext, b: BeliefState,
                    log: RevisionLog | None = None) -> BeliefState | NotStableSignal:
    """Delete refutable worlds under b's pinned ignorance until none remain
    (``revise_masks`` with b pinned).  Returns ``NOT_STABLE`` if the run
    would remove a world of b itself: the pair would stop being
    consistent and could no longer land on b."""
    _require_same_vocabulary(b.vocabulary, ctx.vocabulary)
    z = revise_masks(ctx, b.mask, None if log is None else log.removals)
    return NOT_STABLE if z is None else BeliefState(b.vocabulary, z)


def klfp_moore(ctx: OperatorContext) -> BeliefState:
    """Knowledge-least fixpoint of ``moore_step``, for negative-K theories.

    With only negative K occurrences the operator is monotone in the
    knowledge order, so iterating from the ignorance-maximal full world
    set produces a decreasing chain of world sets whose limit is the
    least fixpoint in knowledge.
    """
    if not only_negative(ctx.theory):
        raise ValueError("klfp_moore requires a theory with only negative K occurrences")
    b = ctx.vocabulary.full_mask
    for _ in range(ctx.vocabulary.world_count + 2):
        nxt = ctx.kleene_masks(b, b)[0]
        if nxt == b:
            return BeliefState(ctx.vocabulary, b)
        b = nxt
    raise InternalInvariantError("moore_step iteration failed to converge")
