"""Brute-force reference implementations, for tests and ``nmr check``.

These deliberately avoid the clever candidate generation used by the
production solvers: ``brute_expansions`` tests every world set inside
the models of the theory's objective members against the fixpoint
definition on its mask, ``brute_stable`` tests each of those
expansions against its own stable revision, and the well-founded
extension is recomputed as the limit of the stable operator on
consistent pairs, under either truth function.  No candidate comes
from the K-guess search, its Kripke-Kleene bound or ``semantics``.
Agreement between the two routes is what ``nmr check`` verifies.
Everything here is exponential in 2^n and capped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, ResourceCapError
from .operators import OperatorContext, revise_masks
from .worlds import BeliefState, PartialBeliefState


#: Largest vocabulary whose world sets are enumerated whatever the
#: budget: 5 atoms would make 2^32 sets.
BRUTE_MAX_ATOMS = 4


@dataclass(frozen=True, slots=True)
class OracleBudget:
    """Largest vocabulary the oracles will touch; the world-set
    enumeration stops at ``BRUTE_MAX_ATOMS`` even under a larger one."""

    max_atoms: int = 4


def _check_budget(ctx: OperatorContext, budget: OracleBudget) -> None:
    n = len(ctx.vocabulary)
    if n > budget.max_atoms:
        raise ResourceCapError(
            f"oracle budget allows {budget.max_atoms} atoms, theory has {n}"
        )


def _check_enumerable(ctx: OperatorContext, budget: OracleBudget) -> None:
    _check_budget(ctx, budget)
    n = len(ctx.vocabulary)
    if n > BRUTE_MAX_ATOMS:
        raise ResourceCapError(
            f"world-set enumeration stops at {BRUTE_MAX_ATOMS} atoms, theory has {n} "
            f"(2^{1 << n} world sets)"
        )


def brute_expansions(ctx: OperatorContext, budget: OracleBudget = OracleBudget()) -> list[BeliefState]:
    """Every world set the one-step revision maps to itself, ascending.

    Only the subsets of o = ``ctx.objective_mask`` are tested, each
    once: ``kleene_masks`` starts its true mask at o and only ANDs into
    it, so ``kleene_masks(m, m)[0] == m`` puts m inside o.  The walk
    m -> ((m | ~o) + 1) & o visits them in ascending order from 0 and
    ends with o itself.
    """
    _check_enumerable(ctx, budget)
    o, m, found = ctx.objective_mask, 0, []
    while True:
        if ctx.kleene_masks(m, m)[0] == m:
            found.append(BeliefState(ctx.vocabulary, m))
        if m == o:
            return found
        m = ((m | ~o) + 1) & o


def brute_stable(ctx: OperatorContext, expansions: list[BeliefState]) -> list[BeliefState]:
    """The members of ``expansions``, the list ``brute_expansions(ctx)``
    returned, that their own stable revision reproduces.

    Every stable extension is among them.  If ``revise_masks(ctx, m)``
    returns m, its run ended at z = m, so no world of m is false at
    (m, m).  Every other world was removed at some (z, m) with z
    containing m, and evaluation is precision-monotone under both
    truth functions, so it is false at the more precise (m, m) too.  At
    an exact pair ``sv`` and ``kleene`` agree and are two-valued, so m
    is ``kleene_masks(m, m)[0]``: an expansion.
    """
    return [b for b in expansions if revise_masks(ctx, b.mask) == b.mask]


def algebraic_wf(ctx: OperatorContext, budget: OracleBudget = OracleBudget()) -> PartialBeliefState:
    """Limit of the stable operator from the least-precise pair (W, 0).

    The stable operator of approximation fixpoint theory (Denecker,
    Marek & Truszczynski 2000), with ``ctx.status_masks`` as the
    approximator under either truth function, maps a consistent pair
    (pp, cp) to (pp', cp'): pp' is the stable revision pinned to cp
    (``revise_masks``), and cp' the limit of z -> the true mask of
    (pp', z) from z = pp'.  From (W, 0) the iteration stays consistent
    and only gains precision, and its limit is the well-founded
    fixpoint; a pair that would be inconsistent is reported as a
    diagnostic rather than silently clamped.
    """
    _check_budget(ctx, budget)
    pp, cp = ctx.vocabulary.full_mask, 0
    for _ in range(2 * ctx.vocabulary.world_count + 2):
        next_pp = revise_masks(ctx, cp)
        if next_pp is None:
            raise InternalInvariantError("stable operator reached an inconsistent pair")
        next_cp = next_pp
        while (z := ctx.status_masks(next_pp, next_cp)[0]) != next_cp:
            if z & ~next_cp:
                raise InternalInvariantError("stable operator's true masks are not decreasing")
            next_cp = z
        if (next_pp, next_cp) == (pp, cp):
            return PartialBeliefState.of_masks(ctx.vocabulary, pp, cp)
        pp, cp = next_pp, next_cp
    raise InternalInvariantError("stable operator iteration failed to converge")
