"""Brute-force reference implementations, for tests and ``nmr check``.

These deliberately avoid the clever candidate generation used by the
production solvers: expansions and stable extensions are found by
testing every subset of worlds against the definition on its mask,
and the well-founded extension is recomputed as the limit of the
alternating stable-revision pair iteration.  Agreement between the two
routes is what ``nmr check`` verifies.  Everything here is exponential
in 2^n and capped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantError, ResourceCapError
from .operators import OperatorContext, revise_masks
from .truth import TruthFunctionKind
from .worlds import BeliefState, PartialBeliefState


#: Largest vocabulary whose world sets are enumerated whatever the
#: budget: 5 atoms would make 2^32 sets.
BRUTE_MAX_ATOMS = 4


@dataclass(frozen=True, slots=True)
class OracleBudget:
    """Largest vocabulary the oracles will touch; the 2^(2^n) subset
    enumerations stop at ``BRUTE_MAX_ATOMS`` even under a larger one."""

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
    """Every subset of worlds the one-step revision maps to itself."""
    _check_enumerable(ctx, budget)
    return [BeliefState(ctx.vocabulary, m) for m in range(ctx.vocabulary.full_mask + 1)
            if ctx.kleene_masks(m, m)[0] == m]


def brute_stable(ctx: OperatorContext, budget: OracleBudget = OracleBudget()) -> list[BeliefState]:
    """Every subset of worlds reproduced by its own stable revision."""
    _check_enumerable(ctx, budget)
    return [BeliefState(ctx.vocabulary, m) for m in range(ctx.vocabulary.full_mask + 1)
            if revise_masks(ctx, m, m) == m]


def algebraic_wf(ctx: OperatorContext, budget: OracleBudget = OracleBudget()) -> PartialBeliefState:
    """Limit of (x, y) -> (S(y), S(x)) from the least-precise pair.

    S is the stable revision with its second coordinate pinned to an
    arbitrary mask and no abort: ``revise_masks`` with ``stop = 0``.
    The limit of this alternating iteration is the well-founded
    fixpoint; it must be a consistent pair, and an inconsistent limit
    is reported as a diagnostic rather than silently clamped.

    Three-valued contexts only.  The alternating construction relies on
    the revision operator being symmetric in its two coordinates; the
    supervaluation operator is not (its completion interval is
    direction-sensitive), and its alternating limit can differ from the
    process-computed well-founded extension.
    """
    if ctx.truth is not TruthFunctionKind.KLEENE:
        raise ValueError("algebraic_wf is defined for the three-valued truth function only")
    _check_budget(ctx, budget)
    x, y = ctx.vocabulary.full_mask, 0
    for _ in range(2 * ctx.vocabulary.world_count + 2):
        nx, ny = revise_masks(ctx, y, 0), revise_masks(ctx, x, 0)
        if (nx, ny) == (x, y):
            break
        x, y = nx, ny
    else:
        raise InternalInvariantError("alternating stable iteration failed to converge")
    if y & ~x:
        raise InternalInvariantError(
            "alternating stable iteration converged on an inconsistent pair"
        )
    return PartialBeliefState.of_masks(ctx.vocabulary, x, y)
