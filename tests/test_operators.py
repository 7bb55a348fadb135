import random

import pytest

from nmr.errors import InternalInvariantError, VocabularyMismatchError
from nmr.operators import (
    NOT_STABLE,
    OperatorContext,
    RevisionLog,
    approx_step,
    kk_lfp,
    klfp_moore,
    moore_step,
    revise_masks,
    stable_revision,
)
from nmr.syntax import parse_theory
from nmr.truth import TruthFunctionKind
from nmr.worlds import BeliefState, PartialBeliefState, Vocabulary, bottom_p, leq_p

from helpers import bstate, pstate, rand_belief_state, rand_partial_state, rand_theory, refine

VP = Vocabulary(("P",))
VPQ = Vocabulary(("P", "Q"))


def ctx_of(text, truth=TruthFunctionKind.KLEENE):
    return OperatorContext(parse_theory(text), truth)


def test_moore_step_liar():
    ctx = ctx_of("~K P -> P")
    assert moore_step(ctx, bstate(VP, ("P",))) == bstate(VP, (), ("P",))


def test_moore_step_truth_sayer_self_support():
    ctx = ctx_of("K P -> P")
    assert moore_step(ctx, bstate(VP, ("P",))) == bstate(VP, ("P",))


def test_moore_step_vacuous_knowledge_of_empty_state():
    ctx = ctx_of("K P")
    assert moore_step(ctx, BeliefState.empty(VP)) == BeliefState.full(VP)


def test_approx_step_liar_from_bottom():
    ctx = ctx_of("~K P -> P")
    assert approx_step(ctx, bottom_p(VP)) == pstate(VP, [(), ("P",)], [("P",)])


def test_approx_step_truth_sayer_from_bottom():
    ctx = ctx_of("K P -> P")
    assert approx_step(ctx, bottom_p(VP)) == pstate(VP, [(), ("P",)], [("P",)])


def test_approx_step_coincides_with_moore_on_total_states():
    rng = random.Random(7)
    for _ in range(100):
        t = rand_theory(rng, ["P", "Q"])
        ctx = OperatorContext(t)
        b = rand_belief_state(rng, VPQ)
        stepped = approx_step(ctx, PartialBeliefState.total(b))
        m = moore_step(ctx, b)
        assert stepped.pp == m and stepped.cp == m


def test_kk_lfp_blocked_default():
    ctx = ctx_of("vocab: P Q\nP\n~K P -> Q\n")
    assert kk_lfp(ctx) == pstate(VPQ, [("P",), ("P", "Q")], [("P",), ("P", "Q")])


def test_kk_lfp_iff_stays_at_bottom():
    ctx = ctx_of("K P <-> Q")
    assert kk_lfp(ctx) == bottom_p(VPQ)


def test_kk_lfp_ungrounded_claim_stays_at_bottom():
    ctx = ctx_of("K P")
    assert kk_lfp(ctx) == bottom_p(VP)


def test_stable_revision_reproduces_intended_state():
    ctx = ctx_of("vocab: P Q\nP\n~K P -> Q\nK Q -> Q\n")
    b = bstate(VPQ, ("P",), ("P", "Q"))
    log = RevisionLog()
    assert stable_revision(ctx, b, log) == b
    assert log.removals == [0b0101]  # the two worlds violating P, in one round


def test_stable_revision_one_round_for_mutual_defaults():
    ctx = ctx_of("vocab: P Q\n~K P -> Q\n~K Q -> P\n")
    b = bstate(VPQ, ("P",), ("P", "Q"))
    log = RevisionLog()
    assert stable_revision(ctx, b, log) == b
    assert len(log.removals) == 1


def test_stable_revision_overshoots_self_supported_state():
    ctx = ctx_of("K P -> P")
    assert stable_revision(ctx, bstate(VP, ("P",))) == bstate(VP, (), ("P",))


def test_stable_revision_signals_unreachable_candidate():
    ctx = ctx_of("~K P -> P")
    assert stable_revision(ctx, BeliefState.full(VP)) is NOT_STABLE


def test_klfp_moore_truth_sayer():
    ctx = ctx_of("K P -> P")
    assert klfp_moore(ctx) == bstate(VP, (), ("P",))


def test_klfp_moore_objective_theory():
    ctx = ctx_of("vocab: P Q\nP\n")
    assert klfp_moore(ctx) == bstate(VPQ, ("P",), ("P", "Q"))


def test_klfp_moore_chained_rules_derive_nothing():
    ctx = ctx_of("vocab: P Q R\nK P -> Q\nK Q -> R\n")
    assert klfp_moore(ctx) == BeliefState.full(Vocabulary(("P", "Q", "R")))


def test_klfp_moore_rejects_positive_occurrences():
    with pytest.raises(ValueError):
        klfp_moore(ctx_of("~K P -> P"))


def test_approx_step_result_is_always_consistent_and_monotone():
    rng = random.Random(19)
    vocab = Vocabulary(("P", "Q", "R"))
    for _ in range(120):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q", "R"]))
        pb1 = rand_partial_state(rng, vocab)
        pb2 = refine(rng, pb1)
        r1, r2 = approx_step(ctx, pb1), approx_step(ctx, pb2)
        assert r1.cp.issubset(r1.pp)  # constructor re-checks this too
        assert leq_p(r1, r2)


def test_approx_step_monotone_under_supervaluation():
    rng = random.Random(29)
    for _ in range(60):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q"]), TruthFunctionKind.SUPERVALUATION)
        pb1 = rand_partial_state(rng, VPQ)
        pb2 = refine(rng, pb1)
        assert leq_p(approx_step(ctx, pb1), approx_step(ctx, pb2))


def test_stable_revision_is_antitone_where_defined():
    rng = random.Random(37)
    for _ in range(150):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q"]))
        b1 = rand_belief_state(rng, VPQ)
        b2 = BeliefState(VPQ, b1.mask | rng.randrange(VPQ.full_mask + 1))
        r1, r2 = stable_revision(ctx, b1), stable_revision(ctx, b2)
        if isinstance(r1, BeliefState) and isinstance(r2, BeliefState):
            assert r2.issubset(r1)


def test_kk_lfp_is_a_fixpoint():
    rng = random.Random(43)
    for _ in range(100):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q"]))
        fix = kk_lfp(ctx)
        assert approx_step(ctx, fix) == fix


def test_operators_reject_a_state_over_another_vocabulary():
    ctx = ctx_of("K P -> P")
    with pytest.raises(VocabularyMismatchError, match="vocabulary mismatch"):
        moore_step(ctx, BeliefState.full(VPQ))
    with pytest.raises(VocabularyMismatchError, match="vocabulary mismatch"):
        approx_step(ctx, bottom_p(VPQ))
    with pytest.raises(VocabularyMismatchError, match="vocabulary mismatch"):
        stable_revision(ctx, BeliefState.full(VPQ))


def _small_theories(seed, count=60):
    """Seeded contexts over one to three atoms, three-valued."""
    rng = random.Random(seed)
    for _ in range(count):
        yield OperatorContext(rand_theory(rng, ["P", "Q", "R"][:rng.randint(1, 3)]))


def _patch_status(ctx, change):
    """Make ctx's status function return change(pp, cp, t_mask, f_mask)."""
    real = ctx.kleene_masks
    object.__setattr__(ctx, "kleene_masks",
                       lambda pp, cp: change(pp, cp, *real(pp, cp)))


def test_kk_lfp_refuses_a_step_that_shrinks_cp():
    # Until cp first gains a world the patched steps are the real ones;
    # the step after that drops all of it, which must not pass unseen.
    checked = 0
    for ctx in _small_theories(11):
        if not kk_lfp(ctx).cp.mask:
            continue
        _patch_status(ctx, lambda pp, cp, t_mask, f_mask: (t_mask & ~cp, f_mask))
        with pytest.raises(InternalInvariantError, match="not precision-increasing"):
            kk_lfp(ctx)
        checked += 1
    assert checked >= 10


def test_kk_lfp_refuses_an_inconsistent_pair():
    # World 0 reads both true and false: certainly possible, yet impossible.
    for ctx in _small_theories(12, 20):
        _patch_status(ctx, lambda pp, cp, t_mask, f_mask: (t_mask | 1, f_mask | 1))
        with pytest.raises(InternalInvariantError, match="approx_step gave an inconsistent pair"):
            kk_lfp(ctx)


def _revision_written_out(ctx, pinned_mask):
    """The stable revision loop written out on its own, run to its end:
    its result, and whether some round removed a pinned world."""
    z, hit = ctx.vocabulary.full_mask, False
    while True:
        _, f_mask = ctx.status_masks(z, pinned_mask)
        removed = z & f_mask
        if not removed:
            return z, hit
        hit |= bool(removed & pinned_mask)
        z &= ~removed


def test_revise_masks_aborts_exactly_when_a_pinned_world_goes():
    # Every pinned mask, under both truth functions: None iff the loop
    # would remove a pinned world, else the loop's result.
    outcomes = set()
    for t in (ctx.theory for ctx in _small_theories(13)):
        for truth in TruthFunctionKind:
            ctx = OperatorContext(t, truth)
            for pinned in range(ctx.vocabulary.full_mask + 1):
                z, hit = _revision_written_out(ctx, pinned)
                assert revise_masks(ctx, pinned) == (None if hit else z), (t, truth, pinned)
                outcomes.add(hit)
    assert outcomes == {False, True}
