import gc
import random
import weakref

import pytest

from nmr.errors import ResourceCapError, VocabularyMismatchError
from nmr.operators import OperatorContext
from nmr.semantics import expansions, stable_extensions
from nmr.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Implies,
    Knows,
    Not,
    Or,
    Top,
    children,
    collect_modal_subformulas,
    parse_formula,
    parse_theory,
)
from nmr.truth import (
    TruthFunctionKind,
    TruthValue3,
    compiled_theory,
    entails,
    eval_kleene,
    eval_kleene_theory,
    eval_s5,
    eval_sv,
    eval_sv_formula,
    formula_status_masks,
    models,
    models_mask,
)
from nmr.worlds import BeliefState, PartialBeliefState, Vocabulary, bottom_p

from helpers import (
    bstate,
    pstate,
    rand_formula,
    rand_partial_state,
    rand_theory,
    refine,
    truth_value,
    value_leq_p,
    world,
)

T, F, U = TruthValue3.T, TruthValue3.F, TruthValue3.U
VP = Vocabulary(("P",))
VPQ = Vocabulary(("P", "Q"))
KP = Knows(Atom("P"))


def test_eval_s5_knowledge_holds_when_all_worlds_agree():
    b = bstate(VP, ("P",))
    assert eval_s5(b, world(VP, ("P",)), KP)


def test_eval_s5_knowledge_fails_with_a_counterworld():
    b = bstate(VP, (), ("P",))
    assert not eval_s5(b, world(VP, ("P",)), KP)


def test_eval_s5_nested_knowledge_outside_world():
    b = bstate(VP, (), ("P",))
    f = parse_formula("K (K P -> P)")
    assert eval_s5(b, world(VP, ()), f)


def test_eval_s5_value_of_knowledge_is_world_independent():
    rng = random.Random(17)
    for _ in range(100):
        f = Knows(rand_formula(rng, ["P", "Q"], 3))
        b = BeliefState(VPQ, rng.randrange(VPQ.full_mask + 1))
        values = {eval_s5(b, w, f) for w in BeliefState.full(VPQ).worlds()}
        assert len(values) == 1


def test_entails():
    b = bstate(VPQ, ("P",), ("P", "Q"))
    assert entails(b, Atom("P"))
    assert not entails(b, Atom("Q"))
    assert entails(BeliefState.empty(VPQ), parse_formula("false"))


def test_eval_kleene_knowledge_unknown_at_bottom():
    assert eval_kleene(bottom_p(VP), world(VP, ()), KP) is U


def test_eval_kleene_theory_false_when_a_member_is_false():
    t = parse_theory("vocab: P Q\nP\n~K P -> Q\n")
    assert eval_kleene_theory(bottom_p(VPQ), world(VPQ, ("Q",)), t) is F
    conj = parse_formula("P & (~K P -> Q)")
    assert eval_kleene(bottom_p(VPQ), world(VPQ, ("Q",)), conj) is F


def test_eval_kleene_knowledge_true_over_potential_worlds():
    pb = pstate(VPQ, [("P",), ("P", "Q")], [("P", "Q")])
    assert eval_kleene(pb, world(VPQ, ("P",)), KP) is T


def test_eval_kleene_theory_truth_sayer():
    t = parse_theory("K P -> P")
    assert eval_kleene_theory(bottom_p(VP), world(VP, ()), t) is U
    assert eval_kleene_theory(bottom_p(VP), world(VP, ("P",)), t) is T


def test_eval_kleene_theory_contradiction():
    t = parse_theory("vocab: P\nP\n~P\n")
    rng = random.Random(3)
    for _ in range(10):
        pb = rand_partial_state(rng, VP)
        for w in BeliefState.full(VP).worlds():
            assert eval_kleene_theory(pb, w, t) is F


def test_eval_sv_sees_the_case_split_tautology():
    t = parse_theory("K P | ~K P -> P")
    assert eval_sv(bottom_p(VP), world(VP, ("P",)), t) is T
    assert eval_sv(bottom_p(VP), world(VP, ()), t) is F


def test_eval_sv_on_total_state_matches_s5():
    rng = random.Random(23)
    for _ in range(60):
        t = rand_theory(rng, ["P", "Q"])
        b = BeliefState(VPQ, rng.randrange(VPQ.full_mask + 1))
        pb = PartialBeliefState.total(b)
        for w in BeliefState.full(VPQ).worlds():
            expect = all(eval_s5(b, w, f) for f in t.formulas)
            assert eval_sv(pb, w, t) is truth_value(expect)


def test_eval_sv_truth_sayer_splits():
    t = parse_theory("K P -> P")
    assert eval_sv(bottom_p(VP), world(VP, ()), t) is U


def test_eval_sv_formula_variant():
    f = parse_formula("K P | ~K P -> P")
    assert eval_sv_formula(bottom_p(VP), world(VP, ("P",)), f) is T


def test_eval_sv_completion_cap():
    with pytest.raises(ResourceCapError):
        eval_sv(bottom_p(VPQ), world(VPQ, ()), parse_theory("vocab: P Q\nP\n"), cap=3)


def test_total_state_agreement_with_s5():
    rng = random.Random(41)
    for _ in range(150):
        f = rand_formula(rng, ["P", "Q"], 3)
        b = BeliefState(VPQ, rng.randrange(VPQ.full_mask + 1))
        pb = PartialBeliefState.total(b)
        for w in BeliefState.full(VPQ).worlds():
            expect = truth_value(eval_s5(b, w, f))
            assert eval_kleene(pb, w, f) is expect


def test_precision_monotonicity_kleene_and_sv():
    rng = random.Random(53)
    vocab = Vocabulary(("P", "Q", "R"))
    small = Vocabulary(("P", "Q"))
    for _ in range(150):
        f = rand_formula(rng, ["P", "Q", "R"], 3)
        pb1 = rand_partial_state(rng, vocab)
        pb2 = refine(rng, pb1)
        for w in BeliefState.full(vocab).worlds():
            assert value_leq_p(eval_kleene(pb1, w, f), eval_kleene(pb2, w, f))
    for _ in range(80):
        t = rand_theory(rng, ["P", "Q"])
        pb1 = rand_partial_state(rng, small)
        pb2 = refine(rng, pb1)
        for w in BeliefState.full(small).worlds():
            assert value_leq_p(eval_sv(pb1, w, t), eval_sv(pb2, w, t))


def test_supervaluation_dominates_kleene():
    rng = random.Random(61)
    for _ in range(120):
        t = rand_theory(rng, ["P", "Q"])
        pb = rand_partial_state(rng, VPQ)
        for w in BeliefState.full(VPQ).worlds():
            assert value_leq_p(eval_kleene_theory(pb, w, t), eval_sv(pb, w, t))


def test_kleene_knowledge_value_is_world_independent():
    rng = random.Random(71)
    for _ in range(120):
        f = Knows(rand_formula(rng, ["P", "Q"], 3))
        pb = rand_partial_state(rng, VPQ)
        values = {eval_kleene(pb, w, f) for w in BeliefState.full(VPQ).worlds()}
        assert len(values) == 1


def test_knowledge_clauses_are_mutually_exclusive_on_consistent_pairs():
    rng = random.Random(83)
    for _ in range(200):
        f = rand_formula(rng, ["P", "Q"], 3)
        pb = rand_partial_state(rng, VPQ)
        sub_t, sub_f = formula_status_masks(f, pb.pp.mask, pb.cp.mask, VPQ)
        assert sub_t & sub_f == 0
        falsity_fires = sub_f & pb.cp.mask != 0
        truth_fires = pb.pp.mask & ~sub_t == 0
        assert not (falsity_fires and truth_fires)


def test_models_of_objective_formulas():
    assert models([parse_formula("P & ~Q")], VPQ) == bstate(VPQ, ("P",))
    with pytest.raises(ValueError):
        models_mask(KP, VP)


def test_vocabulary_mismatch_is_reported():
    with pytest.raises(VocabularyMismatchError):
        eval_s5(BeliefState.full(VP), world(VP, ()), Atom("Z"))
    with pytest.raises(VocabularyMismatchError):
        eval_kleene(bottom_p(VP), world(VPQ, ()), Atom("P"))


def _reference_masks(f, pp, cp, vocab):
    """(true_mask, false_mask) of f, node by node and world by world: K x
    is true when every pp world makes x true and false when some cp world
    makes x false, so on an inconsistent pair it can be both."""
    worlds = range(1 << len(vocab))

    def value(g, w):
        if isinstance(g, Atom):
            holds = bool(w >> vocab.index(g.name) & 1)
            return holds, not holds
        if isinstance(g, Top):
            return True, False
        if isinstance(g, Bottom):
            return False, True
        if isinstance(g, Not):
            t, fl = value(g.sub, w)
            return fl, t
        if isinstance(g, Knows):
            return (all(value(g.sub, v)[0] for v in worlds if pp >> v & 1),
                    any(value(g.sub, v)[1] for v in worlds if cp >> v & 1))
        (t1, f1), (t2, f2) = value(g.left, w), value(g.right, w)
        if isinstance(g, And):
            return t1 and t2, f1 or f2
        if isinstance(g, Or):
            return t1 or t2, f1 and f2
        if isinstance(g, Implies):
            return f1 or t2, t1 and f2
        return (t1 and t2) or (f1 and f2), (t1 and f2) or (f1 and t2)  # Iff

    tm = fm = 0
    for w in worlds:
        t, fl = value(f, w)
        tm |= t << w
        fm |= fl << w
    return tm, fm


def _outermost_k_args(f):
    if isinstance(f, Knows):
        return [f.sub]
    return [x for c in children(f) for x in _outermost_k_args(c)]


def _reduct(f, slots, guess):
    """f with every K x outside any other K replaced by bit slots.index(x)
    of the guess."""
    if isinstance(f, Knows):
        return TOP if guess >> slots.index(f.sub) & 1 else BOTTOM
    if isinstance(f, Not):
        return Not(_reduct(f.sub, slots, guess))
    if children(f):
        return type(f)(_reduct(f.left, slots, guess), _reduct(f.right, slots, guess))
    return f


def test_compiled_masks_match_a_node_by_node_reference_on_every_mask_pair():
    rng = random.Random(97)
    pairs = [(pp, cp) for pp in range(VPQ.full_mask + 1) for cp in range(VPQ.full_mask + 1)]
    nested = folded = 0
    for _ in range(40):
        t = rand_theory(rng, ["P", "Q"], depth=4)
        nested += any(_outermost_k_args(x) for x in collect_modal_subformulas(t))
        folded += any(not _outermost_k_args(f) for f in t.formulas)
        run = compiled_theory(t)
        for pp, cp in pairs:
            expect_t, expect_f = VPQ.full_mask, 0
            for f in t.formulas:
                tm, fm = _reference_masks(f, pp, cp, VPQ)
                assert formula_status_masks(f, pp, cp, VPQ) == (tm, fm)
                expect_t &= tm
                expect_f |= fm
            assert run(pp, cp) == (expect_t, expect_f)
    assert nested and folded


def test_guessed_kleene_masks_match_the_substituted_reducts():
    rng = random.Random(101)
    nested = 0
    for _ in range(150):
        t = rand_theory(rng, ["P", "Q"], max_formulas=4, depth=4)
        slots = list(dict.fromkeys(x for f in t.formulas for x in _outermost_k_args(f)))
        ctx = OperatorContext(t)
        assert list(ctx.knows_masks) == slots
        nested += len(slots) < len(collect_modal_subformulas(t))
        for guess in range(1 << len(slots)):
            expect = VPQ.full_mask
            for f in t.formulas:
                expect &= _reference_masks(_reduct(f, slots, guess), 0, 0, VPQ)[0]
            assert ctx.kleene_masks(None, guess)[0] == expect
    assert nested


def test_each_modal_member_records_the_guess_slots_it_reads():
    t = parse_theory("vocab: a b c\nK a -> b\nK a & ~K ~b -> c\nK (K a | b) -> c\na | b\n")
    ctx = OperatorContext(t)
    slot = {x: 1 << i for i, x in enumerate(ctx.knows_masks)}
    a, not_b, ka_or_b = parse_formula("a"), parse_formula("~b"), parse_formula("K a | b")
    assert list(slot) == [a, not_b, ka_or_b]  # the nested K a is no slot
    assert [reads for reads, _ in ctx.formula_reads] == [
        slot[a], slot[a] | slot[not_b], slot[ka_or_b]]
    assert ctx.objective_mask == models_mask(parse_formula("a | b"), t.vocabulary)
    for guess in range(8):  # each closure is its member's own
        for (_, closure), f in zip(ctx.formula_reads, t.formulas):
            reduct = _reduct(f, list(slot), guess)
            assert closure(None, guess)[0] == models_mask(reduct, t.vocabulary)


@pytest.mark.parametrize("truth", list(TruthFunctionKind))
def test_compiled_theories_are_freed_with_their_holders(truth):
    t = parse_theory("vocab: P Q\nK P -> P\n~K ~Q -> Q\nK (P | Q) | ~K Q\n")
    ctx = OperatorContext(t, truth)
    assert expansions(ctx).results and stable_extensions(ctx).results
    held = weakref.ref(ctx.kleene_masks)
    del ctx, t
    gc.collect()
    assert held() is None
