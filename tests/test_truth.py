import gc
import random
import weakref
from collections import Counter

import pytest

from nmr import truth as truth_module
from nmr.defaults import konolige, parse_default_theory
from nmr.errors import ResourceCapError, VocabularyMismatchError
from nmr.operators import OperatorContext
from nmr.semantics import expansion_candidates, expansions, stable_extensions
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
    Theory,
    Top,
    children,
    collect_modal_subformulas,
    objective,
    parse_formula,
    parse_theory,
)
from nmr.truth import (
    TABLE_BIT_BUDGET,
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
    rand_default_theory,
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
    # Four unknown worlds exceed the cap, but the objective theory has no
    # guess slot, so the guess search still answers.
    t = parse_theory("vocab: P Q\nP\n")
    assert eval_sv(bottom_p(VPQ), world(VPQ, ()), t, cap=3) is F
    assert eval_sv(bottom_p(VPQ), world(VPQ, ("P",)), t, cap=3) is T
    # Two guess bits, the slot K P and the K nested in it, answer too.  At
    # every completion the theory holds on the Q worlds, and at b = pp,
    # which has a world without P, on every world: Q worlds are T, others U.
    nested = parse_theory("vocab: P Q\nK K P -> Q\n")
    expect = _sv_by_completions(OperatorContext(nested), VPQ.full_mask, 0)
    assert expect == (models_mask(parse_formula("Q"), VPQ), 0)
    for w in BeliefState.full(VPQ).worlds():
        assert eval_sv(bottom_p(VPQ), w, nested, cap=3) is (T if expect[0] >> w.index & 1 else U)
    # Four slots, or one slot with four K nested in it, are more bits than the cap.
    four_slots = parse_theory("vocab: P Q\nK P | K Q | K ~P | K ~Q\n")
    four_nested = parse_theory("vocab: P Q\nK (K P | K Q | K ~P | K ~Q)\n")
    for theory in (four_slots, four_nested):
        with pytest.raises(ResourceCapError):
            eval_sv(bottom_p(VPQ), world(VPQ, ()), theory, cap=3)


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


def _sv_by_completions(ctx, pp, cp):
    """The supervaluation by its definition: the theory evaluated
    classically at every completion cp <= b <= pp."""
    full = ctx.vocabulary.full_mask
    true_acc = false_acc = full
    unknown = pp & ~cp
    b = unknown
    while cp & ~pp == 0:  # an inconsistent pair has no completion
        sat = ctx.kleene_masks(cp | b, cp | b)[0]
        true_acc &= sat
        false_acc &= full & ~sat
        if not b:
            break
        b = (b - 1) & unknown
    return true_acc, false_acc


def _inner_k_args(f):
    """The argument of each K inside f, in compile order: a K's own
    argument's K first."""
    if isinstance(f, Knows):
        return [*_inner_k_args(f.sub), f.sub]
    return [x for c in children(f) for x in _inner_k_args(c)]


def _sv_agrees_with_the_completions(ctx, rng, pairs, max_unknown):
    full = ctx.vocabulary.full_mask
    slots = list(ctx.knows_masks)
    nested = [y for x in slots for y in _inner_k_args(x)]
    assert [None if callable(x) else x for x in ctx.slot_models] == [
        models_mask(x, ctx.vocabulary) if objective(x) else None for x in slots + nested[::-1]]
    checked = 0
    while checked < pairs:
        pp = rng.randrange(full + 1)
        cp = pp & rng.randrange(full + 1)
        if (pp & ~cp).bit_count() > max_unknown:
            continue
        assert ctx.status_masks(pp, cp) == _sv_by_completions(ctx, pp, cp)
        checked += 1
    bad = 1 << rng.randrange(ctx.vocabulary.world_count)  # in cp, not in pp
    pp = rng.randrange(full + 1) & ~bad
    assert ctx.status_masks(pp, pp & rng.randrange(full + 1) | bad) == (full, full)
    return bool(nested)


def test_sv_by_achievable_guesses_matches_every_completion():
    rng = random.Random(1907)
    sv = TruthFunctionKind.SUPERVALUATION
    nested = 0
    for i in range(1600):
        atoms = ["P", "Q", "R"][:1 + i % 3]
        t = rand_theory(rng, atoms) if i % 2 else konolige(rand_default_theory(rng, atoms))
        nested += _sv_agrees_with_the_completions(OperatorContext(t, sv), rng, 6, 8)
    assert 0 < nested < 1600


def test_sv_by_achievable_guesses_matches_every_completion_on_the_corpus(corpus):
    rng = random.Random(1909)
    theories = [konolige(parse_default_theory(path.read_text(encoding="utf-8")))
                for path in sorted(corpus.glob("*.dt"))]
    four_atoms = [t for t in theories if len(t.vocabulary) == 4]
    assert len(four_atoms) == 4
    for t in four_atoms:
        ctx = OperatorContext(t, TruthFunctionKind.SUPERVALUATION)
        _sv_agrees_with_the_completions(ctx, rng, 12, 10)


def _nested_k(rng, atoms, depth):
    """A formula with K nested ``depth`` deep, some of them negated and
    some joined to an objective side formula."""
    f = rand_formula(rng, atoms, 2, allow_k=False)
    for _ in range(depth):
        f = Knows(f)
        if rng.random() < 0.4:
            f = Not(f)
        if rng.random() < 0.5:
            side = rand_formula(rng, atoms, 1, allow_k=False)
            connective = rng.choice((And, Or, Implies))
            f = connective(f, side) if rng.random() < 0.5 else connective(side, f)
    return f


def test_sv_on_nested_k_matches_every_completion():
    # Each theory has a K nesting 3-5 deep, under two outer K, twice in one
    # outer K's argument, or with ~K inside a K; 1-4 atoms.
    rng = random.Random(2711)
    sv = TruthFunctionKind.SUPERVALUATION
    kinds = Counter()
    for i in range(400):
        atoms = ["P", "Q", "R", "S"][:1 + i % 4]
        vocab = Vocabulary(tuple(atoms))
        inner = _nested_k(rng, atoms, rng.randint(2, 4))

        def lit():
            return rand_formula(rng, atoms, 1, allow_k=False)

        shapes = {
            "shared": [Implies(Knows(Or(inner, lit())), lit()),
                       Or(Not(Knows(And(lit(), Not(inner)))), lit())],
            "repeated": [Knows(Implies(inner, Or(lit(), inner)))],
            "negated": [Implies(Knows(Implies(Not(Knows(lit())), inner)), lit())],
        }
        picked = rng.sample(sorted(shapes), rng.randint(1, 3))
        kinds.update(picked)
        t = Theory(vocab, tuple(f for kind in picked for f in shapes[kind]))
        assert _sv_agrees_with_the_completions(OperatorContext(t, sv), rng, 6, 8)
    assert min(kinds.values()) > 150, kinds


def _induced_valuation(slots, pp, cp, vocab):
    """The (true slots, false slots) masks of the K x of each slot at (pp, cp)."""
    t_bits = f_bits = 0
    for i, x in enumerate(slots):
        tm, fm = _reference_masks(Knows(x), pp, cp, vocab)
        t_bits |= bool(tm) << i
        f_bits |= bool(fm) << i
    return t_bits, f_bits


class _MemberCalls:
    """Counts the calls (None, key) of the compiled closure of each
    formula in ``members``.  ``truth.theory_closures`` makes such a call
    to a member only on a miss of its table."""

    def __init__(self, monkeypatch):
        self.members, self.count = (), 0
        real = truth_module._compile

        def counted(part):
            def ev(x, y):
                self.count += x is None
                return part(x, y)
            return ev

        def spying(f, vocabulary, knows):
            part = real(f, vocabulary, knows)
            if callable(part) and any(f is m for m in self.members):
                return counted(part)
            return part

        monkeypatch.setattr(truth_module, "_compile", spying)


@pytest.fixture
def member_calls(monkeypatch):
    return _MemberCalls(monkeypatch)


def test_member_tables_are_shared_by_guesses_and_belief_pairs(member_calls):
    # On one context, guess calls and calls on total, consistent and
    # inconsistent pairs run interleaved.  Each value matches its
    # reference, and a valuation met before, through either kind of
    # call, evaluates no member: both kinds key the tables alike.
    rng = random.Random(2029)
    vocab = VPQ
    pairs = [(pp, cp) for pp in range(vocab.full_mask + 1) for cp in range(vocab.full_mask + 1)]
    kinds = Counter()
    for _ in range(60):
        t = rand_theory(rng, ["P", "Q"], max_formulas=4, depth=4)
        member_calls.members = t.formulas
        ctx = OperatorContext(t)
        slots = list(ctx.knows_masks)
        every = (1 << len(slots)) - 1
        by_valuation = {}
        for pp, cp in pairs:
            by_valuation.setdefault(_induced_valuation(slots, pp, cp, vocab), []).append((pp, cp))
        calls = []
        for (t_bits, f_bits), found in by_valuation.items():
            for kind in ("total", "consistent", "inconsistent"):
                picks = [(pp, cp) for pp, cp in found
                         if kind == ("total" if pp == cp else
                                     "consistent" if cp & ~pp == 0 else "inconsistent")]
                if picks:
                    calls.append(((t_bits, f_bits), rng.choice(picks)))
                    kinds[kind] += 1
            if t_bits | f_bits == every and not t_bits & f_bits:
                calls.append(((t_bits, f_bits), (None, t_bits)))
                kinds["guess"] += 1
        rng.shuffle(calls)
        seen = set()
        for valuation, (pp, cp) in calls:
            evaluated = member_calls.count
            got = ctx.kleene_masks(pp, cp)
            if pp is None:
                expect_t = vocab.full_mask
                for f in t.formulas:
                    expect_t &= _reference_masks(_reduct(f, slots, cp), 0, 0, vocab)[0]
                assert got == (expect_t, vocab.full_mask & ~expect_t)
                for (_, closure), f in zip(ctx.formula_reads, [f for f in t.formulas
                                                                 if not objective(f)]):
                    assert closure(None, cp)[0] == _reference_masks(
                        _reduct(f, slots, cp), 0, 0, vocab)[0]
            else:
                expect_t, expect_f = vocab.full_mask, 0
                for f in t.formulas:
                    tm, fm = _reference_masks(f, pp, cp, vocab)
                    expect_t &= tm
                    expect_f |= fm
                assert got == (expect_t, expect_f)
            if valuation in seen:
                assert member_calls.count == evaluated
            seen.add(valuation)
    assert min(kinds.values()) > 100, kinds


def test_a_search_over_sixteen_atoms_keeps_its_tables_within_the_bit_budget(member_calls):
    # One member reads nine slots that the Kripke-Kleene state leaves
    # open, so the search evaluates it under 2^9 - 1 valuations; at 2^16
    # worlds the budget keeps 256 of them, and a miss past it is
    # evaluated again on every call.
    zs = [f"z{i}" for i in range(9)]
    t = parse_theory("vocab: " + " ".join(zs + [f"y{i}" for i in range(7)]) + "\n"
                     + " | ".join(f"K {z}" for z in zs) + "\n")
    kept = TABLE_BIT_BUDGET // (2 * t.vocabulary.world_count)
    assert kept == 256
    member_calls.members = t.formulas

    def misses_over_every_guess(ctx):
        before = member_calls.count
        for guess in range(1 << 9):
            assert ctx.kleene_masks(None, guess) == (
                (t.vocabulary.full_mask, 0) if guess else (0, t.vocabulary.full_mask))
        return member_calls.count - before

    ctx = OperatorContext(t)
    assert expansion_candidates(ctx) == []
    assert member_calls.count >= (1 << 9) - 1
    after_search = misses_over_every_guess(ctx)
    assert misses_over_every_guess(ctx) == after_search >= (1 << 9) - kept
    fresh = OperatorContext(t)
    assert [misses_over_every_guess(fresh) for _ in range(3)] == [1 << 9, kept, kept]
