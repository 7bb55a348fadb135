import random
from collections import Counter

import pytest

from nmr import truth as truth_module
from nmr.defaults import konolige, parse_default_theory
from nmr.oracle import brute_expansions, brute_stable
from nmr.errors import ResourceCapError
from nmr.operators import OperatorContext, kk_lfp, klfp_moore
from nmr.semantics import (
    STEP_KK,
    STEP_MI,
    expansion_candidates,
    expansions,
    greatest_unfounded_set,
    kripke_kleene_extension,
    replay_trace,
    stable_extensions,
    validate_trace,
    well_founded_extension,
)
from nmr.syntax import modal_polarities, parse_theory
from nmr.truth import TruthFunctionKind
from nmr.worlds import Vocabulary, bottom_p, leq_p, set_bits

from helpers import (
    bstate,
    pstate,
    rand_default_theory,
    rand_only_negative_theory,
    rand_theory,
)

VP = Vocabulary(("P",))
VPQ = Vocabulary(("P", "Q"))
KLEENE = TruthFunctionKind.KLEENE
SV = TruthFunctionKind.SUPERVALUATION


def ctx_of(text, truth=KLEENE):
    return OperatorContext(parse_theory(text), truth)


# --- Kripke-Kleene ----------------------------------------------------------

def test_kk_truth_sayer_halts_short_of_total():
    res = kripke_kleene_extension(ctx_of("K P -> P"))
    assert res.results == (pstate(VP, [(), ("P",)], [("P",)]),)


def test_kk_blocked_default_reaches_total():
    res = kripke_kleene_extension(ctx_of("vocab: P Q\nP\n~K P -> Q\n"))
    assert res.results[0] == pstate(VPQ, [("P",), ("P", "Q")], [("P",), ("P", "Q")])
    assert res.results[0].is_total


def test_kk_iff_stays_at_bottom():
    assert kripke_kleene_extension(ctx_of("K P <-> Q")).results[0] == bottom_p(VPQ)


# --- expansions -------------------------------------------------------------

def test_expansions_truth_sayer_has_ignorant_and_self_supported():
    res = expansions(ctx_of("K P -> P"))
    assert [r.pp for r in res.results] == [bstate(VP, ("P",)), bstate(VP, (), ("P",))]


def test_expansions_self_supported_second_fixpoint():
    res = expansions(ctx_of("vocab: P Q\nP\n~K P -> Q\nK Q -> Q\n"))
    assert [r.pp for r in res.results] == [
        bstate(VPQ, ("P", "Q")),
        bstate(VPQ, ("P",), ("P", "Q")),
    ]


def test_expansions_ungrounded_claim_has_none():
    assert expansions(ctx_of("K P")).results == ()


def test_expansions_inconsistent_objective_theory_yields_empty_state():
    res = expansions(ctx_of("vocab: P\nP\n~P\n"))
    assert [r.pp.mask for r in res.results] == [0]


def test_expansions_cap():
    ctx = ctx_of("vocab: P Q\nK P & K Q -> P\n")
    with pytest.raises(ResourceCapError):
        expansions(ctx, max_modal=1)


# --- stable extensions ------------------------------------------------------

def test_stable_mutual_defaults():
    res = stable_extensions(ctx_of("vocab: P Q\n~K P -> Q\n~K Q -> P\n"))
    assert [r.pp for r in res.results] == [
        bstate(VPQ, ("P",), ("P", "Q")),
        bstate(VPQ, ("Q",), ("P", "Q")),
    ]


def test_stable_truth_sayer_keeps_only_ignorance():
    res = stable_extensions(ctx_of("K P -> P"))
    assert [r.pp for r in res.results] == [bstate(VP, (), ("P",))]


def test_stable_case_split_needs_supervaluation():
    text = "K P | ~K P -> P"
    assert stable_extensions(ctx_of(text)).results == ()
    res = stable_extensions(ctx_of(text, SV))
    assert [r.pp for r in res.results] == [bstate(VP, ("P",))]


# --- well-founded extension -------------------------------------------------

def test_wf_truth_sayer_total_via_ignorance_step():
    res = well_founded_extension(ctx_of("K P -> P"))
    assert res.results[0] == pstate(VP, [(), ("P",)], [(), ("P",)])
    mi_steps = [s for s in res.traces[0].steps if s.kind == STEP_MI]
    assert [s.worlds for s in mi_steps] == [(0,)]


def test_wf_iff_resolves_to_ignorance_of_p():
    res = well_founded_extension(ctx_of("K P <-> Q"))
    assert res.results[0] == pstate(VPQ, [(), ("P",)], [(), ("P",)])


def test_wf_mutual_defaults_stays_partial():
    res = well_founded_extension(ctx_of("vocab: P Q\n~K P -> Q\n~K Q -> P\n"))
    assert res.results[0] == pstate(
        VPQ, [(), ("P",), ("Q",), ("P", "Q")], [("P", "Q")]
    )


def test_greatest_unfounded_set_for_iff():
    ctx = ctx_of("K P <-> Q")
    u = greatest_unfounded_set(ctx, bottom_p(VPQ))
    assert u == 0b0011  # the two worlds where Q is false


# --- cross-semantics properties ---------------------------------------------

def test_kk_below_every_expansion_and_unique_when_total():
    rng = random.Random(111)
    for _ in range(250):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q", "R"]))
        kk = kripke_kleene_extension(ctx).results[0]
        exps = expansions(ctx).results
        for e in exps:
            assert leq_p(kk, e)
        if kk.is_total:
            assert [r.pp for r in exps] == [kk.pp]


def test_candidates_are_exactly_the_brute_force_expansions():
    # The K-guess search yields every expansion once and nothing else, so
    # stable extensions revise expansions only; 1500 theories over 1-3
    # atoms, half modal, half translated default theories.
    rng = random.Random(409)
    cases = 0
    for i in range(1500):
        atoms = ["a", "b", "c"][:rng.randint(1, 3)]
        if i % 2:
            t = rand_theory(rng, atoms, max_formulas=4, depth=4)
        else:
            t = konolige(rand_default_theory(rng, atoms))
        for truth in TruthFunctionKind:
            ctx = OperatorContext(t, truth)
            assert expansion_candidates(ctx) == brute_expansions(ctx), (t, truth)
            assert stable_extensions(ctx).belief_states() == brute_stable(ctx), (t, truth)
            cases += 1
    assert cases == 3000


def test_sv_stable_revises_no_candidate_that_is_not_an_expansion():
    # The empty state is a guess reduct here but no expansion; revising it
    # under supervaluation would split over all 32 unknown worlds, beyond
    # the completion cap.  Only the full state, an expansion, is revised.
    t = parse_theory("vocab: a b c d e\nK b -> K d\n")
    full = t.vocabulary.full_mask
    for truth in TruthFunctionKind:
        ctx = OperatorContext(t, truth)
        assert [b.mask for b in expansion_candidates(ctx)] == [full]
        assert [b.mask for b in stable_extensions(ctx).belief_states()] == [full]


def test_stable_extensions_are_expansions():
    rng = random.Random(113)
    for _ in range(250):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q", "R"]))
        exp = {r.pp.mask for r in expansions(ctx).results}
        for r in stable_extensions(ctx).results:
            assert r.pp.mask in exp


def test_kk_below_wf_and_wf_total_implies_unique_stable():
    rng = random.Random(127)
    for _ in range(250):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q", "R"]))
        kk = kripke_kleene_extension(ctx).results[0]
        wf = well_founded_extension(ctx).results[0]
        assert leq_p(kk, wf)
        if wf.is_total:
            assert [r.pp for r in stable_extensions(ctx).results] == [wf.pp]


def test_only_negative_theories_have_total_wf_equal_to_moore_least_fixpoint():
    rng = random.Random(131)
    for _ in range(250):
        ctx = OperatorContext(rand_only_negative_theory(rng, ["P", "Q", "R"]))
        wf = well_founded_extension(ctx).results[0]
        assert wf.is_total
        assert wf.pp == klfp_moore(ctx)


def test_supervaluation_never_less_precise_for_kk_and_wf():
    rng = random.Random(137)
    for _ in range(120):
        t = rand_theory(rng, ["P", "Q"])
        kk_k = kripke_kleene_extension(OperatorContext(t, KLEENE)).results[0]
        kk_s = kripke_kleene_extension(OperatorContext(t, SV)).results[0]
        assert leq_p(kk_k, kk_s)
        wf_k = well_founded_extension(OperatorContext(t, KLEENE)).results[0]
        wf_s = well_founded_extension(OperatorContext(t, SV)).results[0]
        assert leq_p(wf_k, wf_s)


def test_kk_semantics_equals_plain_fixpoint_iteration():
    rng = random.Random(139)
    for _ in range(150):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q"]))
        assert kripke_kleene_extension(ctx).results[0] == kk_lfp(ctx)


def test_declared_vocabulary_widens_the_world_space():
    # An unused declared atom doubles the world space; the semantics
    # follow the declared vocabulary, not the atoms that happen to occur.
    padded = ctx_of("vocab: P Q\nK P -> P\n")
    assert [r.pp.mask for r in expansions(padded).results] == [
        bstate(VPQ, ("P",), ("P", "Q")).mask,
        VPQ.full_mask,
    ]
    wf = well_founded_extension(padded).results[0]
    assert wf.is_total and wf.pp == bstate(VPQ, (), ("P",), ("Q",), ("P", "Q"))


def test_empty_vocabulary_theory():
    ctx = ctx_of("true")
    assert well_founded_extension(ctx).results[0].pp.mask == 1
    assert [r.pp.mask for r in expansions(ctx).results] == [1]


# --- traces -----------------------------------------------------------------

def test_trace_replay_and_validation_on_fixtures():
    for text in [
        "K P -> P",
        "~K P -> P",
        "K P <-> Q",
        "vocab: P Q\nP\n~K P -> Q\nK Q -> Q\n",
        "vocab: P Q\n~K P -> Q\n~K Q -> P\n",
    ]:
        ctx = ctx_of(text)
        for solver in (kripke_kleene_extension, well_founded_extension, stable_extensions):
            res = solver(ctx)
            for i, trace in enumerate(res.traces):
                assert replay_trace(trace) == trace.final
                validate_trace(ctx, trace)
            if solver is stable_extensions:
                assert [t.final.pp for t in res.traces] == [r.pp for r in res.results]
            elif res.traces:
                assert res.traces[0].final == res.results[0]


def test_trace_step_worlds_are_the_set_bits_of_its_mask(corpus):
    for path in sorted(corpus.iterdir()):
        text = path.read_text(encoding="utf-8")
        theory = konolige(parse_default_theory(text)) if path.suffix == ".dt" else parse_theory(text)
        ctx = OperatorContext(theory)
        n = theory.vocabulary.world_count
        for solver in (kripke_kleene_extension, well_founded_extension, stable_extensions):
            for trace in solver(ctx).traces:
                for step in trace.steps:
                    assert step.worlds == tuple(set_bits(step.mask))
                    assert step.worlds == tuple(i for i in range(n) if step.mask >> i & 1)


def test_trace_replay_random_theories():
    rng = random.Random(149)
    for _ in range(100):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q"]))
        for res in (kripke_kleene_extension(ctx), well_founded_extension(ctx),
                    stable_extensions(ctx)):
            for trace in res.traces:
                assert replay_trace(trace) == trace.final
                validate_trace(ctx, trace)


def test_kk_trace_steps_are_kk_kind():
    res = kripke_kleene_extension(ctx_of("vocab: P Q\nP\n~K P -> Q\n"))
    assert all(s.kind == STEP_KK for s in res.traces[0].steps)


@pytest.mark.parametrize("truth", list(TruthFunctionKind))
@pytest.mark.parametrize("k", [1, 3])
def test_each_k_argument_is_compiled_once_per_solve(monkeypatch, k, truth):
    # Nixon-shaped, with K r repeated k times.  A compile of a K argument is
    # a compile of the node an occurrence of K holds, and a compile of a
    # formula of the theory one of the node the theory holds.
    t = parse_theory("vocab: p q r\nq\nr\nK q & ~K ~p -> p\n" + "K r & " * k + "~K p -> ~p\n")
    k_args = [occ.subformula for occ in modal_polarities(t)]
    held = {id(x) for x in (*k_args, *t.formulas)}
    compiled = []
    compile_formula = truth_module._compile

    def counting(f, vocabulary, knows):
        compiled.append(f)
        return compile_formula(f, vocabulary, knows)

    monkeypatch.setattr(truth_module, "_compile", counting)
    assert len(stable_extensions(OperatorContext(t, truth)).results) == 2
    expect = Counter(set(k_args)) + Counter(t.formulas)
    assert Counter(f for f in compiled if id(f) in held) == expect
