"""Acceptance gate: one test per criterion, exact comparisons throughout.

Criteria 1-10 pin the worked examples; criterion 11 is the randomized
property battery (fixed seeds).  Run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import random

from nmr.defaults import dl_semantics, konolige, parse_default_theory, reiter_extensions, align_check
from nmr.operators import OperatorContext, klfp_moore
from nmr.oracle import algebraic_wf, brute_expansions, brute_stable
from nmr.semantics import (
    expansions,
    kripke_kleene_extension,
    stable_extensions,
    validate_trace,
    well_founded_extension,
)
from nmr.syntax import Atom, Knows, Not, parse_theory
from nmr.truth import (
    TruthFunctionKind,
    TruthValue3,
    entails,
    eval_kleene,
    eval_kleene_theory,
    eval_s5,
    eval_sv,
)
from nmr.worlds import BeliefState, PartialBeliefState, Vocabulary, bottom_p, leq_p

from helpers import (
    bstate,
    pstate,
    rand_default_theory,
    rand_formula,
    rand_only_negative_theory,
    rand_partial_state,
    rand_theory,
    refine,
    truth_value,
    value_leq_p,
)

KLEENE = TruthFunctionKind.KLEENE
SV = TruthFunctionKind.SUPERVALUATION
VP = Vocabulary(("P",))
VPQ = Vocabulary(("P", "Q"))


def ctx_of(text, truth=KLEENE):
    return OperatorContext(parse_theory(text), truth)


def exts(result):
    return [r.pp for r in result.results]


def test_c01_truth_sayer():
    ctx = ctx_of("K P -> P")
    ignorant, credulous = bstate(VP, (), ("P",)), bstate(VP, ("P",))
    assert set(b.mask for b in exts(expansions(ctx))) == {ignorant.mask, credulous.mask}
    assert kripke_kleene_extension(ctx).results[0] == pstate(VP, [(), ("P",)], [("P",)])
    wf = well_founded_extension(ctx).results[0]
    assert wf.is_total and wf.pp == ignorant
    assert exts(stable_extensions(ctx)) == [ignorant]


def test_c02_blocked_default_kk_and_trace():
    ctx = ctx_of("vocab: P Q\nP\n~K P -> Q\n")
    res = kripke_kleene_extension(ctx)
    total = pstate(VPQ, [("P",), ("P", "Q")], [("P",), ("P", "Q")])
    assert res.results[0] == total

    # Reference derivations for this theory, as world/status resolutions:
    # the four-step one settles {Q} then ∅ impossible, then {P,Q}, then
    # {P} possible; the two-step one merges the first three resolutions.
    # Our trace batches per revision pass, so replaying it must walk
    # through states of those derivations only, in precision order.
    trace = res.traces[0]
    validate_trace(ctx, trace)
    states = trace.replay()
    assert states == [
        bottom_p(VPQ),
        pstate(VPQ, [("P",), ("P", "Q")], []),
        pstate(VPQ, [("P",), ("P", "Q")], [("P", "Q")]),
        total,
    ]
    resolutions = {(w, s.status) for s in trace.steps for w in s.worlds}
    assert resolutions == {(0, "f"), (2, "f"), (3, "t"), (1, "t")}


def test_c03_self_support_fixture():
    ctx = ctx_of("vocab: P Q\nP\n~K P -> Q\nK Q -> Q\n")
    intended = bstate(VPQ, ("P",), ("P", "Q"))
    self_supported = bstate(VPQ, ("P", "Q"))
    assert set(b.mask for b in exts(expansions(ctx))) == {intended.mask, self_supported.mask}
    wf = well_founded_extension(ctx).results[0]
    assert wf.is_total and wf.pp == intended
    assert exts(stable_extensions(ctx)) == [intended]


def test_c04_iff_knowledge():
    ctx = ctx_of("K P <-> Q")
    assert kripke_kleene_extension(ctx).results[0] == bottom_p(VPQ)
    wf = well_founded_extension(ctx).results[0]
    assert wf.is_total and wf.pp == bstate(VPQ, (), ("P",))


def test_c05_mutual_defaults():
    ctx = ctx_of("vocab: P Q\n~K P -> Q\n~K Q -> P\n")
    wf = well_founded_extension(ctx).results[0]
    assert wf == pstate(VPQ, [(), ("P",), ("Q",), ("P", "Q")], [("P", "Q")])
    assert not wf.is_total
    assert exts(stable_extensions(ctx)) == [
        bstate(VPQ, ("P",), ("P", "Q")),
        bstate(VPQ, ("Q",), ("P", "Q")),
    ]


def test_c06_case_split_tautology_under_both_truth_functions():
    text = "K P | ~K P -> P"
    half = pstate(VP, [(), ("P",)], [("P",)])
    kleene = ctx_of(text, KLEENE)
    assert kripke_kleene_extension(kleene).results[0] == half
    assert well_founded_extension(kleene).results[0] == half
    assert exts(stable_extensions(kleene)) == []

    sv = ctx_of(text, SV)
    decided = bstate(VP, ("P",))
    assert kripke_kleene_extension(sv).results[0] == pstate(VP, [("P",)], [("P",)])
    assert well_founded_extension(sv).results[0].pp == decided
    assert exts(stable_extensions(sv)) == [decided]


def test_c07_liar():
    ctx = ctx_of("~K P -> P")
    assert exts(expansions(ctx)) == [] and brute_expansions(ctx) == []
    assert exts(stable_extensions(ctx)) == [] and brute_stable(ctx, brute_expansions(ctx)) == []
    assert well_founded_extension(ctx).results[0] == pstate(VP, [(), ("P",)], [("P",)])


def test_c08_ungrounded_knowledge_claim():
    ctx = ctx_of("K P")
    assert exts(expansions(ctx)) == []
    assert brute_expansions(ctx) == []
    assert kripke_kleene_extension(ctx).results[0] == bottom_p(VP)
    assert well_founded_extension(ctx).results[0] == bottom_p(VP)


def test_c09_nixon_diamond(corpus):
    dt = parse_default_theory((corpus / "nixon.dt").read_text())
    v = dt.vocabulary
    hawk, dove = bstate(v, ("R", "Q", "H")), bstate(v, ("R", "Q", "D"))
    assert reiter_extensions(dt) == [hawk, dove]
    assert entails(hawk, Atom("H")) and entails(hawk, Not(Atom("D")))
    assert entails(dove, Atom("D")) and entails(dove, Not(Atom("H")))
    assert align_check(dt).aligned

    wf = dl_semantics(dt, "wf").results[0]
    w = next(wf.pp.worlds())
    assert eval_kleene(wf, w, Knows(Atom("H"))) is TruthValue3.U
    assert eval_kleene(wf, w, Knows(Atom("D"))) is TruthValue3.U


def test_c10_disjunctive_nationality(corpus):
    from nmr.truth import models
    from nmr.syntax import Or

    base = parse_default_theory((corpus / "swede_japanese.dt").read_text())
    (ext,) = reiter_extensions(base)
    assert ext == models(base.facts, base.vocabulary)
    assert not entails(ext, Atom("Bl")) and not entails(ext, Atom("Bk"))

    combined = parse_default_theory((corpus / "swede_japanese_combined.dt").read_text())
    (ext2,) = reiter_extensions(combined)
    assert entails(ext2, Or(Atom("Bl"), Atom("Bk")))


# --- criterion 11: randomized property battery (fixed seeds) ----------------

def test_c11_truth_function_precision_monotonicity():
    rng = random.Random(1101)
    vocab = Vocabulary(("P", "Q", "R"))
    for _ in range(120):
        f = rand_formula(rng, ["P", "Q", "R"], 3)
        pb1 = rand_partial_state(rng, vocab)
        pb2 = refine(rng, pb1)
        for w in BeliefState.full(vocab).worlds():
            assert value_leq_p(eval_kleene(pb1, w, f), eval_kleene(pb2, w, f))
    for _ in range(60):
        t = rand_theory(rng, ["P", "Q"])
        pb1 = rand_partial_state(rng, VPQ)
        pb2 = refine(rng, pb1)
        for w in BeliefState.full(VPQ).worlds():
            assert value_leq_p(eval_sv(pb1, w, t), eval_sv(pb2, w, t))


def test_c11_supervaluation_dominates_kleene():
    rng = random.Random(1102)
    for _ in range(120):
        t = rand_theory(rng, ["P", "Q"])
        pb = rand_partial_state(rng, VPQ)
        for w in BeliefState.full(VPQ).worlds():
            assert value_leq_p(eval_kleene_theory(pb, w, t), eval_sv(pb, w, t))


def test_c11_total_state_agreement_with_s5():
    rng = random.Random(1103)
    for _ in range(120):
        t = rand_theory(rng, ["P", "Q"])
        b = BeliefState(VPQ, rng.randrange(VPQ.full_mask + 1))
        pb = PartialBeliefState.total(b)
        for w in BeliefState.full(VPQ).worlds():
            classical = truth_value(all(eval_s5(b, w, f) for f in t.formulas))
            assert eval_kleene_theory(pb, w, t) is classical
            assert eval_sv(pb, w, t) is classical


def test_c11_kk_below_expansions_and_unique_when_total():
    rng = random.Random(1104)
    for _ in range(300):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q", "R"]))
        kk = kripke_kleene_extension(ctx).results[0]
        all_exp = exts(expansions(ctx))
        for b in all_exp:
            assert leq_p(kk, PartialBeliefState.total(b))
        if kk.is_total:
            assert all_exp == [kk.pp]


def test_c11_stable_subset_of_expansions():
    rng = random.Random(1105)
    for _ in range(300):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q", "R"]))
        expansion_masks = {b.mask for b in exts(expansions(ctx))}
        for b in exts(stable_extensions(ctx)):
            assert b.mask in expansion_masks


def test_c11_wf_total_implies_unique_stable():
    rng = random.Random(1106)
    for _ in range(300):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q", "R"]))
        wf = well_founded_extension(ctx).results[0]
        if wf.is_total:
            assert exts(stable_extensions(ctx)) == [wf.pp]


def test_c11_only_negative_theories_wf_total_and_equal_to_moore_lfp():
    rng = random.Random(1107)
    for _ in range(300):
        ctx = OperatorContext(rand_only_negative_theory(rng, ["P", "Q", "R"]))
        wf = well_founded_extension(ctx).results[0]
        assert wf.is_total
        assert wf.pp == klfp_moore(ctx)


def test_c11_fast_vs_brute_expansions_and_stable():
    rng = random.Random(1108)
    for _ in range(500):
        ctx = OperatorContext(rand_theory(rng, ["P", "Q", "R"]))
        brute_exp = brute_expansions(ctx)
        assert exts(expansions(ctx)) == brute_exp
        assert exts(stable_extensions(ctx)) == brute_stable(ctx, brute_exp)


def test_c11_process_wf_equals_algebraic_wf():
    rng = random.Random(1109)
    for _ in range(300):
        t = rand_theory(rng, ["P", "Q"])
        for truth in TruthFunctionKind:
            ctx = OperatorContext(t, truth)
            assert well_founded_extension(ctx).results[0] == algebraic_wf(ctx), (t, truth)


def test_c11_reiter_equals_stable_of_the_translation():
    rng = random.Random(1110)
    for _ in range(100):
        dt = rand_default_theory(rng, ["A", "B", "C"])
        direct = reiter_extensions(dt)
        translated = exts(stable_extensions(OperatorContext(konolige(dt))))
        assert direct == translated
