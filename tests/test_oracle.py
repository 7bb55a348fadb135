import itertools
import random
from pathlib import Path

import pytest

from nmr.defaults import konolige, parse_default_theory
from nmr.errors import ResourceCapError
from nmr.operators import OperatorContext, revise_masks
from nmr.oracle import OracleBudget, algebraic_wf, brute_expansions, brute_stable
from nmr.semantics import expansions, stable_extensions, well_founded_extension
from nmr.syntax import Atom, Not, Theory, parse_theory
from nmr.truth import TruthFunctionKind
from nmr.worlds import BeliefState, Vocabulary

from helpers import bstate, pstate, rand_default_theory, rand_theory

VP = Vocabulary(("P",))
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def ctx_of(text, truth=TruthFunctionKind.KLEENE):
    return OperatorContext(parse_theory(text), truth)


def test_brute_expansions_truth_sayer():
    assert brute_expansions(ctx_of("K P -> P")) == [
        bstate(VP, ("P",)),
        bstate(VP, (), ("P",)),
    ]


def test_brute_expansions_liar_has_none():
    assert brute_expansions(ctx_of("~K P -> P")) == []


def test_brute_expansions_inconsistent_objective_theory():
    assert [b.mask for b in brute_expansions(ctx_of("vocab: P\nP\n~P\n"))] == [0]


def test_brute_stable_mutual_defaults():
    vpq = Vocabulary(("P", "Q"))
    ctx = ctx_of("vocab: P Q\n~K P -> Q\n~K Q -> P\n")
    assert brute_stable(ctx, brute_expansions(ctx)) == [
        bstate(vpq, ("P",), ("P", "Q")),
        bstate(vpq, ("Q",), ("P", "Q")),
    ]


def test_brute_stable_liar_has_none():
    ctx = ctx_of("~K P -> P")
    assert brute_stable(ctx, brute_expansions(ctx)) == []


def test_brute_stable_truth_sayer():
    ctx = ctx_of("K P -> P")
    assert brute_stable(ctx, brute_expansions(ctx)) == [bstate(VP, (), ("P",))]


def _scan_every_world_set(ctx):
    """Both oracles' definitions tested on every one of the 2^(2^n) world
    sets, with no pruning."""
    every = range(ctx.vocabulary.full_mask + 1)
    return ([BeliefState(ctx.vocabulary, m) for m in every if ctx.kleene_masks(m, m)[0] == m],
            [BeliefState(ctx.vocabulary, m) for m in every if revise_masks(ctx, m) == m])


def _random_theory(rng, atoms, i):
    if i % 2:
        return rand_theory(rng, atoms, max_formulas=4)
    return konolige(rand_default_theory(rng, atoms))


def test_oracles_match_a_scan_of_every_world_set():
    # Contradictory facts (objective mask 0), no objective member
    # (objective mask W, which is itself an expansion of the truth sayer)
    # and nested K, then seeded 1-4 atom theories, half translated default
    # theories; few at 4 atoms, where the scan tests 2^16 sets.
    rng = random.Random(2901)
    theories = [parse_theory(text) for text in (
        "vocab: P Q\nP\n~P\nK Q -> Q\n", "K P -> P", "vocab: P Q\nK (K P -> Q) -> P\n")]
    theories += [_random_theory(rng, ["a", "b", "c"][:rng.randint(1, 3)], i) for i in range(200)]
    theories += [_random_theory(rng, ["a", "b", "c", "d"], i) for i in range(4)]
    empty = unconstrained = nested = 0
    for t, truth in itertools.product(theories, TruthFunctionKind):
        ctx = OperatorContext(t, truth)
        brute_exp = brute_expansions(ctx)
        assert (brute_exp, brute_stable(ctx, brute_exp)) == _scan_every_world_set(ctx), (t, truth)
        empty += ctx.objective_mask == 0
        unconstrained += ctx.objective_mask == ctx.vocabulary.full_mask
        nested += len(ctx.slot_models) > len(ctx.knows_masks)
    assert empty and unconstrained and nested, (empty, unconstrained, nested)


def test_algebraic_wf_truth_sayer():
    assert algebraic_wf(ctx_of("K P -> P")) == pstate(VP, [(), ("P",)], [(), ("P",)])


def test_algebraic_wf_iff():
    vpq = Vocabulary(("P", "Q"))
    assert algebraic_wf(ctx_of("K P <-> Q")) == pstate(vpq, [(), ("P",)], [(), ("P",)])


def test_algebraic_wf_liar_limit_is_partial():
    assert algebraic_wf(ctx_of("~K P -> P")) == pstate(VP, [(), ("P",)], [("P",)])


def test_oracle_budget_is_enforced():
    big = OperatorContext(parse_theory("vocab: A B C D E\nA\n"))
    with pytest.raises(ResourceCapError):
        brute_expansions(big)
    with pytest.raises(ResourceCapError):
        algebraic_wf(big, OracleBudget(max_atoms=4))
    small = OperatorContext(parse_theory("vocab: A B C\nA\n"))
    with pytest.raises(ResourceCapError):
        brute_expansions(small, OracleBudget(max_atoms=2))
    assert len(brute_expansions(small, OracleBudget(max_atoms=3))) > 0


def test_algebraic_wf_under_sv_is_the_process_wf():
    # Both files have an sv well-founded state other than the kleene one.
    for name in ("tautology_antecedent.ael", "nested_introspection.ael"):
        t = parse_theory((CORPUS / name).read_text())
        sv = OperatorContext(t, TruthFunctionKind.SUPERVALUATION)
        assert algebraic_wf(sv) == well_founded_extension(sv).results[0], name
        assert algebraic_wf(sv) != algebraic_wf(OperatorContext(t)), name


def _all_fixture_theories():
    out = []
    for path in sorted(CORPUS.glob("*.ael")):
        out.append((path.name, parse_theory(path.read_text())))
    for path in sorted(CORPUS.glob("*.dt")):
        out.append((path.name, konolige(parse_default_theory(path.read_text()))))
    return out


def test_fast_solvers_match_oracles_on_all_fixtures():
    for (name, t), truth in itertools.product(_all_fixture_theories(), TruthFunctionKind):
        ctx = OperatorContext(t, truth)
        brute_exp = brute_expansions(ctx)
        brute_st = brute_stable(ctx, brute_exp)
        assert [r.pp for r in expansions(ctx).results] == brute_exp, (name, truth)
        assert [r.pp for r in stable_extensions(ctx).results] == brute_st, (name, truth)
        assert well_founded_extension(ctx).results[0] == algebraic_wf(ctx), (name, truth)
        for out in (brute_exp, brute_st):
            masks = [b.mask for b in out]
            assert masks == sorted(masks), (name, truth)


def test_fast_solvers_match_oracles_randomly():
    # The candidate bound is the three-valued Kripke-Kleene state under
    # either truth function, so both are pinned here, on the same theories.
    # Some theories nest K inside an outer K's argument (more supervaluation
    # guess bits than guess slots), and some have an sv well-founded state
    # other than the kleene one.
    rng = random.Random(307)
    wf_differs = nested = 0
    for _ in range(150):
        t = rand_theory(rng, ["P", "Q", "R"])
        wfs = []
        for truth in TruthFunctionKind:
            ctx = OperatorContext(t, truth)
            brute_exp = brute_expansions(ctx)
            assert [r.pp for r in expansions(ctx).results] == brute_exp
            assert [r.pp for r in stable_extensions(ctx).results] == brute_stable(ctx, brute_exp)
            wfs.append(algebraic_wf(ctx))
            assert well_founded_extension(ctx).results[0] == wfs[-1]
        wf_differs += wfs[0] != wfs[1]
        nested += len(ctx.slot_models) > len(ctx.knows_masks)
    assert wf_differs and nested, (wf_differs, nested)


def test_fast_solvers_match_oracles_on_four_atoms():
    # One literal fact keeps the objective models to at most 8 of the 16
    # worlds, so the oracles test at most 2^8 world sets per theory.
    rng = random.Random(2902)
    atoms = ["a", "b", "c", "d"]
    several = 0
    for i in range(2000):
        t = _random_theory(rng, atoms, i)
        fact = Atom(rng.choice(atoms))
        t = Theory(t.vocabulary, (*t.formulas, fact if rng.random() < 0.5 else Not(fact)))
        for truth in TruthFunctionKind:
            ctx = OperatorContext(t, truth)
            brute_exp = brute_expansions(ctx)
            assert [r.pp for r in expansions(ctx).results] == brute_exp, (t, truth)
            assert stable_extensions(ctx).belief_states() == brute_stable(ctx, brute_exp), (t, truth)
            assert well_founded_extension(ctx).results[0] == algebraic_wf(ctx), (t, truth)
            several += len(brute_exp) > 1
    assert several, several
