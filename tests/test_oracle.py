import itertools
import random
from pathlib import Path

import pytest

from nmr.defaults import konolige, parse_default_theory
from nmr.errors import ResourceCapError
from nmr.operators import OperatorContext
from nmr.oracle import OracleBudget, algebraic_wf, brute_expansions, brute_stable
from nmr.semantics import expansions, stable_extensions, well_founded_extension
from nmr.syntax import parse_theory
from nmr.truth import TruthFunctionKind
from nmr.worlds import Vocabulary

from helpers import bstate, pstate, rand_theory

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
    assert brute_stable(ctx_of("vocab: P Q\n~K P -> Q\n~K Q -> P\n")) == [
        bstate(vpq, ("P",), ("P", "Q")),
        bstate(vpq, ("Q",), ("P", "Q")),
    ]


def test_brute_stable_liar_has_none():
    assert brute_stable(ctx_of("~K P -> P")) == []


def test_brute_stable_truth_sayer():
    assert brute_stable(ctx_of("K P -> P")) == [bstate(VP, (), ("P",))]


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
        brute_stable(small, OracleBudget(max_atoms=2))
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
        brute_exp, brute_st = brute_expansions(ctx), brute_stable(ctx)
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
            assert [r.pp for r in expansions(ctx).results] == brute_expansions(ctx)
            assert [r.pp for r in stable_extensions(ctx).results] == brute_stable(ctx)
            wfs.append(algebraic_wf(ctx))
            assert well_founded_extension(ctx).results[0] == wfs[-1]
        wf_differs += wfs[0] != wfs[1]
        nested += len(ctx.slot_models) > len(ctx.knows_masks)
    assert wf_differs and nested, (wf_differs, nested)
