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


def test_algebraic_wf_is_three_valued_only():
    with pytest.raises(ValueError):
        algebraic_wf(ctx_of("K P -> P", TruthFunctionKind.SUPERVALUATION))


def _all_fixture_contexts():
    out = []
    for path in sorted(CORPUS.glob("*.ael")):
        out.append((path.name, OperatorContext(parse_theory(path.read_text()))))
    for path in sorted(CORPUS.glob("*.dt")):
        dt = parse_default_theory(path.read_text())
        out.append((path.name, OperatorContext(konolige(dt))))
    return out


def test_fast_solvers_match_oracles_on_all_fixtures():
    for name, ctx in _all_fixture_contexts():
        brute_exp, brute_st = brute_expansions(ctx), brute_stable(ctx)
        assert [r.pp for r in expansions(ctx).results] == brute_exp, name
        assert [r.pp for r in stable_extensions(ctx).results] == brute_st, name
        assert well_founded_extension(ctx).results[0] == algebraic_wf(ctx), name
        for out in (brute_exp, brute_st):
            masks = [b.mask for b in out]
            assert masks == sorted(masks), name


def test_fast_solvers_match_oracles_randomly():
    # The candidate bound is the three-valued Kripke-Kleene state under
    # either truth function, so both are pinned here.
    for truth in TruthFunctionKind:
        rng = random.Random(307)
        for _ in range(150):
            ctx = OperatorContext(rand_theory(rng, ["P", "Q", "R"]), truth)
            assert [r.pp for r in expansions(ctx).results] == brute_expansions(ctx)
            assert [r.pp for r in stable_extensions(ctx).results] == brute_stable(ctx)
