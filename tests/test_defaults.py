import gc
import random
import weakref

import pytest

import nmr.semantics
from nmr.defaults import (
    Default,
    DefaultTheory,
    align_check,
    dl_semantics,
    gamma_operator,
    konolige,
    parse_default_theory,
    reiter_extensions,
)
from nmr.errors import ParseError, ResourceCapError
from nmr.semantics import expansion_candidates, stable_extensions
from nmr.operators import OperatorContext
from nmr.syntax import TOP, Atom, Knows, Not, Or, parse_formula, print_formula
from nmr.truth import TruthValue3, entails, eval_kleene, models
from nmr.worlds import BeliefState, Vocabulary

from helpers import bstate, rand_default_theory

NIXON = "vocab: R Q H D\nR & Q\n~(H & D)\nR : H / H\nQ : D / D\n"
SWEDE = (
    "vocab: Sw Jp Bl Bk\nSw | Jp\n~(Sw & Jp)\n~(Bl & Bk)\n"
    "Sw : Bl / Bl\nJp : Bk / Bk\n"
)


def test_parse_nixon_fixture():
    dt = parse_default_theory(NIXON)
    assert len(dt.facts) == 2 and len(dt.defaults) == 2
    assert dt.vocabulary == Vocabulary(("R", "Q", "H", "D"))
    assert dt.defaults[0] == Default(Atom("R"), (Atom("H"),), Atom("H"))


def test_parse_omitted_prerequisite():
    dt = parse_default_theory(": NatUSA / NatUSA")
    (d,) = dt.defaults
    assert d.prerequisite == TOP
    assert d.justifications == (Atom("NatUSA"),)
    assert d.consequent == Atom("NatUSA")


def test_parse_empty_justification_list():
    dt = parse_default_theory("P : / P")
    (d,) = dt.defaults
    assert d.prerequisite == Atom("P") and d.justifications == ()


def test_parse_rejects_modal_operators():
    with pytest.raises(ParseError):
        parse_default_theory("K P\n")
    with pytest.raises(ParseError):
        parse_default_theory("P : M Q / Q\n")


def test_parse_rejects_malformed_defaults():
    with pytest.raises(ParseError):
        parse_default_theory("P / Q\n")
    with pytest.raises(ParseError):
        parse_default_theory("P : Q / R / S\n")


@pytest.mark.parametrize("line, message, column", [
    ("A : B & / C", "unexpected end of input (expected a formula)", 9),
    (": B / ", "unexpected end of input (expected a formula)", 7),
    ("A & : B / C", "unexpected end of input (expected a formula)", 5),
    ("A : B, C $ / C", "unexpected character '$'", 10),
    (": B, , C ~ / A", "unexpected '~' (trailing input)", 10),
    ("A : B / C )", "unexpected ')' (trailing input)", 11),
    ("A : K B / C", "modal operator not allowed in a default theory file", 5),
    ("A : B / M C", "modal operator not allowed in a default theory file", 9),
    ("A & K B", "modal operator not allowed in a default theory file", 5),
])
def test_parse_errors_in_a_default_carry_line_columns(line, message, column):
    with pytest.raises(ParseError) as err:
        parse_default_theory(f"vocab: A B C\n{line}\n")
    assert (err.value.message, err.value.line, err.value.column) == (message, 2, column)


@pytest.mark.parametrize("text, name, line, column", [
    ("vocab: A B\nA\nA : B / D\n", "D", 3, 9),
    ("vocab: A B\nA : C / B\n# facts come first\nB & D\n", "D", 4, 5),
    ("vocab: A B\n: A, true, C / B\n", "C", 2, 12),
])
def test_an_atom_outside_the_vocabulary_is_reported_where_it_occurs(text, name, line, column):
    with pytest.raises(ParseError) as err:
        parse_default_theory(text)
    assert (err.value.message, err.value.line, err.value.column) == (
        f"atom {name!r} not in the vocabulary", line, column)


def test_konolige_of_a_default():
    dt = parse_default_theory("R : H / H")
    (f,) = konolige(dt).formulas
    assert print_formula(f) == "K R & ~K ~H -> H"


def test_konolige_drops_trivial_prerequisite():
    dt = parse_default_theory(": NatUSA / NatUSA")
    (f,) = konolige(dt).formulas
    assert print_formula(f) == "~K ~NatUSA -> NatUSA"


def test_konolige_fully_degenerate_default_is_its_consequent():
    dt = parse_default_theory(": / P")
    assert konolige(dt).formulas == (Atom("P"),)


def test_konolige_passes_facts_through():
    dt = parse_default_theory("vocab: P Q\nP | Q\n")
    assert konolige(dt).formulas == (parse_formula("P | Q"),)


def test_konolige_is_size_preserving():
    rng = random.Random(7)
    for _ in range(50):
        dt = rand_default_theory(rng, ["A", "B"])
        t = konolige(dt)
        assert len(t.formulas) == len(dt.facts) + len(dt.defaults)
        assert t.vocabulary == dt.vocabulary


def test_reiter_nixon_two_extensions():
    dt = parse_default_theory(NIXON)
    exts = reiter_extensions(dt)
    v = dt.vocabulary
    assert exts == [bstate(v, ("R", "Q", "H")), bstate(v, ("R", "Q", "D"))]
    hawk, dove = exts
    assert entails(hawk, Atom("H")) and entails(hawk, Not(Atom("D")))
    assert entails(dove, Atom("D")) and entails(dove, Not(Atom("H")))


def test_reiter_disjunctive_nationality_blocks_both_defaults():
    dt = parse_default_theory(SWEDE)
    (ext,) = reiter_extensions(dt)
    assert ext == models(dt.facts, dt.vocabulary)
    assert not entails(ext, Atom("Bl")) and not entails(ext, Atom("Bk"))


def test_reiter_combined_default_restores_the_disjunction():
    dt = parse_default_theory(SWEDE + "Sw | Jp : Bl | Bk / Bl | Bk\n")
    (ext,) = reiter_extensions(dt)
    assert entails(ext, Or(Atom("Bl"), Atom("Bk")))


def test_reiter_convention_default_applies():
    dt = parse_default_theory(": NatUSA / NatUSA")
    (ext,) = reiter_extensions(dt)
    assert entails(ext, Atom("NatUSA"))


def test_reiter_subset_cap():
    d = Default(TOP, (), Atom("A"))
    dt = DefaultTheory(Vocabulary(("A",)), (), (d,) * 21)
    with pytest.raises(ResourceCapError):
        reiter_extensions(dt)


def test_dl_reiter_semantics_matches_direct_procedure():
    dt = parse_default_theory(NIXON)
    assert dl_semantics(dt, "reiter").belief_states() == reiter_extensions(dt)


def test_dl_wf_of_nixon_leaves_both_conclusions_unknown():
    dt = parse_default_theory(NIXON)
    wf = dl_semantics(dt, "wf").results[0]
    assert not wf.is_total
    w = next(wf.pp.worlds())
    assert eval_kleene(wf, w, Knows(Atom("H"))) is TruthValue3.U
    assert eval_kleene(wf, w, Knows(Atom("D"))) is TruthValue3.U


def test_dl_prioritized_hawk_rule_defers_to_dove():
    text = "vocab: Q R H D\nQ -> R\nR & Q\nR : H, ~Q / H\nQ : D / D\n"
    dt = parse_default_theory(text)
    res = dl_semantics(dt, "reiter")
    (ext,) = res.belief_states()
    assert entails(ext, Atom("D"))
    assert not entails(ext, Atom("H"))
    assert reiter_extensions(dt) == [ext]


def test_dl_weak_semantics_are_expansions_of_the_translation():
    dt = parse_default_theory(NIXON)
    from nmr.semantics import expansions

    assert dl_semantics(dt, "weak").belief_states() == [
        r.pp for r in expansions(OperatorContext(konolige(dt))).results
    ]


def test_align_check_nixon():
    report = align_check(parse_default_theory(NIXON))
    assert report.aligned
    assert len(report.reiter) == len(report.stable) == 2


def test_align_check_empty_theory():
    report = align_check(parse_default_theory(""))
    assert report.aligned
    assert [b.mask for b in report.reiter] == [1]  # the single empty world


def test_align_check_random_theories():
    rng = random.Random(211)
    for _ in range(100):
        dt = rand_default_theory(rng, ["A", "B"], max_defaults=2)
        assert align_check(dt).aligned


def test_reiter_extensions_respect_the_facts():
    rng = random.Random(223)
    for _ in range(100):
        dt = rand_default_theory(rng, ["A", "B", "C"])
        facts = models(dt.facts, dt.vocabulary)
        for ext in reiter_extensions(dt):
            assert ext.issubset(facts)


def test_gamma_operator_is_antitone():
    rng = random.Random(227)
    vocab = Vocabulary(("A", "B"))
    for _ in range(150):
        dt = rand_default_theory(rng, ["A", "B"])
        e1 = BeliefState(vocab, rng.randrange(vocab.full_mask + 1))
        e2 = BeliefState(vocab, e1.mask | rng.randrange(vocab.full_mask + 1))
        assert gamma_operator(dt, e2).issubset(gamma_operator(dt, e1))


def test_reiter_equals_stable_of_translation_randomly():
    rng = random.Random(229)
    for _ in range(120):
        dt = rand_default_theory(rng, ["A", "B", "C"])
        direct = reiter_extensions(dt)
        translated = [r.pp for r in stable_extensions(OperatorContext(konolige(dt))).results]
        assert direct == translated


def chain_theory(pairs: int, facts) -> DefaultTheory:
    """a_i : b_i / b_i for i < pairs, with a_i a fact for each i in facts."""
    lines = [f"a{i}" for i in facts] + [f"a{i} : b{i} / b{i}" for i in range(pairs)]
    return parse_default_theory("\n".join(lines) + "\n")


def nixon_theory(k: int) -> DefaultTheory:
    """k Nixon diamonds sharing the facts r and q: 2^k extensions."""
    lines = ["r & q"]
    for i in range(k):
        lines += [f"~(h{i} & d{i})", f"r : h{i} / h{i}", f"q : d{i} / d{i}"]
    return parse_default_theory("\n".join(lines) + "\n")


@pytest.mark.parametrize("pairs", range(1, 9))
def test_chain_has_one_candidate_and_matches_direct_reiter(pairs):
    # The Kripke-Kleene state decides every K-guess of a chain, so the
    # one candidate left is its extension; 8 pairs make 16 atoms.
    rng = random.Random(233 + pairs)
    dt = chain_theory(pairs, sorted(rng.sample(range(pairs), pairs // 2)))
    assert dl_semantics(dt, "reiter").belief_states() == reiter_extensions(dt)
    assert len(expansion_candidates(OperatorContext(konolige(dt)))) == 1


@pytest.mark.parametrize("k", range(1, 6))
def test_nixon_diamonds_match_direct_reiter(k, monkeypatch):
    # The bounds decide no guess of a diamond, yet the K-guess search
    # yields only the 2^k expansions, and each gets one stable revision.
    dt = nixon_theory(k)
    direct = reiter_extensions(dt)
    assert len(direct) == 2 ** k
    assert len(expansion_candidates(OperatorContext(konolige(dt)))) == 2 ** k
    revisions = []
    revise = nmr.semantics.stable_revision

    def counting(*args):
        revisions.append(args[1])
        return revise(*args)

    monkeypatch.setattr(nmr.semantics, "stable_revision", counting)
    assert dl_semantics(dt, "reiter").belief_states() == direct
    assert revisions == direct  # one revision per extension, in mask order


def test_default_theory_masks_are_freed_with_the_theory():
    dt = parse_default_theory(NIXON)
    assert len(reiter_extensions(dt)) == 2
    assert "_masks" in vars(dt)  # the solve cached its masks on the theory
    held = weakref.ref(dt)
    del dt
    gc.collect()
    assert held() is None
