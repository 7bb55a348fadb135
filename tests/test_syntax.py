import random

import pytest

from nmr.errors import ParseError
from nmr.syntax import (
    And,
    Atom,
    Bottom,
    Iff,
    Implies,
    Knows,
    Not,
    Or,
    Polarity,
    Theory,
    Top,
    collect_modal_subformulas,
    modal_polarities,
    objective,
    only_negative,
    parse_formula,
    parse_theory,
    print_formula,
    print_theory,
)
from nmr.worlds import Vocabulary

from helpers import rand_formula, rand_theory

P, Q, R = Atom("P"), Atom("Q"), Atom("R")


def test_parse_monotone_rule():
    assert parse_formula("K P -> P") == Implies(Knows(P), P)


def test_parse_negative_antecedent_rule():
    assert parse_formula("~K P -> P") == Implies(Not(Knows(P)), P)


def test_parse_error_on_truncated_input():
    with pytest.raises(ParseError) as err:
        parse_formula("P &")
    assert err.value.line == 1
    assert err.value.column == 4


def test_parse_error_reports_position_of_bad_character():
    with pytest.raises(ParseError) as err:
        parse_formula("P $ Q")
    assert (err.value.line, err.value.column) == (1, 3)


def test_parse_error_on_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_formula("(P & Q")


@pytest.mark.parametrize("text, name, line, column", [
    ("vocab: A\nA\nA -> B\n", "B", 3, 6),
    ("vocab: A\n\n  K (A | M Z1) # Z2\nZ2\n", "Z1", 3, 12),
])
def test_an_atom_outside_the_vocabulary_is_reported_where_it_occurs(text, name, line, column):
    with pytest.raises(ParseError) as err:
        parse_theory(text)
    assert (err.value.message, err.value.line, err.value.column) == (
        f"atom {name!r} occurs in the theory but not in the vocabulary", line, column)


def test_m_desugars_to_not_k_not():
    assert parse_formula("M P") == Not(Knows(Not(P)))
    assert parse_formula("K P & M Q") == And(Knows(P), Not(Knows(Not(Q))))


def test_constants():
    assert parse_formula("true") == Top()
    assert parse_formula("false -> P") == Implies(Bottom(), P)


def test_precedence():
    assert parse_formula("K P | ~K P -> P") == Implies(Or(Knows(P), Not(Knows(P))), P)
    assert parse_formula("P & Q | R") == Or(And(P, Q), R)
    assert parse_formula("P -> Q -> R") == Implies(P, Implies(Q, R))
    assert parse_formula("K P & Q") == And(Knows(P), Q)
    assert parse_formula("~P & Q") == And(Not(P), Q)


def test_iff_is_non_associative():
    with pytest.raises(ParseError):
        parse_formula("P <-> Q <-> R")


def test_print_examples():
    f = Implies(And(Knows(R), Not(Knows(Not(Atom("H"))))), Atom("H"))
    assert print_formula(f) == "K R & ~K ~H -> H"
    assert print_formula(Implies(Or(Knows(P), Not(Knows(P))), P)) == "K P | ~K P -> P"
    assert print_formula(And(P, Or(Q, R))) == "P & (Q | R)"
    assert print_formula(Implies(Implies(P, Q), R)) == "(P -> Q) -> R"


def test_roundtrip_random_formulas():
    rng = random.Random(2024)
    atoms = ["P", "Q", "R", "S_1", "tmp"]
    for _ in range(400):
        f = rand_formula(rng, atoms, rng.randint(0, 6))
        assert parse_formula(print_formula(f)) == f


def test_theory_file_parsing_and_vocab_header():
    text = "# comment\nvocab: A B C\nA -> B  # trailing comment\n\nB & C\n"
    t = parse_theory(text)
    assert t.vocabulary == Vocabulary(("A", "B", "C"))
    assert t.formulas == (Implies(Atom("A"), Atom("B")), And(Atom("B"), Atom("C")))


def test_theory_vocab_defaults_to_first_occurrence():
    t = parse_theory("Q -> P\nR\n")
    assert t.vocabulary.atoms == ("Q", "P", "R")


def test_theory_atom_outside_declared_vocab_is_an_error():
    with pytest.raises(ParseError):
        parse_theory("vocab: A\nA -> B\n")


def test_theory_duplicate_vocab_atom_is_an_error():
    with pytest.raises(ParseError):
        parse_theory("vocab: A A\nA\n")


def test_duplicate_vocab_atom_is_reported_at_its_second_occurrence():
    with pytest.raises(ParseError) as err:
        parse_theory("vocab: A B A\nA\n")
    assert (err.value.message, err.value.line, err.value.column) == (
        "duplicate atom in vocab header", 1, 12)


def test_theory_construction_checks_vocabulary():
    with pytest.raises(ValueError):
        Theory(Vocabulary(("P",)), (Q,))


def test_print_theory_roundtrip():
    t = parse_theory("vocab: P Q\nK P -> Q\n~Q\n")
    assert parse_theory(print_theory(t)) == t
    assert print_theory(Theory(Vocabulary(()), ())) == ""


def test_objective():
    assert objective(parse_formula("P & ~Q"))
    assert not objective(parse_formula("P & K Q"))


def test_collect_modal_subformulas_single():
    assert collect_modal_subformulas(parse_theory("K P -> P")) == (P,)


def test_collect_modal_subformulas_objective_theory():
    assert collect_modal_subformulas(parse_theory("P")) == ()


def test_collect_modal_subformulas_nixon_translation():
    t = parse_theory(
        "vocab: R Q H D\nR & Q\n~(H & D)\nK R & ~K ~H -> H\nK Q & ~K ~D -> D\n"
    )
    assert collect_modal_subformulas(t) == (R, Not(Atom("H")), Q, Not(Atom("D")))


def test_collect_modal_subformulas_innermost_first():
    t = parse_theory("K (K P -> P)")
    assert collect_modal_subformulas(t) == (P, Implies(Knows(P), P))


def test_collect_modal_subformulas_distinct_and_deterministic():
    rng = random.Random(5)
    for _ in range(100):
        t = rand_theory(rng, ["P", "Q"], depth=4)
        subs = collect_modal_subformulas(t)
        assert len(subs) == len(set(subs))
        assert subs == collect_modal_subformulas(t)


def test_polarity_join():
    assert Polarity.POSITIVE.join(Polarity.NEGATIVE) is Polarity.BOTH
    assert Polarity.NEGATIVE.join(Polarity.NEGATIVE) is Polarity.NEGATIVE
    assert Polarity.BOTH.join(Polarity.POSITIVE) is Polarity.BOTH


def test_polarity_monotone_rule_is_only_negative():
    t = parse_theory("K P -> P")
    assert only_negative(t)
    (occ,) = modal_polarities(t)
    assert occ.polarity is Polarity.NEGATIVE


def test_polarity_double_flip_is_positive():
    t = parse_theory("~K P -> P")
    (occ,) = modal_polarities(t)
    assert occ.polarity is Polarity.POSITIVE
    assert not only_negative(t)


def test_polarity_iff_is_both():
    t = parse_theory("K P <-> Q")
    (occ,) = modal_polarities(t)
    assert occ.polarity is Polarity.BOTH
    assert not only_negative(t)


def _naive_polarities(t: Theory):
    """Independent sign walker used to cross-check modal_polarities."""
    out = []

    def walk(f, sign):
        if isinstance(f, Not):
            walk(f.sub, -sign if sign != 0 else 0)
        elif isinstance(f, (And, Or)):
            walk(f.left, sign)
            walk(f.right, sign)
        elif isinstance(f, Implies):
            walk(f.left, -sign if sign != 0 else 0)
            walk(f.right, sign)
        elif isinstance(f, Iff):
            walk(f.left, 0)
            walk(f.right, 0)
        elif isinstance(f, Knows):
            out.append(sign)
            walk(f.sub, sign)

    for f in t.formulas:
        walk(f, 1)
    return out


def test_polarity_matches_independent_sign_walker():
    signs = {1: Polarity.POSITIVE, -1: Polarity.NEGATIVE, 0: Polarity.BOTH}
    rng = random.Random(99)
    for _ in range(200):
        t = rand_theory(rng, ["P", "Q", "R"], depth=4)
        got = [occ.polarity for occ in modal_polarities(t)]
        want = [signs[s] for s in _naive_polarities(t)]
        assert got == want
        assert only_negative(t) == all(p is Polarity.NEGATIVE for p in want)
