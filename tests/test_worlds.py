import random

import pytest

import nmr.worlds
from nmr.errors import InternalInvariantError, ResourceCapError, VocabularyMismatchError
from nmr.truth import entails
from nmr.worlds import (
    BeliefState,
    PartialBeliefState,
    Vocabulary,
    World,
    bottom_p,
    enumerate_worlds,
    leq_k,
    leq_p,
    world_pieces,
    world_texts,
)

from helpers import bstate, dnf_formula, pstate, rand_partial_state, world

VP = Vocabulary(("P",))
VPQ = Vocabulary(("P", "Q"))
V0 = Vocabulary(())


def test_enumerate_worlds_one_atom():
    assert enumerate_worlds(VP) == bstate(VP, (), ("P",))


def test_enumerate_worlds_two_atoms():
    assert enumerate_worlds(VPQ) == bstate(VPQ, (), ("P",), ("Q",), ("P", "Q"))


def test_enumerate_worlds_empty_vocabulary():
    full = enumerate_worlds(V0)
    assert len(full) == 1 and full.mask == 1


def test_indices_are_the_set_bits_in_ascending_order():
    rng = random.Random(83)
    for n in range(11):
        vocab = Vocabulary(tuple(f"A{k}" for k in range(n)))
        for mask in (0, vocab.full_mask, *(rng.randrange(vocab.full_mask + 1) for _ in range(20))):
            brute = [i for i in range(vocab.world_count) if mask >> i & 1]
            assert list(BeliefState(vocab, mask).indices()) == brute


def test_enumerate_worlds_cap():
    with pytest.raises(ResourceCapError):
        enumerate_worlds(VPQ, cap=1)


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        Vocabulary(("P", "P"))


def test_world_indexing_and_satisfaction():
    w = world(VPQ, ("Q",))
    assert w.index == 2
    assert not w.satisfies("P") and w.satisfies("Q")
    assert w.true_atoms() == ("Q",)
    with pytest.raises(VocabularyMismatchError):
        w.satisfies("Z")


def test_bottom_p():
    assert bottom_p(VPQ) == pstate(VPQ, [(), ("P",), ("Q",), ("P", "Q")], [])
    assert bottom_p(VP) == pstate(VP, [(), ("P",)], [])
    assert bottom_p(V0).pp.mask == 1 and bottom_p(V0).cp.mask == 0


def test_leq_k_examples():
    full = BeliefState.full(VP)
    just_p = bstate(VP, ("P",))
    assert leq_k(full, just_p)
    assert not leq_k(just_p, full)
    assert leq_k(bstate(VP, (), ("P",)), just_p)


def test_leq_k_vocabulary_mismatch():
    with pytest.raises(VocabularyMismatchError):
        leq_k(BeliefState.full(VP), BeliefState.full(VPQ))


def test_leq_p_examples():
    bot = bottom_p(VP)
    kk = pstate(VP, [(), ("P",)], [("P",)])
    wf = pstate(VP, [(), ("P",)], [(), ("P",)])
    total_p = pstate(VP, [("P",)], [("P",)])
    assert leq_p(bot, kk) and leq_p(bot, wf) and leq_p(bot, total_p)
    assert leq_p(kk, wf)
    assert not leq_p(total_p, bot)


def test_inconsistent_pair_is_rejected():
    with pytest.raises(InternalInvariantError):
        pstate(VP, [()], [("P",)])


def test_status_and_totality():
    pb = pstate(VPQ, [(), ("P",), ("P", "Q")], [("P",)])
    assert str(pb.status(world(VPQ, ("P",)))) == "t"
    assert str(pb.status(world(VPQ, ("Q",)))) == "f"
    assert str(pb.status(world(VPQ, ()))) == "u"
    assert not pb.is_total
    assert PartialBeliefState.total(bstate(VPQ, ())).is_total


def test_leq_p_is_a_partial_order():
    rng = random.Random(31)
    states = [rand_partial_state(rng, VPQ) for _ in range(60)]
    for a in states:
        assert leq_p(a, a)
    for a in states:
        for b in states:
            if leq_p(a, b) and leq_p(b, a):
                assert a == b
    for _ in range(400):
        a, b, c = rng.choice(states), rng.choice(states), rng.choice(states)
        if leq_p(a, b) and leq_p(b, c):
            assert leq_p(a, c)


def test_leq_k_matches_objective_theory_inclusion_exhaustively():
    # b1 <=k b2 iff every objective formula entailed by b1 is entailed by b2,
    # checked against all 16 semantic classes of objective formulas over 2 atoms.
    formulas = [dnf_formula(VPQ, m) for m in range(VPQ.full_mask + 1)]
    for m1 in range(VPQ.full_mask + 1):
        for m2 in range(VPQ.full_mask + 1):
            b1, b2 = BeliefState(VPQ, m1), BeliefState(VPQ, m2)
            inclusion = all(entails(b2, f) for f in formulas if entails(b1, f))
            assert leq_k(b1, b2) == inclusion


def test_world_json_is_alphabetical():
    v = Vocabulary(("Zeta", "Alpha"))
    assert world(v, ("Zeta", "Alpha")).to_json() == ["Alpha", "Zeta"]


def test_belief_state_json_sorted_by_canonical_index():
    assert bstate(VPQ, ("Q",), (), ("P", "Q")).to_json() == [[], ["Q"], ["P", "Q"]]


def test_partial_state_json_kind():
    assert pstate(VPQ, [()], [()]).to_json()["kind"] == "total"
    pb = pstate(VPQ, [(), ("P",)], [()])
    assert pb.to_json() == {"kind": "partial", "pp": [[], ["P"]], "cp": [[]]}


def test_display_notation():
    assert str(world(VPQ, ())) == "∅"
    assert str(bstate(VPQ, (), ("P", "Q"))) == "{∅, {P,Q}}"
    assert str(BeliefState.empty(VPQ)) == "∅"
    assert str(pstate(VP, [(), ("P",)], [("P",)])) == "({∅, {P}}, {{P}})"
    assert str(pstate(VP, [("P",)], [("P",)])) == "{{P}}"


def _world_text(vocab: Vocabulary, i: int) -> str:
    atoms = [a for k, a in enumerate(vocab.atoms) if i >> k & 1]
    return "{" + ",".join(atoms) + "}" if atoms else "∅"


def test_display_strings_match_a_per_atom_reference():
    rng = random.Random(17)
    names = ["b", "a", "B", "_c", "Z", "q10", "q2", "x", "Y", "w"]
    for n in range(11):
        vocab = Vocabulary(tuple(names[:n]))
        for mask in [0, 1, vocab.full_mask] + [rng.randrange(vocab.full_mask + 1)
                                               for _ in range(8)]:
            worlds = [i for i in range(vocab.world_count) if mask >> i & 1]
            expected = "{" + ", ".join(_world_text(vocab, i) for i in worlds) + "}"
            assert str(BeliefState(vocab, mask)) == (expected if mask else "∅")
        for i in [0, vocab.world_count - 1] + [rng.randrange(vocab.world_count)
                                               for _ in range(4)]:
            assert str(World(vocab, i)) == _world_text(vocab, i)


def _sorted_atoms(vocab: Vocabulary, i: int) -> list[str]:
    return sorted(a for k, a in enumerate(vocab.atoms) if i >> k & 1)


def test_world_renderers_match_a_per_world_filter_on_both_sides_of_the_size_rule():
    # Few worlds keep world_pieces' filter, many take its half tables; the
    # masks below reach both for every n, and odd n splits the atoms unevenly.
    rng = random.Random(29)
    names = ["b", "a", "B", "_c", "Z", "q10", "q2", "é", "x", "Y", "w", "v"]
    for n in range(13):
        vocab = Vocabulary(tuple(names[:n]))
        last = vocab.world_count - 1
        masks = [0, 1, 1 << last, 1 << rng.randrange(vocab.world_count), vocab.full_mask,
                 rng.randrange(vocab.full_mask + 1)]
        for mask in masks:
            worlds = [i for i in range(vocab.world_count) if mask >> i & 1]
            assert world_texts(vocab, mask) == [_world_text(vocab, i) for i in worlds]
            assert BeliefState(vocab, mask).to_json() == [_sorted_atoms(vocab, i)
                                                          for i in worlds]
        for i in (0, last, rng.randrange(vocab.world_count)):
            assert World(vocab, i).to_json() == _sorted_atoms(vocab, i)


def test_world_pieces_takes_the_tables_only_for_many_worlds(monkeypatch):
    built = []
    half_table = nmr.worlds._half_table
    monkeypatch.setattr(nmr.worlds, "_half_table", lambda p: built.append(p) or half_table(p))
    pieces = [(1 << k, f"A{k}") for k in range(12)]
    assert world_pieces(pieces, [5, 4095]) == [["A0", "A2"], [f"A{k}" for k in range(12)]]
    assert not built
    dense = world_pieces(pieces, range(4096))
    assert built == [pieces[:6], pieces[6:]]
    assert dense[5] == ["A0", "A2"] and dense[4095] == [f"A{k}" for k in range(12)]
