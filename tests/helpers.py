"""Seeded random generators and small constructors shared by the test suite."""

from __future__ import annotations

import random

from nmr.defaults import Default, DefaultTheory
from nmr.syntax import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Formula,
    Iff,
    Implies,
    Knows,
    Not,
    Or,
    Theory,
)
from nmr.truth import TruthValue3
from nmr.worlds import BeliefState, PartialBeliefState, Vocabulary, World


# --- truth values -----------------------------------------------------------

def truth_value(b: bool) -> TruthValue3:
    return TruthValue3.T if b else TruthValue3.F


def value_leq_p(a: TruthValue3, b: TruthValue3) -> bool:
    """Precision order on truth values: u below both t and f, t and f incomparable."""
    return a is TruthValue3.U or a is b


# --- explicit state constructors -------------------------------------------

def world_index(vocab: Vocabulary, atoms) -> int:
    return sum(1 << vocab.index(a) for a in atoms)


def world(vocab: Vocabulary, atoms) -> World:
    return World(vocab, world_index(vocab, atoms))


def bstate(vocab: Vocabulary, *worlds) -> BeliefState:
    """Belief state from tuples of true-atom names, e.g. bstate(v, (), ("P",))."""
    return BeliefState.of_indices(vocab, [world_index(vocab, w) for w in worlds])


def pstate(vocab: Vocabulary, pp, cp) -> PartialBeliefState:
    return PartialBeliefState(bstate(vocab, *pp), bstate(vocab, *cp))


def dnf_formula(vocab: Vocabulary, mask: int) -> Formula:
    """An objective formula whose models are exactly the worlds in mask."""
    disjuncts: list[Formula] = []
    for i in range(vocab.world_count):
        if not mask >> i & 1:
            continue
        lits: list[Formula] = []
        for k, name in enumerate(vocab.atoms):
            lits.append(Atom(name) if i >> k & 1 else Not(Atom(name)))
        conj: Formula = lits[0] if lits else TOP
        for lit in lits[1:]:
            conj = And(conj, lit)
        disjuncts.append(conj)
    if not disjuncts:
        return BOTTOM
    out = disjuncts[0]
    for d in disjuncts[1:]:
        out = Or(out, d)
    return out


# --- random generators ------------------------------------------------------

_BINOPS = {"and": And, "or": Or, "implies": Implies, "iff": Iff}


def rand_formula(rng: random.Random, atoms, depth: int, allow_k: bool = True) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.85:
            return Atom(rng.choice(atoms))
        return TOP if r < 0.93 else BOTTOM
    kinds = ["not", "and", "or", "implies", "iff"]
    if allow_k:
        kinds += ["knows", "knows"]
    kind = rng.choice(kinds)
    if kind == "not":
        return Not(rand_formula(rng, atoms, depth - 1, allow_k))
    if kind == "knows":
        return Knows(rand_formula(rng, atoms, depth - 1, allow_k))
    cls = _BINOPS[kind]
    return cls(rand_formula(rng, atoms, depth - 1, allow_k),
               rand_formula(rng, atoms, depth - 1, allow_k))


def rand_theory(rng: random.Random, atoms, max_formulas: int = 3, depth: int = 3) -> Theory:
    vocab = Vocabulary(tuple(atoms))
    formulas = tuple(
        rand_formula(rng, atoms, rng.randint(1, depth))
        for _ in range(rng.randint(1, max_formulas))
    )
    return Theory(vocab, formulas)


def rand_only_negative_theory(rng: random.Random, atoms) -> Theory:
    """Theories of rules (K a1 & ... & K ak) -> c with objective a_i, c."""
    vocab = Vocabulary(tuple(atoms))
    formulas = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            formulas.append(rand_formula(rng, atoms, 2, allow_k=False))
            continue
        ant: Formula = Knows(rand_formula(rng, atoms, rng.randint(0, 2), allow_k=False))
        for _ in range(rng.randint(0, 2)):
            ant = And(ant, Knows(rand_formula(rng, atoms, rng.randint(0, 2), allow_k=False)))
        formulas.append(Implies(ant, rand_formula(rng, atoms, rng.randint(0, 2), allow_k=False)))
    return Theory(vocab, tuple(formulas))


def rand_belief_state(rng: random.Random, vocab: Vocabulary) -> BeliefState:
    return BeliefState(vocab, rng.randrange(vocab.full_mask + 1))


def rand_partial_state(rng: random.Random, vocab: Vocabulary) -> PartialBeliefState:
    pp = rng.randrange(vocab.full_mask + 1)
    cp = pp & rng.randrange(vocab.full_mask + 1)
    return PartialBeliefState.of_masks(vocab, pp, cp)


def refine(rng: random.Random, pb: PartialBeliefState) -> PartialBeliefState:
    """A random state at least as precise as pb."""
    settle = pb.unknown_mask & rng.randrange(pb.vocabulary.full_mask + 1)
    to_true = settle & rng.randrange(pb.vocabulary.full_mask + 1)
    to_false = settle & ~to_true
    return PartialBeliefState.of_masks(
        pb.vocabulary, pb.pp.mask & ~to_false, pb.cp.mask | to_true
    )


def rand_objective(rng: random.Random, atoms, depth: int) -> Formula:
    return rand_formula(rng, atoms, depth, allow_k=False)


def rand_default_theory(rng: random.Random, atoms, max_defaults: int = 3) -> DefaultTheory:
    vocab = Vocabulary(tuple(atoms))
    facts = tuple(rand_objective(rng, atoms, 2) for _ in range(rng.randint(0, 2)))
    defaults = []
    for _ in range(rng.randint(1, max_defaults)):
        pre = TOP if rng.random() < 0.3 else rand_objective(rng, atoms, 1)
        justs = tuple(rand_objective(rng, atoms, 1) for _ in range(rng.randint(0, 2)))
        defaults.append(Default(pre, justs, rand_objective(rng, atoms, 1)))
    return DefaultTheory(vocab, facts, tuple(defaults))
