"""Worlds, possible-world sets, and the knowledge/precision orders.

A vocabulary of n atoms induces 2^n worlds, identified with the integers
in [0, 2^n): world i makes atom k true iff bit k of i is set.  Sets of
worlds (belief states) are stored as bitmasks over those 2^n positions,
so every fixpoint computation in the package reduces to word-level set
operations on Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Iterator, Sequence, TYPE_CHECKING

from .errors import InternalInvariantError, ResourceCapError, VocabularyMismatchError

if TYPE_CHECKING:  # pragma: no cover
    from .truth import TruthValue3

#: Largest vocabulary enumerated eagerly unless a caller overrides the cap.
DEFAULT_ATOM_CAP = 20


@dataclass(frozen=True, slots=True)
class Vocabulary:
    """Ordered atom names; the order fixes the world indexing."""

    atoms: tuple[str, ...]
    #: 2^n, the number of worlds.
    world_count: int = field(init=False, repr=False, compare=False)
    _full_mask: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError(f"duplicate atom names in vocabulary: {self.atoms}")
        object.__setattr__(self, "world_count", 1 << len(self.atoms))

    @property
    def full_mask(self) -> int:
        """Bitmask with one bit per world, all set.  Built on first read:
        parsing makes a vocabulary before the atom cap is checked."""
        mask = self._full_mask
        if mask is None:
            mask = (1 << self.world_count) - 1
            object.__setattr__(self, "_full_mask", mask)
        return mask

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[str]:
        return iter(self.atoms)

    def __contains__(self, name: str) -> bool:
        return name in self.atoms

    def index(self, name: str) -> int:
        try:
            return self.atoms.index(name)
        except ValueError:
            raise VocabularyMismatchError(
                f"atom {name!r} is not in the vocabulary {list(self.atoms)}"
            ) from None

    def __str__(self) -> str:
        return " ".join(self.atoms) if self.atoms else "(empty)"


@lru_cache(maxsize=None)
def atom_worlds_mask(k: int, n: int) -> int:
    """Mask of the worlds (over n atoms) in which atom k is true.

    Built by doubling: the pattern has period 2^(k+1) with the upper
    half of each period set.
    """
    size = 1 << n
    mask = ((1 << (1 << k)) - 1) << (1 << k)
    span = 1 << (k + 1)
    while span < size:
        mask |= mask << span
        span <<= 1
    return mask


#: ``bin`` digits as the 0/1 selector bytes ``itertools.compress`` reads.
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")
#: ``set_bits`` selects at C level when a mask holds more than one world per
#: this many bits (timeit: the two walks cost the same at one in 8-16).
_DENSE = 8


def set_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a non-negative mask, ascending, from
    one pass over its binary digits: ``itertools.compress`` over all the
    digits for a dense mask, one ``str.find`` step per set bit otherwise."""
    digits = bin(mask)[:1:-1]
    if mask.bit_count() * _DENSE > len(digits):
        return compress(range(len(digits)), digits.encode().translate(_BINARY_DIGITS))
    return _find_ones(digits)


def _find_ones(digits: str) -> Iterator[int]:
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def atom_bits(vocabulary: Vocabulary, by_name: bool = False) -> list[tuple[int, str]]:
    """(bit, name) for each atom, bit = 1 << k: in vocabulary order, or
    sorted by name (the order of a JSON atom array)."""
    pairs = [(1 << k, a) for k, a in enumerate(vocabulary.atoms)]
    return sorted(pairs, key=itemgetter(1)) if by_name else pairs


#: A half-table entry (one list concatenation) costs about as much as this
#: many atom tests of the per-world filter (timeit, 4-16 atoms, 1-256 worlds).
_TABLE_ENTRY_TESTS = 6


def world_pieces(pieces: Sequence[tuple[int, str]],
                 indices: Sequence[int]) -> list[list[str]]:
    """For each world index, the pieces of its true atoms, in the order of
    ``pieces``.

    ``pieces`` pairs each atom's bit (1 << k) with what the atom contributes
    to a rendering: its name, or its name encoded as a JSON string.  Their
    order is the output order (sorted names for JSON, vocabulary order for
    ``{a,b}`` texts).  Every renderer of world names reads this helper.

    Size rule.  A per-world filter makes n atom tests per world.  Two half
    tables, built by doubling over the first and the second half of the n
    pieces, hold 2^floor(n/2) + 2^ceil(n/2) lists; then a world costs two
    dict lookups and one list concatenation.  The tables are built when
    the filter's len(indices) * n tests exceed ``_TABLE_ENTRY_TESTS`` per
    table entry: 16 worlds of 10 atoms or 64 of 12 keep the filter, 64
    worlds of 10 atoms or 512 of 9 take the tables.
    """
    n = len(pieces)
    h = n // 2
    if len(indices) * n <= _TABLE_ENTRY_TESTS * ((1 << h) + (1 << (n - h))):
        return [[p for bit, p in pieces if i & bit] for i in indices]
    (lo, lo_bits), (hi, hi_bits) = _half_table(pieces[:h]), _half_table(pieces[h:])
    return [lo[i & lo_bits] + hi[i & hi_bits] for i in indices]


def _half_table(pieces: Sequence[tuple[int, str]]) -> tuple[dict[int, list[str]], int]:
    """Every subset of pieces, keyed by the OR of its bits, built by doubling;
    and the OR of all the bits."""
    table = {0: []}
    for bit, p in pieces:
        p = [p]
        table.update({i | bit: t + p for i, t in table.items()})
    return table, sum(bit for bit, _ in pieces)


def world_texts(vocabulary: Vocabulary, mask: int) -> list[str]:
    """Each world of mask, ascending, as ``{a,b}``: its true atoms in
    vocabulary order, or ``∅`` for world 0."""
    indices = list(set_bits(mask))
    texts = ["{" + ",".join(atoms) + "}"
             for atoms in world_pieces(atom_bits(vocabulary), indices)]
    if mask & 1:
        texts[0] = "∅"
    return texts


@dataclass(frozen=True, slots=True)
class World:
    """One interpretation of the vocabulary, named by its canonical index."""

    vocabulary: Vocabulary
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.vocabulary.world_count:
            raise ValueError(f"world index {self.index} out of range")

    def satisfies(self, atom: str) -> bool:
        return bool(self.index >> self.vocabulary.index(atom) & 1)

    def true_atoms(self) -> tuple[str, ...]:
        """True atoms in vocabulary order."""
        return tuple(a for k, a in enumerate(self.vocabulary.atoms) if self.index >> k & 1)

    def to_json(self) -> list[str]:
        """True atoms, sorted alphabetically."""
        return world_pieces(atom_bits(self.vocabulary, by_name=True), [self.index])[0]

    def __str__(self) -> str:
        return world_texts(self.vocabulary, 1 << self.index)[0]


@dataclass(frozen=True, slots=True)
class BeliefState:
    """A total possible-world set: a subset of the 2^n worlds.

    The empty state is allowed; it is the inconsistent belief state
    that entails everything.
    """

    vocabulary: Vocabulary
    mask: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.vocabulary.world_count:
            raise ValueError("belief-state mask out of range for vocabulary")

    @classmethod
    def full(cls, vocabulary: Vocabulary) -> "BeliefState":
        return cls(vocabulary, vocabulary.full_mask)

    @classmethod
    def empty(cls, vocabulary: Vocabulary) -> "BeliefState":
        return cls(vocabulary, 0)

    @classmethod
    def of_indices(cls, vocabulary: Vocabulary, indices) -> "BeliefState":
        mask = 0
        for i in indices:
            mask |= 1 << i
        return cls(vocabulary, mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, world: World) -> bool:
        _require_same_vocabulary(self.vocabulary, world.vocabulary)
        return bool(self.mask >> world.index & 1)

    def indices(self) -> Iterator[int]:
        return set_bits(self.mask)

    def worlds(self) -> Iterator[World]:
        for i in self.indices():
            yield World(self.vocabulary, i)

    def issubset(self, other: "BeliefState") -> bool:
        _require_same_vocabulary(self.vocabulary, other.vocabulary)
        return self.mask & ~other.mask == 0

    def to_json(self) -> list[list[str]]:
        """Worlds sorted by canonical index, each a sorted atom array."""
        return world_pieces(atom_bits(self.vocabulary, by_name=True), list(self.indices()))

    def __str__(self) -> str:
        if self.mask == 0:
            return "∅"
        return "{" + ", ".join(world_texts(self.vocabulary, self.mask)) + "}"


@dataclass(frozen=True, slots=True)
class PartialBeliefState:
    """A three-valued possible-world set as a consistent pair (pp, cp).

    pp holds the potentially possible worlds, cp the certainly possible
    ones; a world outside pp is certainly impossible and a world in
    pp but not cp has unknown status.  Only consistent pairs (cp a
    subset of pp) are representable.
    """

    pp: BeliefState
    cp: BeliefState

    def __post_init__(self):
        _require_same_vocabulary(self.pp.vocabulary, self.cp.vocabulary)
        if self.cp.mask & ~self.pp.mask:
            raise InternalInvariantError(
                "inconsistent pair: a certainly possible world is not potentially possible"
            )

    @classmethod
    def total(cls, b: BeliefState) -> "PartialBeliefState":
        return cls(b, b)

    @classmethod
    def of_masks(cls, vocabulary: Vocabulary, pp_mask: int, cp_mask: int) -> "PartialBeliefState":
        return cls(BeliefState(vocabulary, pp_mask), BeliefState(vocabulary, cp_mask))

    @property
    def vocabulary(self) -> Vocabulary:
        return self.pp.vocabulary

    @property
    def is_total(self) -> bool:
        return self.pp.mask == self.cp.mask

    @property
    def unknown_mask(self) -> int:
        return self.pp.mask & ~self.cp.mask

    def status(self, world: World) -> "TruthValue3":
        from .truth import TruthValue3

        _require_same_vocabulary(self.vocabulary, world.vocabulary)
        bit = 1 << world.index
        if self.cp.mask & bit:
            return TruthValue3.T
        if not self.pp.mask & bit:
            return TruthValue3.F
        return TruthValue3.U

    def with_certainly_possible(self, extra_mask: int) -> "PartialBeliefState":
        """A more precise state where the given unknown worlds become certainly possible."""
        return PartialBeliefState(self.pp, BeliefState(self.vocabulary, self.cp.mask | extra_mask))

    def to_json(self) -> dict:
        return {
            "kind": "total" if self.is_total else "partial",
            "pp": self.pp.to_json(),
            "cp": self.cp.to_json(),
        }

    def __str__(self) -> str:
        if self.is_total:
            return str(self.pp)
        return f"({self.pp}, {self.cp})"


def enumerate_worlds(vocabulary: Vocabulary, cap: int = DEFAULT_ATOM_CAP) -> BeliefState:
    """All 2^n worlds over the vocabulary, as the full belief state."""
    if len(vocabulary) > cap:
        raise ResourceCapError(
            f"vocabulary has {len(vocabulary)} atoms; cap is {cap} "
            f"(2^{len(vocabulary)} worlds would be materialized)"
        )
    return BeliefState.full(vocabulary)


def bottom_p(vocabulary: Vocabulary) -> PartialBeliefState:
    """The totally unknown state (W, empty), the least element of the precision order."""
    return PartialBeliefState(BeliefState.full(vocabulary), BeliefState.empty(vocabulary))


def leq_k(b1: BeliefState, b2: BeliefState) -> bool:
    """Knowledge order: b1 knows no more than b2, i.e. b2 is a subset of b1."""
    _require_same_vocabulary(b1.vocabulary, b2.vocabulary)
    return b2.mask & ~b1.mask == 0


def leq_p(p1: PartialBeliefState, p2: PartialBeliefState) -> bool:
    """Precision order: p2 settles at least the worlds p1 settles, the same way."""
    _require_same_vocabulary(p1.vocabulary, p2.vocabulary)
    return p2.pp.mask & ~p1.pp.mask == 0 and p1.cp.mask & ~p2.cp.mask == 0


def _require_same_vocabulary(v1: Vocabulary, v2: Vocabulary) -> None:
    if v1 is not v2 and v1 != v2:
        raise VocabularyMismatchError(f"vocabulary mismatch: {v1} vs {v2}")
