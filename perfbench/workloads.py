"""Seeded generators, references and answer checks for the four workloads.

Every instance is a theory file plus the ``nmr`` command line that solves
it.  Instance ``i`` of stream ``s`` under seed ``n`` is drawn from its own
``random.Random`` keyed by ``(workload, n, s, i)``, so the same seed gives
byte-identical files whatever the run length.

References never come from the solver route under test:

* ``dl_chain``   -- the models of the facts plus ``b_i`` for each fact
  ``a_i``, built here by enumerating worlds;
* ``dl_nixon``   -- the 2^k single-world extensions, one per choice of
  ``h_i`` or ``d_i`` in each diamond, built here;
* ``ael_trace``  -- ``nmr.oracle.algebraic_wf`` with the oracle budget
  raised to the atom count, computed only after the timed calls so the
  solver's formula caches stay cold for them;
* ``check_small`` -- the check's own verdict (exit 0, last line ``ok``).

This module imports nothing from ``nmr`` at module level.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    key: str                    # unique per run: "<workload>-<stream>-<index>"
    suffix: str                 # ".ael" or ".dt"
    text: str                   # the theory file, byte for byte
    args: tuple[str, ...]       # nmr argv before "--input <file>"
    expect: object = None       # nmr-free reference, if the workload has one

    def argv(self, path: str) -> list[str]:
        return [*self.args, "--input", path]


def instance_rng(workload: str, seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}:{index}")


# ---------------------------------------------------------------------------
# World sets, as frozensets of frozensets of true atoms
# ---------------------------------------------------------------------------

def _worlds(atoms: list[str], fixed_true: set[str]) -> frozenset:
    """All worlds over atoms in which every atom of fixed_true holds."""
    free = [a for a in atoms if a not in fixed_true]
    out = set()
    for bits in itertools.product((False, True), repeat=len(free)):
        out.add(frozenset(fixed_true | {a for a, b in zip(free, bits) if b}))
    return frozenset(out)


def _json_state(state: dict) -> tuple[str, frozenset, frozenset]:
    return (state["kind"],
            frozenset(frozenset(w) for w in state["pp"]),
            frozenset(frozenset(w) for w in state["cp"]))


_HUMAN_COUNT_RE = re.compile(r"^(\w+): (\d+) results?$")
_HUMAN_STATE_RE = re.compile(r"^  \[(\d+)\] (.*)$")
_HUMAN_WORLD_RE = re.compile(r"∅|\{([^{}]*)\}")


def _parse_human_world_set(text: str) -> frozenset:
    if text == "∅":
        return frozenset()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a world set: {text!r}")
    inner = text[1:-1]
    worlds = [frozenset(m.split(",")) if m else frozenset()
              for m in _HUMAN_WORLD_RE.findall(inner)]
    return frozenset(worlds)


def parse_human_results(stdout: str, semantics: str) -> list[frozenset]:
    """World sets listed by the human ``solve`` output of a multi-result semantics."""
    lines = stdout.rstrip("\n").split("\n")
    if not lines[0].startswith("vocabulary: "):
        raise ValueError("missing vocabulary line")
    m = _HUMAN_COUNT_RE.match(lines[1])
    if not m or m.group(1) != semantics:
        raise ValueError(f"bad result header {lines[1]!r}")
    states = []
    for n, line in enumerate(lines[2:], start=1):
        sm = _HUMAN_STATE_RE.match(line)
        if not sm or int(sm.group(1)) != n:
            raise ValueError(f"bad result line {line!r}")
        states.append(_parse_human_world_set(sm.group(2)))
    if len(states) != int(m.group(2)):
        raise ValueError("result count does not match the listed states")
    return states


# ---------------------------------------------------------------------------
# dl_chain: a_i : b_i / b_i, a seeded half of the a_i facts
# ---------------------------------------------------------------------------

#: Every fifth chain has six pairs, the rest five.  The call time of one
#: size barely varies, so with a single size the 90th percentile would
#: measure the machine's noise rather than the solver.  With one large
#: instance in five, the median lies mid-way into the five-pair mode and
#: the 90th percentile mid-way into the six-pair mode.
CHAIN_SMALL, CHAIN_LARGE = 5, 6


def chain_pairs(index: int) -> int:
    return CHAIN_LARGE if index % 5 == 4 else CHAIN_SMALL


def gen_dl_chain(rng: random.Random, key: str, n: int) -> Instance:
    atoms = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    vocab = atoms[:]
    rng.shuffle(vocab)
    facts = sorted(rng.sample(range(n), rng.choice((n // 2, n - n // 2))))
    defaults = [f"a{i} : b{i} / b{i}" for i in range(n)]
    rng.shuffle(defaults)
    lines = ["vocab: " + " ".join(vocab)] + [f"a{i}" for i in facts] + defaults
    expect = _worlds(vocab, {f"a{i}" for i in facts} | {f"b{i}" for i in facts})
    return Instance(key, ".dt", "\n".join(lines) + "\n",
                    ("solve", "--semantics", "reiter"), expect)


def check_dl_chain(inst: Instance, stdout: str) -> str | None:
    states = parse_human_results(stdout, "reiter")
    if states != [inst.expect]:
        return f"expected exactly one extension, got {len(states)} differing from the reference"
    return None


# ---------------------------------------------------------------------------
# dl_nixon: k-fold Nixon diamonds, 2^k extensions
# ---------------------------------------------------------------------------

#: Every fifth instance has four diamonds, the rest three, so the median
#: call lies inside the k = 3 mode and the 90th percentile inside k = 4.
NIXON_SMALL, NIXON_LARGE = 3, 4


def nixon_k(index: int) -> int:
    return NIXON_LARGE if index % 5 == 4 else NIXON_SMALL


def gen_dl_nixon(rng: random.Random, key: str, k: int) -> Instance:
    atoms = ["r", "q"] + [f"{p}{i}" for i in range(k) for p in ("h", "d")]
    vocab = atoms[:]
    rng.shuffle(vocab)
    lines = ["vocab: " + " ".join(vocab), "r & q"]
    for i in range(k):
        lines += [f"~(h{i} & d{i})", f"r : h{i} / h{i}", f"q : d{i} / d{i}"]
    expect = set()
    for choice in itertools.product("hd", repeat=k):
        true = {"r", "q"} | {f"{p}{i}" for i, p in enumerate(choice)}
        world = frozenset(true)
        lits = frozenset(a if a in true else "~" + a for a in vocab)
        expect.add((frozenset({world}), lits))
    return Instance(key, ".dt", "\n".join(lines) + "\n",
                    ("solve", "--semantics", "reiter", "--json"), frozenset(expect))


def check_dl_nixon(inst: Instance, stdout: str) -> str | None:
    payload = json.loads(stdout)
    got = set()
    for state, lits in zip(payload["results"], payload["objective_consequences"], strict=True):
        kind, pp, cp = _json_state(state)
        if kind != "total" or pp != cp or lits is None:
            return "a reiter extension is not a total state"
        got.add((pp, frozenset(lits)))
    if len(payload["results"]) != len(inst.expect) or got != inst.expect:
        return (f"expected {len(inst.expect)} extensions, got {len(payload['results'])} "
                "differing from the reference")
    return None


# ---------------------------------------------------------------------------
# ael_trace: random K-rule theories, well-founded semantics with trace
# ---------------------------------------------------------------------------

TRACE_ATOMS = 9
TRACE_RULES = (10, 14)


def gen_ael_trace(rng: random.Random, key: str) -> Instance:
    atoms = [f"p{i}" for i in range(TRACE_ATOMS)]
    vocab = atoms[:]
    rng.shuffle(vocab)
    lines = ["vocab: " + " ".join(vocab)]
    for _ in range(rng.randint(*TRACE_RULES)):
        a, b, c = rng.sample(atoms, 3)
        lines.append(rng.choice((
            f"K {a} -> {b}",
            f"K {a} & ~K ~{b} -> {c}",
            f"{a} | {b}",
            f"~K {a} -> {c}",
        )))
    return Instance(key, ".ael", "\n".join(lines) + "\n",
                    ("solve", "--semantics", "wf", "--json", "--trace"))


def ael_trace_reference(inst: Instance) -> dict:
    """The algebraic well-founded state, from the oracle module."""
    from nmr.operators import OperatorContext
    from nmr.oracle import OracleBudget, algebraic_wf
    from nmr.syntax import parse_theory

    ctx = OperatorContext(parse_theory(inst.text))
    return algebraic_wf(ctx, OracleBudget(TRACE_ATOMS)).to_json()


def check_ael_trace(inst: Instance, stdout: str) -> str | None:
    from nmr.cli import replay_trace_payload

    payload = json.loads(stdout)
    if len(payload["results"]) != 1:
        return "well-founded semantics must report exactly one state"
    reported = _json_state(payload["results"][0])
    if reported != _json_state(ael_trace_reference(inst)):
        return "well-founded state differs from the algebraic reference"
    finals = replay_trace_payload(payload)
    if [_json_state(s) for s in finals] != [reported]:
        return "trace replay does not reproduce the reported state"
    return None


# ---------------------------------------------------------------------------
# check_small: nmr check on random 3-atom theories
# ---------------------------------------------------------------------------

CHECK_ATOMS = ("a", "b", "c")


def _rand_formula(rng: random.Random, depth: int, allow_k: bool) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(CHECK_ATOMS) if rng.random() < 0.9 else rng.choice(("true", "false"))
    kinds = ["~", "&", "|", "->", "<->"] + (["K", "K"] if allow_k else [])
    kind = rng.choice(kinds)
    if kind in ("~", "K"):
        sub = _rand_formula(rng, depth - 1, allow_k)
        return f"~({sub})" if kind == "~" else f"K ({sub})"
    left = _rand_formula(rng, depth - 1, allow_k)
    right = _rand_formula(rng, depth - 1, allow_k)
    return f"({left}) {kind} ({right})"


#: The request kinds, cycled by instance index: .ael under kleene three
#: times in five, .ael under sv and .dt under kleene once each.  The three
#: kinds take about 3-8, 17-52 and 5-28 ms, so an even mix would put the
#: median in the sparse stretch between them, where a few more slow
#: instances in one seed's draw move it far.  This way it lies inside the
#: kleene mode and the 90th percentile inside the sv mode.
CHECK_CYCLE = ((".ael", "kleene"), (".ael", "sv"), (".ael", "kleene"),
               (".dt", "kleene"), (".ael", "kleene"))


def gen_check_small(rng: random.Random, key: str, index: int) -> Instance:
    """One request of CHECK_CYCLE's kind for this index.

    Default theories are not checked under sv: there the stable
    extensions of the translation need not be Reiter extensions, and
    ``nmr check`` then reports a disagreement (exit 4).
    """
    vocab = list(CHECK_ATOMS)
    rng.shuffle(vocab)
    lines = ["vocab: " + " ".join(vocab)]
    suffix, truth = CHECK_CYCLE[index % len(CHECK_CYCLE)]
    if suffix == ".ael":
        lines += [_rand_formula(rng, rng.randint(1, 3), True) for _ in range(rng.randint(1, 3))]
    else:
        lines += [_rand_formula(rng, 2, False) for _ in range(rng.randint(0, 1))]
        for _ in range(rng.randint(1, 3)):
            pre = _rand_formula(rng, 1, False) if rng.random() < 0.6 else ""
            justs = ", ".join(_rand_formula(rng, 1, False) for _ in range(rng.randint(0, 2)))
            lines.append(f"{pre} : {justs} / {_rand_formula(rng, 1, False)}")
    return Instance(key, suffix, "\n".join(lines) + "\n", ("check", "--truth", truth))


def check_check_small(inst: Instance, stdout: str) -> str | None:
    lines = stdout.rstrip("\n").split("\n")
    if lines[-1] != "ok" or any(line.startswith("DISAGREEMENT") for line in lines):
        return "check did not report ok"
    return None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def generate(workload: str, seed: int, stream: str, index: int) -> Instance:
    rng = instance_rng(workload, seed, stream, index)
    key = f"{workload}-{stream}-{index}"
    if workload == "dl_chain":
        return gen_dl_chain(rng, key, chain_pairs(index))
    if workload == "dl_nixon":
        return gen_dl_nixon(rng, key, nixon_k(index))
    if workload == "ael_trace":
        return gen_ael_trace(rng, key)
    if workload == "check_small":
        return gen_check_small(rng, key, index)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("dl_chain", "dl_nixon", "ael_trace", "check_small")


def verify(inst: Instance, workload: str, code: int | None, stdout: str) -> str | None:
    """None when the answer matches the reference, else why it does not.

    Call it only after the timed call: for ``ael_trace`` it computes the
    oracle reference with ``nmr`` itself.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        if workload == "dl_chain":
            return check_dl_chain(inst, stdout)
        if workload == "dl_nixon":
            return check_dl_nixon(inst, stdout)
        if workload == "ael_trace":
            return check_ael_trace(inst, stdout)
        return check_check_small(inst, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc}"
