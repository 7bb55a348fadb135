"""Command-line front end.

Three commands:

* ``nmr solve``     -- compute a semantics of an ``.ael`` or ``.dt`` file
* ``nmr translate`` -- print the modal translation of a ``.dt`` file
* ``nmr check``     -- cross-check the fast solvers against the oracles

Exit codes: 0 success (an empty result list is an answer), 1 parse or
input error (including a file that is not UTF-8), 2 resource cap
exceeded, a formula nested too deeply, memory exhausted, or a usage
error (argparse's own exit code, e.g. ``--semantics reiter`` on an
``.ael`` file), 3 internal invariant violation, 4 oracle disagreement
from ``check``.
Output is deterministic: identical inputs produce byte-identical output.
``--json`` output has the layout ``json.dumps`` gives with an indent of
2, written directly by ``solve_payload``: each printed world's atom list
is laid out once per call, from the world-name table of
``worlds.world_pieces``; ``tests/test_golden.py`` pins it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .defaults import (
    DL_ALIASES,
    dl_semantics,
    konolige,
    parse_default_theory,
    reiter_extensions,
)
from .errors import (
    InternalInvariantError,
    NmrError,
    ParseError,
    ResourceCapError,
    VocabularyMismatchError,
)
from .operators import OperatorContext
from .oracle import OracleBudget, algebraic_wf, brute_expansions, brute_stable
from .semantics import (
    KK,
    SOLVERS,
    WF,
    SemanticsResult,
    expansions,
    stable_extensions,
    well_founded_extension,
)
from .syntax import parse_theory, print_theory
from .truth import TruthFunctionKind
from .worlds import (
    DEFAULT_ATOM_CAP,
    BeliefState,
    PartialBeliefState,
    Vocabulary,
    atom_bits,
    atom_worlds_mask,
    enumerate_worlds,
    set_bits,
    world_pieces,
    world_texts,
)

_STATUS_WORDS = {"t": "certainly possible", "f": "certainly impossible"}


@dataclass
class SolveRequest:
    logic: str                 # "ael" | "dl"
    semantics: str             # kk | expansion | stable | wf | reiter | weak
    truth: TruthFunctionKind
    input_path: Path
    json_out: bool = False
    trace: bool = False
    max_atoms: int = DEFAULT_ATOM_CAP


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _infer_logic(path: Path) -> str:
    return "dl" if path.suffix == ".dt" else "ael"


def _load(path: Path, parse, max_atoms: int):
    """The theory ``parse`` reads from path, refused past the atom cap."""
    theory = parse(path.read_text(encoding="utf-8"))
    enumerate_worlds(theory.vocabulary, max_atoms)
    return theory


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _literal_consequences(b: BeliefState) -> list[str]:
    out = []
    n = len(b.vocabulary)
    for k, name in enumerate(b.vocabulary.atoms):
        m = atom_worlds_mask(k, n)
        if b.mask & ~m == 0:
            out.append(name)
        elif b.mask & m == 0:
            out.append("~" + name)
    return out


def _json_list(items: list[str], d: int) -> str:
    """A list at depth d whose items are JSON texts laid out at depth d + 1."""
    if not items:
        return "[]"
    pad = "\n" + "  " * d
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _json_dict(pairs: dict[str, str], d: int) -> str:
    """A dict at depth d whose values are JSON texts laid out at depth d + 1."""
    pad = "\n" + "  " * d
    return "{" + pad + "  " + ("," + pad + "  ").join(
        f"{json.dumps(k)}: {v}" for k, v in pairs.items()) + pad + "}"


def _strings(names, d: int) -> str:
    return _json_list([json.dumps(s) for s in names], d)


def solve_payload(vocabulary: Vocabulary, logic: str, semantics: str,
                  result: SemanticsResult, include_trace: bool) -> str:
    """The ``--json`` text, written directly: the payload the ``to_json``
    methods describe, laid out as ``json.dumps`` lays it out with an indent
    of 2."""
    masks = [m for r in result.results for m in (r.pp.mask, r.cp.mask)]
    if include_trace:
        masks += [m for t in result.traces
                  for m in (t.initial.pp.mask, t.initial.cp.mask, *(s.mask for s in t.steps))]
    union = 0
    for m in masks:
        union |= m
    # Each world's sorted atom list, laid out once as ``_json_list(atoms, 0)``
    # lays it out (inline: this runs for every printed world).
    indices = list(set_bits(union))
    pieces = [(bit, json.dumps(name)) for bit, name in atom_bits(vocabulary, by_name=True)]
    leaves = dict(zip(indices, ["[\n  " + ",\n  ".join(atoms) + "\n]"
                                for atoms in world_pieces(pieces, indices)]))
    if union & 1:
        leaves[0] = "[]"

    def worlds(mask: int, d: int) -> str:
        if not mask:
            return "[]"
        body = ",\n".join(map(leaves.__getitem__, set_bits(mask)))
        return _json_list([body.replace("\n", "\n" + "  " * (d + 1))], d)

    def state(p: PartialBeliefState, d: int) -> str:
        return _json_dict({"kind": json.dumps("total" if p.is_total else "partial"),
                           "pp": worlds(p.pp.mask, d + 1), "cp": worlds(p.cp.mask, d + 1)}, d)

    payload = {
        "vocabulary": _strings(vocabulary.atoms, 1),
        "logic": json.dumps(logic),
        "semantics": json.dumps(semantics),
        "truth": json.dumps(result.truth.value),
        "results": _json_list([state(r, 2) for r in result.results], 1),
        "objective_consequences": _json_list(
            [_strings(_literal_consequences(r.pp), 2) if r.is_total else "null"
             for r in result.results], 1),
    }
    if include_trace:
        payload["traces"] = _json_list([_json_dict({
            "initial": _json_dict({"pp": worlds(t.initial.pp.mask, 4),
                                   "cp": worlds(t.initial.cp.mask, 4)}, 3),
            "steps": _json_list([_json_dict({"kind": json.dumps(s.kind),
                                             "status": json.dumps(s.status),
                                             "worlds": worlds(s.mask, 5)}, 4)
                                 for s in t.steps], 3),
        }, 2) for t in result.traces], 1)
    return _json_dict(payload, 0)


def replay_trace_payload(payload: dict) -> list[dict]:
    """Re-apply the serialized trace steps; returns the final state of each trace.

    Used to confirm that ``--trace`` output reconstructs the reported
    results exactly.
    """
    vocab = Vocabulary(tuple(payload["vocabulary"]))
    bits = {name: bit for bit, name in atom_bits(vocab)}

    def mask_of(worlds: list[list[str]]) -> int:
        mask = 0
        try:
            for w in worlds:
                mask |= 1 << sum(map(bits.__getitem__, w))
        except KeyError as exc:
            raise VocabularyMismatchError(
                f"atom {exc.args[0]!r} is not in the vocabulary {list(vocab.atoms)}") from None
        return mask

    finals = []
    for t in payload.get("traces", []):
        pp = mask_of(t["initial"]["pp"])
        cp = mask_of(t["initial"]["cp"])
        for step in t["steps"]:
            mask = mask_of(step["worlds"])
            if step["status"] == "t":
                cp |= mask
            else:
                pp &= ~mask
        finals.append(PartialBeliefState.of_masks(vocab, pp, cp).to_json())
    return finals


def _print_human(out, semantics: str, result: SemanticsResult, trace: bool) -> None:
    if result.kind in (KK, WF):
        state = result.results[0]
        shape = "TOTAL" if state.is_total else "PARTIAL"
        print(f"{semantics}: {shape} {state}", file=out)
    else:
        n = len(result.results)
        print(f"{semantics}: {n} result{'s' if n != 1 else ''}", file=out)
        for i, state in enumerate(result.results, start=1):
            print(f"  [{i}] {state.pp}", file=out)
    if trace:
        for i, t in enumerate(result.traces, start=1):
            print(f"trace {i}: from {t.initial}", file=out)
            for step in t.steps:
                worlds = ", ".join(world_texts(t.initial.vocabulary, step.mask))
                print(f"  {step.kind}: {worlds} -> {_STATUS_WORDS[step.status]}", file=out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def run_solve(req: SolveRequest, out=None) -> int:
    out = out or sys.stdout
    if req.logic == "dl":
        dt = _load(req.input_path, parse_default_theory, req.max_atoms)
        result = dl_semantics(dt, req.semantics, req.truth)
        vocabulary = dt.vocabulary
    else:
        theory = _load(req.input_path, parse_theory, req.max_atoms)
        result = SOLVERS[req.semantics](OperatorContext(theory, req.truth))
        vocabulary = theory.vocabulary
    if req.json_out:
        print(solve_payload(vocabulary, req.logic, req.semantics, result, req.trace), file=out)
    else:
        print(f"vocabulary: {vocabulary}", file=out)
        _print_human(out, req.semantics, result, req.trace)
    return 0


def run_translate(path: Path, out=None) -> int:
    out = out or sys.stdout
    dt = parse_default_theory(path.read_text(encoding="utf-8"))
    text = print_theory(konolige(dt))
    if text:
        print(text, end="", file=out)
    return 0


def run_check(path: Path, truth: TruthFunctionKind = TruthFunctionKind.KLEENE,
              budget: OracleBudget = OracleBudget(), out=None) -> int:
    """Cross-check every fast solver against its oracle on one input file.

    For a default theory the direct Reiter procedure is compared with
    the stable extensions of the translation, and the oracle battery
    then runs on the translated theory.  One context serves every
    solver and oracle, so the theory is compiled once.
    """
    out = out or sys.stdout
    disagreements: list[str] = []
    print(f"check {path}", file=out)

    if path.suffix == ".dt":
        dt = _load(path, parse_default_theory, budget.max_atoms)
        reiter = reiter_extensions(dt)
        ctx = OperatorContext(konolige(dt), truth)
        fast_stable = stable_extensions(ctx).belief_states()
        agree = reiter == fast_stable
        print(f"aligned: {len(reiter)} {'=' if agree else '!='} {len(fast_stable)} extensions",
              file=out)
        if not agree:
            disagreements.append(
                "reiter extensions != stable extensions of the translation:\n"
                f"  direct:     {[str(b) for b in reiter]}\n"
                f"  translated: {[str(b) for b in fast_stable]}"
            )
    else:
        ctx = OperatorContext(_load(path, parse_theory, budget.max_atoms), truth)
        fast_stable = None

    fast_exp = [s.pp for s in expansions(ctx).results]
    brute_exp = brute_expansions(ctx, budget)
    agree = fast_exp == brute_exp
    print(f"expansions: fast {len(fast_exp)} {'=' if agree else '!='} brute {len(brute_exp)}",
          file=out)
    if not agree:
        disagreements.append(
            f"expansions differ:\n  fast:  {[str(b) for b in fast_exp]}\n"
            f"  brute: {[str(b) for b in brute_exp]}"
        )

    if fast_stable is None:
        fast_stable = stable_extensions(ctx).belief_states()
    brute_st = brute_stable(ctx, brute_exp)
    agree = fast_stable == brute_st
    print(f"stable: fast {len(fast_stable)} {'=' if agree else '!='} brute {len(brute_st)}",
          file=out)
    if not agree:
        disagreements.append(
            f"stable extensions differ:\n  fast:  {[str(b) for b in fast_stable]}\n"
            f"  brute: {[str(b) for b in brute_st]}"
        )

    process_wf = well_founded_extension(ctx).results[0]
    algebra_wf = algebraic_wf(ctx, budget)
    agree = process_wf == algebra_wf
    print(f"wf: process {'=' if agree else '!='} algebraic", file=out)
    if not agree:
        disagreements.append(
            f"well-founded extensions differ:\n  process:   {process_wf}\n"
            f"  algebraic: {algebra_wf}"
        )

    if disagreements:
        for d in disagreements:
            print(f"DISAGREEMENT: {d}", file=out)
        print("check failed", file=out)
        return 4
    print("ok", file=out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _atom_count(text: str) -> int:
    """The type of ``--max-atoms`` and ``--budget``: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmr",
        description="Fixpoint semantics for propositional autoepistemic and default logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a semantics of a theory file")
    solve.add_argument("--logic", choices=["ael", "dl"],
                       help="input logic; default inferred from the file suffix")
    solve.add_argument("--semantics", required=True, choices=[*SOLVERS, *DL_ALIASES])
    solve.add_argument("--truth", choices=["kleene", "sv"], default="kleene")
    solve.add_argument("--input", required=True, type=Path)
    solve.add_argument("--json", action="store_true", dest="json_out")
    solve.add_argument("--trace", action="store_true")
    solve.add_argument("--max-atoms", type=_atom_count, default=DEFAULT_ATOM_CAP)

    translate = sub.add_parser("translate", help="print the modal translation of a .dt file")
    translate.add_argument("--input", required=True, type=Path)

    check = sub.add_parser("check", help="cross-check fast solvers against the oracles")
    check.add_argument("--input", required=True, type=Path)
    check.add_argument("--truth", choices=["kleene", "sv"], default="kleene")
    check.add_argument("--budget", type=_atom_count, default=OracleBudget().max_atoms,
                       help="oracle budget in atoms")
    return parser


#: Built once per process; parsing does not change it, so every call shares it.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "solve":
            logic = args.logic or _infer_logic(args.input)
            if args.semantics in DL_ALIASES and logic != "dl":
                _PARSER.error(f"--semantics {args.semantics} requires default-logic input")
            req = SolveRequest(
                logic=logic,
                semantics=args.semantics,
                truth=TruthFunctionKind(args.truth),
                input_path=args.input,
                json_out=args.json_out,
                trace=args.trace,
                max_atoms=args.max_atoms,
            )
            return run_solve(req)
        if args.command == "translate":
            return run_translate(args.input)
        return run_check(args.input, TruthFunctionKind(args.truth),
                         OracleBudget(args.budget))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("resource cap: formula nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except NmrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:  # pragma: no cover
    sys.exit(main())
