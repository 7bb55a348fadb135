"""Command-line front end.

Three commands:

* ``nmr solve``     -- compute a semantics of an ``.ael`` or ``.dt`` file
* ``nmr translate`` -- print the modal translation of a ``.dt`` file
* ``nmr check``     -- cross-check the fast solvers against the oracles

Exit codes: 0 success (an empty result list is an answer), 1 parse or
input error (including a file that is not UTF-8), 2 resource cap
exceeded, a formula nested too deeply, or a usage error (argparse's
own exit code, e.g. ``--semantics reiter`` on an ``.ael`` file),
3 internal invariant violation, 4 oracle disagreement from ``check``.
Output is deterministic: identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .defaults import (
    DL_ALIASES,
    DefaultTheory,
    align_check,
    dl_semantics,
    konolige,
    parse_default_theory,
)
from .errors import InternalInvariantError, NmrError, ParseError, ResourceCapError
from .operators import OperatorContext
from .oracle import OracleBudget, algebraic_wf, brute_expansions, brute_stable
from .semantics import (
    KK,
    SOLVERS,
    WF,
    DerivationTrace,
    SemanticsResult,
    expansions,
    stable_extensions,
    well_founded_extension,
)
from .syntax import Theory, parse_theory, print_theory
from .truth import TruthFunctionKind
from .worlds import (
    DEFAULT_ATOM_CAP,
    BeliefState,
    PartialBeliefState,
    Vocabulary,
    atom_worlds_mask,
    enumerate_worlds,
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


def _load_ael(path: Path, max_atoms: int) -> Theory:
    theory = parse_theory(path.read_text(encoding="utf-8"))
    enumerate_worlds(theory.vocabulary, max_atoms)
    return theory


def _load_dt(path: Path, max_atoms: int) -> DefaultTheory:
    dt = parse_default_theory(path.read_text(encoding="utf-8"))
    enumerate_worlds(dt.vocabulary, max_atoms)
    return dt


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


def _trace_json(trace: DerivationTrace) -> dict:
    vocab = trace.initial.vocabulary
    return {
        "initial": {"pp": trace.initial.pp.to_json(), "cp": trace.initial.cp.to_json()},
        "steps": [
            {
                "kind": step.kind,
                "status": step.status,
                "worlds": BeliefState(vocab, step.mask).to_json(),
            }
            for step in trace.steps
        ],
    }


def solve_payload(vocabulary: Vocabulary, logic: str, semantics: str,
                  result: SemanticsResult, include_trace: bool) -> dict:
    payload = {
        "vocabulary": list(vocabulary.atoms),
        "logic": logic,
        "semantics": semantics,
        "truth": result.truth.value,
        "results": [r.to_json() for r in result.results],
        "objective_consequences": [
            _literal_consequences(r.pp) if r.is_total else None for r in result.results
        ],
    }
    if include_trace:
        payload["traces"] = [_trace_json(t) for t in result.traces]
    return payload


def replay_trace_payload(payload: dict) -> list[dict]:
    """Re-apply the serialized trace steps; returns the final state of each trace.

    Used to confirm that ``--trace`` output reconstructs the reported
    results exactly.
    """
    vocab = Vocabulary(tuple(payload["vocabulary"]))

    def world_index(atoms: list[str]) -> int:
        return sum(1 << vocab.index(a) for a in atoms)

    finals = []
    for t in payload.get("traces", []):
        pp = sum(1 << world_index(w) for w in t["initial"]["pp"])
        cp = sum(1 << world_index(w) for w in t["initial"]["cp"])
        for step in t["steps"]:
            mask = sum(1 << world_index(w) for w in step["worlds"])
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
                worlds = ", ".join(map(str, BeliefState(t.initial.vocabulary, step.mask).worlds()))
                print(f"  {step.kind}: {worlds} -> {_STATUS_WORDS[step.status]}", file=out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def run_solve(req: SolveRequest, out=None) -> int:
    out = out or sys.stdout
    if req.logic == "dl":
        dt = _load_dt(req.input_path, req.max_atoms)
        result = dl_semantics(dt, req.semantics, req.truth)
        vocabulary = dt.vocabulary
    else:
        theory = _load_ael(req.input_path, req.max_atoms)
        result = SOLVERS[req.semantics](OperatorContext(theory, req.truth))
        vocabulary = theory.vocabulary
    if req.json_out:
        payload = solve_payload(vocabulary, req.logic, req.semantics, result, req.trace)
        print(json.dumps(payload, indent=2), file=out)
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
    then runs on the translated theory.
    """
    out = out or sys.stdout
    disagreements: list[str] = []
    print(f"check {path}", file=out)

    if path.suffix == ".dt":
        dt = _load_dt(path, budget.max_atoms)
        report = align_check(dt, truth)
        print(f"aligned: {len(report.reiter)} = {len(report.stable)} extensions", file=out)
        if not report.aligned:
            disagreements.append(
                "reiter extensions != stable extensions of the translation:\n"
                f"  direct:     {[str(b) for b in report.reiter]}\n"
                f"  translated: {[str(b) for b in report.stable]}"
            )
        theory = konolige(dt)
    else:
        theory = _load_ael(path, budget.max_atoms)

    ctx = OperatorContext(theory, truth)
    fast_exp = [s.pp for s in expansions(ctx).results]
    brute_exp = brute_expansions(ctx, budget)
    print(f"expansions: fast {len(fast_exp)} = brute {len(brute_exp)}", file=out)
    if fast_exp != brute_exp:
        disagreements.append(
            f"expansions differ:\n  fast:  {[str(b) for b in fast_exp]}\n"
            f"  brute: {[str(b) for b in brute_exp]}"
        )

    fast_stable = [s.pp for s in stable_extensions(ctx).results]
    brute_st = brute_stable(ctx, budget)
    print(f"stable: fast {len(fast_stable)} = brute {len(brute_st)}", file=out)
    if fast_stable != brute_st:
        disagreements.append(
            f"stable extensions differ:\n  fast:  {[str(b) for b in fast_stable]}\n"
            f"  brute: {[str(b) for b in brute_st]}"
        )

    if truth is TruthFunctionKind.KLEENE:
        process_wf = well_founded_extension(ctx).results[0]
        algebra_wf = algebraic_wf(ctx, budget)
        agree = process_wf == algebra_wf
        print(f"wf: process {'=' if agree else '!='} algebraic", file=out)
        if not agree:
            disagreements.append(
                f"well-founded extensions differ:\n  process:   {process_wf}\n"
                f"  algebraic: {algebra_wf}"
            )
    else:
        print("wf: algebraic cross-check is three-valued only, skipped", file=out)

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
    solve.add_argument("--max-atoms", type=int, default=DEFAULT_ATOM_CAP)

    translate = sub.add_parser("translate", help="print the modal translation of a .dt file")
    translate.add_argument("--input", required=True, type=Path)

    check = sub.add_parser("check", help="cross-check fast solvers against the oracles")
    check.add_argument("--input", required=True, type=Path)
    check.add_argument("--truth", choices=["kleene", "sv"], default="kleene")
    check.add_argument("--budget", type=int, default=OracleBudget().max_atoms,
                       help="oracle budget in atoms")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            logic = args.logic or _infer_logic(args.input)
            if args.semantics in DL_ALIASES and logic != "dl":
                parser.error(f"--semantics {args.semantics} requires default-logic input")
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
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except NmrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:  # pragma: no cover
    sys.exit(main())
