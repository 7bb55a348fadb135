import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nmr.cli
import nmr.operators
import nmr.semantics
import nmr.truth
from nmr.cli import (
    SolveRequest,
    main,
    replay_trace_payload,
    run_check,
    run_solve,
    solve_payload,
)
from nmr.defaults import dl_semantics, konolige, parse_default_theory
from nmr.errors import VocabularyMismatchError
from nmr.operators import OperatorContext
from nmr.semantics import KK, SOLVERS, WF
from nmr.syntax import objective, parse_theory
from nmr.truth import TruthFunctionKind
from nmr.worlds import PartialBeliefState

from helpers import rand_default_theory, rand_theory


def solve(*argv):
    return main(["solve", *argv])


def _schema_check(payload: dict) -> None:
    """Hand-rolled validation of the solve JSON schema."""
    assert set(payload) >= {"vocabulary", "logic", "semantics", "truth",
                            "results", "objective_consequences"}
    assert isinstance(payload["vocabulary"], list)
    assert all(isinstance(a, str) for a in payload["vocabulary"])
    assert payload["logic"] in ("ael", "dl")
    assert payload["truth"] in ("kleene", "sv")
    assert isinstance(payload["results"], list)
    for r in payload["results"]:
        assert r["kind"] in ("total", "partial")
        for key in ("pp", "cp"):
            worlds = r[key]
            assert all(w == sorted(w) for w in worlds)  # atoms alphabetical
        assert (r["kind"] == "total") == (r["pp"] == r["cp"])
    cons = payload["objective_consequences"]
    assert len(cons) == len(payload["results"])
    for r, c in zip(payload["results"], cons):
        if r["kind"] == "total":
            assert isinstance(c, list) and all(isinstance(s, str) for s in c)
        else:
            assert c is None


def test_solve_wf_human_output(corpus, capsys):
    assert solve("--semantics", "wf", "--input", str(corpus / "truthsayer.ael")) == 0
    assert capsys.readouterr().out == "vocabulary: P\nwf: TOTAL {∅, {P}}\n"


def test_solve_stable_sv_tautology(corpus, capsys):
    rc = solve("--semantics", "stable", "--truth", "sv",
               "--input", str(corpus / "tautology_antecedent.ael"))
    assert rc == 0
    assert capsys.readouterr().out == "vocabulary: P\nstable: 1 result\n  [1] {{P}}\n"


def test_solve_reiter_nixon_json(corpus, capsys):
    rc = solve("--logic", "dl", "--semantics", "reiter",
               "--input", str(corpus / "nixon.dt"), "--json")
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    _schema_check(payload)
    assert payload["vocabulary"] == ["R", "Q", "H", "D"]
    assert [r["pp"] for r in payload["results"]] == [[["H", "Q", "R"]], [["D", "Q", "R"]]]
    assert payload["objective_consequences"] == [["R", "Q", "H", "~D"], ["R", "Q", "~H", "D"]]


def test_solve_json_empty_state_entails_every_literal(tmp_path, capsys):
    path = tmp_path / "contradiction.ael"
    path.write_text("vocab: P Q\nP\n~P\n")
    assert solve("--semantics", "kk", "--input", str(path), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["pp"] for r in payload["results"]] == [[]]
    assert payload["objective_consequences"] == [["P", "Q"]]


def test_solve_empty_result_list_is_success(corpus, capsys):
    rc = solve("--semantics", "expansion", "--input", str(corpus / "liar.ael"))
    assert rc == 0
    assert "0 results" in capsys.readouterr().out


def test_solve_output_is_deterministic(corpus, capsys):
    args = ("--semantics", "wf", "--input", str(corpus / "mutual_defaults.ael"), "--json", "--trace")
    assert solve(*args) == 0
    first = capsys.readouterr().out
    assert solve(*args) == 0
    assert capsys.readouterr().out == first


def test_solve_json_schema_on_all_fixtures(corpus, capsys):
    for path in sorted(corpus.glob("*.ael")):
        for semantics in ("kk", "expansion", "stable", "wf"):
            assert solve("--semantics", semantics, "--input", str(path), "--json") == 0
            _schema_check(json.loads(capsys.readouterr().out))
    for path in sorted(corpus.glob("*.dt")):
        for semantics in ("kk", "weak", "reiter", "wf"):
            assert solve("--semantics", semantics, "--input", str(path), "--json") == 0
            _schema_check(json.loads(capsys.readouterr().out))


def test_trace_replay_reconstructs_results(corpus, capsys):
    for path, semantics in [
        (corpus / "iff_knowledge.ael", "wf"),
        (corpus / "self_support.ael", "kk"),
        (corpus / "mutual_defaults.ael", "stable"),
        (corpus / "nixon.dt", "reiter"),
    ]:
        assert solve("--semantics", semantics, "--input", str(path), "--json", "--trace") == 0
        payload = json.loads(capsys.readouterr().out)
        finals = replay_trace_payload(payload)
        if semantics in ("kk", "wf"):
            assert finals == payload["results"]
        else:
            assert [f["pp"] for f in finals] == [r["pp"] for r in payload["results"]]


def test_large_trace_replay_reconstructs_results(tmp_path, capsys):
    # 2^12 worlds, settled by two trace steps of 2048 worlds each.
    path = tmp_path / "wide.ael"
    path.write_text("vocab: " + " ".join(f"A{k}" for k in range(12)) + "\nK A0 -> A1\n")
    assert solve("--semantics", "wf", "--input", str(path), "--json", "--trace") == 0
    payload = json.loads(capsys.readouterr().out)
    assert replay_trace_payload(payload) == payload["results"]


def test_trace_replay_refuses_an_atom_outside_the_vocabulary(corpus, capsys):
    assert solve("--semantics", "wf", "--input", str(corpus / "iff_knowledge.ael"),
                 "--json", "--trace") == 0
    payload = json.loads(capsys.readouterr().out)
    payload["traces"][0]["initial"]["pp"].append(["nowhere"])
    with pytest.raises(VocabularyMismatchError, match="'nowhere'"):
        replay_trace_payload(payload)


def _reference_worlds(vocabulary, mask) -> list[list[str]]:
    """Each world of mask, ascending, as its sorted true atoms: a per-world
    filter of its own, so the writer's shared name table is not on both
    sides of the comparison."""
    return [sorted(a for k, a in enumerate(vocabulary.atoms) if i >> k & 1)
            for i in range(vocabulary.world_count) if mask >> i & 1]


def _reference_payload(vocabulary, logic, semantics, result, include_trace) -> dict:
    """The ``--json`` payload as a dict, built from the result objects."""
    def consequences(worlds):
        out = []
        for a in vocabulary.atoms:
            if all(a in w for w in worlds):
                out.append(a)
            elif not any(a in w for w in worlds):
                out.append("~" + a)
        return out

    def state(p):
        return {"kind": "total" if p.is_total else "partial",
                "pp": _reference_worlds(vocabulary, p.pp.mask),
                "cp": _reference_worlds(vocabulary, p.cp.mask)}

    payload = {
        "vocabulary": list(vocabulary.atoms),
        "logic": logic,
        "semantics": semantics,
        "truth": result.truth.value,
        "results": [state(r) for r in result.results],
        "objective_consequences": [
            consequences(_reference_worlds(vocabulary, r.pp.mask)) if r.is_total else None
            for r in result.results],
    }
    if include_trace:
        payload["traces"] = [{
            "initial": {"pp": _reference_worlds(vocabulary, t.initial.pp.mask),
                        "cp": _reference_worlds(vocabulary, t.initial.cp.mask)},
            "steps": [{"kind": s.kind, "status": s.status,
                       "worlds": _reference_worlds(vocabulary, s.mask)} for s in t.steps],
        } for t in result.traces]
    return payload


def _assert_writer_matches_reference(vocabulary, logic, semantics, result):
    for include_trace in (False, True):
        text = solve_payload(vocabulary, logic, semantics, result, include_trace)
        reference = _reference_payload(vocabulary, logic, semantics, result, include_trace)
        expected = json.dumps(reference, indent=2)
        if text != expected:  # outputs run to megabytes: name the first differing line only
            lines = zip(text.splitlines(), expected.splitlines())
            k, got, want = next(((k, a, b) for k, (a, b) in enumerate(lines, 1) if a != b),
                                (None, len(text), len(expected)))
            pytest.fail(f"{semantics}, trace={include_trace}: line {k}: {got!r} != {want!r}")
        if include_trace and result.traces:
            finals = replay_trace_payload(json.loads(text))
            if result.kind in (KK, WF):
                assert finals == reference["results"]
            else:
                assert [f["pp"] for f in finals] == [r["pp"] for r in reference["results"]]


_NAMES = ("b", "a", "B", "_c", "Z", "q10", "q2", "é")


def test_json_writer_matches_indented_dumps_on_random_theories():
    rng = random.Random(6)
    for _ in range(40):
        for truth in TruthFunctionKind:
            n = rng.randint(1, 3 if truth is TruthFunctionKind.SUPERVALUATION else 8)
            atoms = rng.sample(_NAMES, n)
            theory = rand_theory(rng, atoms)
            for semantics in SOLVERS:
                result = SOLVERS[semantics](OperatorContext(theory, truth))
                _assert_writer_matches_reference(theory.vocabulary, "ael", semantics, result)
            dt = rand_default_theory(rng, atoms[:4])
            for semantics in ("reiter", "weak"):
                result = dl_semantics(dt, semantics, truth)
                _assert_writer_matches_reference(dt.vocabulary, "dl", semantics, result)


@pytest.mark.parametrize("text, semantics, shape", [
    ("vocab: b a B _c Z\nK a -> b\n~K B -> _c\nZ | a\n", "stable", "reordered"),
    ("", "wf", "empty vocabulary"),
    ("vocab: P\n~K P -> P\n", "expansion", "zero results"),
    ("vocab: P\nK P -> P\n~K P -> P\n", "kk", "partial result"),
    ("vocab: " + " ".join(f"A{k}" for k in range(12)) + "\nK A0 -> A1\n", "wf", "12 atoms"),
])
def test_json_writer_matches_indented_dumps_on_edge_cases(text, semantics, shape):
    theory = parse_theory(text)
    result = SOLVERS[semantics](OperatorContext(theory, TruthFunctionKind.KLEENE))
    if shape == "zero results":
        assert result.results == ()
    if shape == "partial result":
        assert not result.results[0].is_total
    _assert_writer_matches_reference(theory.vocabulary, "ael", semantics, result)


def test_trace_human_output(corpus, capsys):
    assert solve("--semantics", "wf", "--input", str(corpus / "truthsayer.ael"), "--trace") == 0
    out = capsys.readouterr().out
    assert "trace 1" in out
    assert "kk: {P} -> certainly possible" in out
    assert "mi: ∅ -> certainly possible" in out


def test_translate_nixon(corpus, capsys):
    assert main(["translate", "--input", str(corpus / "nixon.dt")]) == 0
    out = capsys.readouterr().out
    assert out == ("vocab: R Q H D\nR & Q\n~(H & D)\n"
                   "K R & ~K ~H -> H\nK Q & ~K ~D -> D\n")
    # the translation re-parses to a structurally equal theory
    assert parse_theory(out) == konolige(parse_default_theory((corpus / "nixon.dt").read_text()))


def test_translate_output_reparses_to_the_translation(corpus, capsys):
    for path in sorted(corpus.glob("*.dt")):
        assert main(["translate", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert parse_theory(out) == konolige(parse_default_theory(path.read_text())), path.name


def test_dt_vocab_header_rejects_reserved_names(tmp_path, capsys):
    bad = tmp_path / "reserved.dt"
    bad.write_text("vocab: K P\nP\n")
    assert solve("--semantics", "reiter", "--input", str(bad)) == 1
    assert "bad atom name 'K'" in capsys.readouterr().err
    assert main(["translate", "--input", str(bad)]) == 1


def test_translate_empty_theory_prints_nothing(corpus, capsys):
    assert main(["translate", "--input", str(corpus / "empty.dt")]) == 0
    assert capsys.readouterr().out == ""


def test_translate_convention(corpus, capsys):
    assert main(["translate", "--input", str(corpus / "convention.dt")]) == 0
    assert capsys.readouterr().out == "vocab: NatUSA\n~K ~NatUSA -> NatUSA\n"


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ael"
    bad.write_text("P &\n")
    assert solve("--semantics", "kk", "--input", str(bad)) == 1
    assert "parse error" in capsys.readouterr().err


def test_exit_code_missing_file(tmp_path, capsys):
    assert solve("--semantics", "kk", "--input", str(tmp_path / "nope.ael")) == 1


@pytest.mark.parametrize("command, suffix", [
    (["solve", "--semantics", "kk"], ".ael"),
    (["translate"], ".dt"),
    (["check"], ".ael"),
])
def test_exit_code_input_not_utf8(tmp_path, capsys, command, suffix):
    bad = tmp_path / f"bad{suffix}"
    bad.write_bytes(b"vocab: P\n\xff\n")
    assert main([*command, "--input", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("input error: ")


_JUSTIFIED_1200 = ": " + ", ".join(["P"] * 1200) + " / P"


@pytest.mark.parametrize("command, suffix, formula", [
    pytest.param(["solve", "--semantics", "kk"], ".ael", "~" * 3000 + "P", id="not"),
    pytest.param(["solve", "--semantics", "kk"], ".ael", "~(" * 3000 + "P" + ")" * 3000,
                 id="not-parens"),
    pytest.param(["solve", "--semantics", "kk"], ".ael", "K " * 3000 + "P", id="knows"),
    pytest.param(["solve", "--semantics", "kk"], ".ael", " & ".join(["P"] * 3000), id="and"),
    pytest.param(["solve", "--semantics", "kk"], ".ael", " -> ".join(["P"] * 3000), id="implies"),
    pytest.param(["solve", "--semantics", "reiter"], ".dt", _JUSTIFIED_1200, id="dt-solve"),
    pytest.param(["translate"], ".dt", _JUSTIFIED_1200, id="dt-translate"),
])
def test_exit_code_formula_nested_too_deeply(tmp_path, capsys, command, suffix, formula):
    deep = tmp_path / f"deep{suffix}"
    deep.write_text(f"vocab: P\n{formula}\n")
    assert main([*command, "--input", str(deep)]) == 2
    assert capsys.readouterr().err == "resource cap: formula nested too deeply\n"


def test_redundant_parentheses_do_not_nest(tmp_path, capsys):
    # The parser keeps open parentheses on a stack, so they cost no recursion.
    deep = tmp_path / "deep.ael"
    deep.write_text("vocab: P\n" + "(" * 3000 + "P" + ")" * 3000 + "\n")
    assert solve("--semantics", "kk", "--input", str(deep)) == 0
    assert capsys.readouterr().out == "vocabulary: P\nkk: TOTAL {{P}}\n"
    plain = tmp_path / "plain.ael"
    plain.write_text("vocab: P\nK P\n")
    deep.write_text("vocab: P\n" + "(" * 400 + "K P" + ")" * 400 + "\n")
    assert solve("--semantics", "wf", "--input", str(plain)) == 0
    want = capsys.readouterr().out
    assert solve("--semantics", "wf", "--input", str(deep)) == 0
    assert capsys.readouterr().out == want


def test_long_flat_conjunction_still_solves(tmp_path, capsys):
    wide = tmp_path / "wide.ael"
    wide.write_text("vocab: P\n" + " & ".join(["P"] * 400) + "\n")
    assert solve("--semantics", "kk", "--input", str(wide)) == 0
    assert capsys.readouterr().out == "vocabulary: P\nkk: TOTAL {{P}}\n"


def test_long_flat_conjunction_solves_again_in_the_same_process(tmp_path, capsys):
    # Nothing keyed on the theory outlives a call, so a repeat compares no deep ASTs.
    wide = tmp_path / "wide.ael"
    wide.write_text("vocab: P\n" + " & ".join(["P"] * 400) + "\n")
    for semantics in ("kk", "kk", "wf"):
        assert solve("--semantics", semantics, "--input", str(wide)) == 0
    assert capsys.readouterr().out == (
        "vocabulary: P\nkk: TOTAL {{P}}\n" * 2 + "vocabulary: P\nwf: TOTAL {{P}}\n")


def test_exit_code_resource_cap(corpus, capsys):
    rc = solve("--semantics", "kk", "--input", str(corpus / "iff_knowledge.ael"),
               "--max-atoms", "1")
    assert rc == 2
    assert "resource cap" in capsys.readouterr().err


def test_sv_with_a_nested_k_past_the_cap_of_unknown_worlds_answers(tmp_path, capsys):
    # The Kripke-Kleene search starts at 32 unknown worlds, past the cap
    # 20, but the theory has two guess bits: the slot K (K a -> b) and the
    # K a nested in it.  The answer is the models of c, as under kleene.
    path = tmp_path / "nested.ael"
    path.write_text("vocab: a b c d e\nK (K a -> b) -> c\n", encoding="utf-8")
    models_of_c = "{" + ", ".join(
        "{" + ",".join(name for i, name in enumerate("abcde") if w >> i & 1) + "}"
        for w in range(32) if w >> 2 & 1) + "}"
    expect = {"kk": f"kk: TOTAL {models_of_c}\n", "wf": f"wf: TOTAL {models_of_c}\n",
              "stable": f"stable: 1 result\n  [1] {models_of_c}\n"}
    for semantics, result in expect.items():
        for truth in ("kleene", "sv"):
            assert solve("--semantics", semantics, "--truth", truth, "--input", str(path)) == 0
            assert capsys.readouterr().out == "vocabulary: a b c d e\n" + result


@pytest.mark.parametrize("argv,flag,value", [
    (["solve", "--semantics", "kk", "--max-atoms", "-1"], "--max-atoms", -1),
    (["check", "--budget", "-3"], "--budget", -3),
], ids=["max-atoms", "budget"])
def test_a_negative_atom_cap_is_a_usage_error(corpus, capsys, argv, flag, value):
    code, out, err = _in_process([*argv, "--input", str(corpus / "nixon.dt")], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: nmr ")
    assert err.endswith(f"error: argument {flag}: must be at least 0, got {value}\n")


def _limit_address_space_to_1_gib():
    # A 2^n-bit allocation then fails in the child instead of taking the
    # host's memory.
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("atoms", [40, 64])
@pytest.mark.parametrize("suffix,body", [(".ael", "A0\nK A1 -> A2\n"),
                                         (".dt", "A0\nA0 : A1 / A1\n")], ids=["ael", "dt"])
def test_vocabulary_past_the_cap_is_refused_before_any_mask_is_built(tmp_path, atoms,
                                                                     suffix, body):
    header = "vocab: " + " ".join(f"A{i}" for i in range(atoms)) + "\n"
    path = tmp_path / f"wide{suffix}"
    path.write_text(header + body, encoding="utf-8")
    for command, cap in ((["solve", "--semantics", "kk"], 20), (["check"], 4)):
        code, _, err = _fresh_process([*command, "--input", str(path)],
                                      preexec_fn=_limit_address_space_to_1_gib)
        assert code == 2, err
        assert err == (f"resource cap: vocabulary has {atoms} atoms; cap is {cap} "
                       f"(2^{atoms} worlds would be materialized)\n")
    if suffix == ".dt":
        code, out, err = _fresh_process(["translate", "--input", str(path)],
                                        preexec_fn=_limit_address_space_to_1_gib)
        assert (code, err) == (0, "")
        assert out.startswith(header)


@pytest.mark.parametrize("suffix,body", [(".ael", "A0\nK A1 -> A2\n"),
                                         (".dt", "A0\nA0 : A1 / A1\n")], ids=["ael", "dt"])
def test_masks_past_the_memory_limit_are_a_resource_cap(tmp_path, suffix, body):
    # --max-atoms 64 admits 40 atoms; the 2^40-bit full mask does not fit.
    path = tmp_path / f"wide{suffix}"
    path.write_text("vocab: " + " ".join(f"A{i}" for i in range(40)) + "\n" + body,
                    encoding="utf-8")
    code, out, err = _fresh_process(
        ["solve", "--max-atoms", "64", "--semantics", "kk", "--input", str(path)],
        preexec_fn=_limit_address_space_to_1_gib)
    assert (code, out, err) == (2, "", "resource cap: out of memory\n")


@pytest.mark.parametrize("suffix,body", [(".ael", "K a -> b\n"), (".dt", "a\na : b / b\n")],
                         ids=["ael", "dt"])
def test_check_refuses_world_set_enumeration_past_four_atoms(tmp_path, suffix, body):
    # 2^32 world sets: a budget of 5 atoms must not start enumerating them.
    path = tmp_path / f"five{suffix}"
    path.write_text("vocab: a b c d e\n" + body, encoding="utf-8")
    code, _, err = _fresh_process(["check", "--budget", "5", "--input", str(path)],
                                  timeout=10)
    assert (code, err) == (2, "resource cap: world-set enumeration stops at 4 atoms, "
                              "theory has 5 (2^32 world sets)\n")


CHAIN_6 = ("vocab: " + " ".join(f"a{i} b{i}" for i in range(1, 7)) + "\na1\na3\na5\n"
           + "".join(f"a{i} : b{i} / b{i}\n" for i in range(1, 7)))


@pytest.mark.parametrize("semantics", [KK, WF])
@pytest.mark.parametrize("name,text,sharper", [
    ("five.ael", "vocab: a b c d e\nK a -> b\n", False),
    ("split.ael", "vocab: a b c d e\nK a | ~K a -> a\n", True),
    ("chain.dt", CHAIN_6, False),
], ids=["five.ael", "split.ael", "chain.dt"])
def test_sv_answers_above_four_atoms(tmp_path, capsys, semantics, name, text, sharper):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    states = {}
    for truth in ("kleene", "sv"):
        assert solve("--semantics", semantics, "--truth", truth, "--json",
                     "--input", str(path)) == 0
        (state,) = json.loads(capsys.readouterr().out)["results"]
        states[truth] = [{tuple(w) for w in state[key]} for key in ("pp", "cp")]
    (kleene_pp, kleene_cp), (sv_pp, sv_cp) = states["kleene"], states["sv"]
    assert sv_pp <= kleene_pp and kleene_cp <= sv_cp
    assert (states["sv"] != states["kleene"]) is sharper


def test_reiter_requires_default_logic_input(corpus):
    with pytest.raises(SystemExit):
        solve("--semantics", "reiter", "--input", str(corpus / "truthsayer.ael"))


def test_check_passes_on_fixtures(corpus):
    for name in ("truthsayer.ael", "liar.ael", "mutual_defaults.ael", "nixon.dt", "empty.dt"):
        buf = io.StringIO()
        assert run_check(corpus / name, out=buf) == 0, name
        assert buf.getvalue().endswith("ok\n")


def test_check_reports_alignment_counts(corpus):
    buf = io.StringIO()
    assert run_check(corpus / "nixon.dt", out=buf) == 0
    assert "aligned: 2 = 2 extensions" in buf.getvalue()


def test_check_sv_runs_algebraic_comparison(corpus):
    buf = io.StringIO()
    assert run_check(corpus / "truthsayer.ael", truth=TruthFunctionKind.SUPERVALUATION,
                     out=buf) == 0
    assert "wf: process = algebraic\n" in buf.getvalue()


def test_check_sv_catches_a_skipped_maximize_ignorance_step(corpus, monkeypatch, capsys):
    # Mutant: under sv the well-founded process stops at the Kripke-Kleene
    # state, which on the truth sayer leaves the world without P unknown.
    real = nmr.semantics.greatest_unfounded_set
    monkeypatch.setattr(nmr.semantics, "greatest_unfounded_set", lambda ctx, pb: (
        0 if ctx.truth is TruthFunctionKind.SUPERVALUATION else real(ctx, pb)))
    path = str(corpus / "truthsayer.ael")
    assert main(["check", "--input", path]) == 0
    assert main(["check", "--truth", "sv", "--input", path]) == 4
    assert "wf: process != algebraic" in capsys.readouterr().out


def test_exit_code_internal_invariant_violation(corpus, monkeypatch, capsys):
    from nmr.errors import InternalInvariantError

    def boom(ctx):
        raise InternalInvariantError("injected")

    monkeypatch.setitem(nmr.semantics.SOLVERS, "kk", boom)
    assert solve("--semantics", "kk", "--input", str(corpus / "truthsayer.ael")) == 3
    assert "internal error" in capsys.readouterr().err


def test_check_detects_injected_evaluation_bug(corpus, monkeypatch):
    # Corrupt the fast route only: flip one world in every reduct value
    # that the expansion solver's K-guess search reads; the brute-force
    # oracle evaluates the whole theory and is untouched.
    real = nmr.operators.theory_closures

    def flipped(part):
        def ev(x, y):
            t_mask, f_mask = part(x, y)
            return t_mask ^ 1, f_mask
        return ev

    def broken(theory):
        *closures, formula_reads = real(theory)
        return (*closures, [(reads, flipped(part)) for reads, part in formula_reads])

    monkeypatch.setattr(nmr.operators, "theory_closures", broken)
    buf = io.StringIO()
    assert run_check(corpus / "truthsayer.ael", out=buf) == 4
    out = buf.getvalue()
    assert "DISAGREEMENT" in out and "check failed" in out


def test_check_detects_an_injected_search_bound_bug(corpus, monkeypatch):
    # Corrupt the K-guess search only: a Kripke-Kleene bound that claims
    # every world is certainly possible leaves one leaf, the full state;
    # the brute-force oracle still finds both expansions of the truth sayer.
    def too_tight(ctx):
        full = ctx.vocabulary.full_mask
        return PartialBeliefState.of_masks(ctx.vocabulary, full, full)

    monkeypatch.setattr(nmr.semantics, "kk_lfp", too_tight)
    buf = io.StringIO()
    assert run_check(corpus / "truthsayer.ael", out=buf) == 4
    out = buf.getvalue()
    assert "expansions: fast 1 != brute 2" in out and "DISAGREEMENT" in out


def test_check_detects_a_dropped_stable_extension(corpus, monkeypatch):
    # Corrupt the fast stable route only: it loses its first extension,
    # and the brute-force oracle still finds both of the mutual defaults.
    real = nmr.cli.stable_extensions
    monkeypatch.setattr(nmr.cli, "stable_extensions", lambda ctx: dataclasses.replace(
        real(ctx), results=real(ctx).results[1:]))
    buf = io.StringIO()
    assert run_check(corpus / "mutual_defaults.ael", out=buf) == 4
    assert "stable: fast 1 != brute 2" in buf.getvalue().splitlines()


def test_check_detects_a_stable_revision_that_keeps_every_expansion(corpus, monkeypatch):
    # Corrupt the fast stable route only: every expansion passes its
    # revision.  The truth sayer has two expansions and one stable
    # extension, and the brute-force oracle revises on its own.
    monkeypatch.setattr(nmr.semantics, "stable_revision", lambda ctx, b, log=None: b)
    buf = io.StringIO()
    assert run_check(corpus / "truthsayer.ael", out=buf) == 4
    assert "stable: fast 2 != brute 1" in buf.getvalue().splitlines()


def test_check_marks_exactly_the_lines_whose_lists_differ(tmp_path):
    # Under sv the translation of this default theory has one stable
    # extension and Reiter none, so only the aligned line reads "!=";
    # under kleene both lists are empty.
    path = tmp_path / "sv.dt"
    path.write_text("vocab: a c b\n"
                    " : ~(b), (b) | (b) / (c) <-> (b)\n"
                    "b : (c) <-> (c) / (c) & (b)\n"
                    " :  / c\n", encoding="utf-8")
    buf = io.StringIO()
    assert run_check(path, truth=TruthFunctionKind.SUPERVALUATION, out=buf) == 4
    assert buf.getvalue().splitlines()[1:4] == [
        "aligned: 0 != 1 extensions", "expansions: fast 1 = brute 1", "stable: fast 1 = brute 1"]
    buf = io.StringIO()
    assert run_check(path, out=buf) == 0
    assert buf.getvalue().splitlines()[1] == "aligned: 0 = 0 extensions"


def test_run_solve_accepts_stream(corpus):
    buf = io.StringIO()
    req = SolveRequest(logic="ael", semantics="kk", truth=TruthFunctionKind.KLEENE,
                       input_path=corpus / "truthsayer.ael")
    assert run_solve(req, out=buf) == 0
    assert buf.getvalue() == "vocabulary: P\nkk: PARTIAL ({∅, {P}}, {{P}})\n"


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_process(argv, **run_args):
    src = str(Path(nmr.cli.__file__).resolve().parents[1])
    env = {**os.environ, "COLUMNS": "80", "PYTHONIOENCODING": "utf-8",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "nmr", *argv], capture_output=True,
                          encoding="utf-8", env=env, check=False, **run_args)
    return proc.returncode, proc.stdout, proc.stderr


def test_one_process_reuses_the_parser_like_fresh_processes(corpus, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["solve", "--semantics", "bogus", "--input", str(corpus / "liar.ael")],
        ["solve", "--semantics", "reiter", "--input", str(corpus / "truthsayer.ael")],
        ["--help"],
        ["solve", "--help"],
        ["solve", "--semantics", "reiter", "--json", "--input", str(corpus / "nixon.dt")],
        ["check", "--input", str(corpus / "nixon.dt")],
    ]
    in_process = [_in_process(argv, capsys) for argv in calls]
    assert [code for code, _, _ in in_process] == [2, 2, 0, 0, 0, 0]
    assert in_process == [_fresh_process(argv) for argv in calls]


COMPILE_COUNT_INPUTS = {
    ".ael": "vocab: P Q R\nK P -> P\n~K Q -> R\nK (K P | Q) | ~K ~R\n",
    ".dt": "vocab: A B C\nA\nA : B / B\nB : C / C\n: ~C / ~B\n",
}
COMPILE_COUNT_CALLS = [
    pytest.param(suffix, argv, id=" ".join([*argv, suffix]))
    for suffix, argv in [
        *[(suffix, ["solve", "--semantics", sem, "--truth", truth])
          for truth in ("kleene", "sv")
          for suffix, semantics in ((".ael", SOLVERS), (".dt", [*SOLVERS, "reiter", "weak"]))
          for sem in semantics],
        *[(suffix, ["check", "--truth", truth])
          for truth in ("kleene", "sv") for suffix in (".ael", ".dt")],
    ]
]


@pytest.mark.parametrize("suffix, argv", COMPILE_COUNT_CALLS)
def test_each_modal_formula_is_compiled_once_per_command(tmp_path, monkeypatch, suffix, argv):
    text = COMPILE_COUNT_INPUTS[suffix]
    theory = konolige(parse_default_theory(text)) if suffix == ".dt" else parse_theory(text)
    modal = [f for f in theory.formulas if not objective(f)]
    path = tmp_path / f"theory{suffix}"
    path.write_text(text)
    compiled = []
    compile_formula = nmr.truth._compile

    def counting(f, vocabulary, knows):
        compiled.append(f)
        return compile_formula(f, vocabulary, knows)

    monkeypatch.setattr(nmr.truth, "_compile", counting)
    assert main([*argv, "--input", str(path)]) == 0
    assert Counter(f for f in compiled if f in modal) == Counter(modal)
