import io
import json

import pytest

import nmr.semantics
from nmr.cli import SolveRequest, main, replay_trace_payload, run_check, run_solve
from nmr.defaults import konolige, parse_default_theory
from nmr.syntax import parse_theory
from nmr.truth import TruthFunctionKind
from nmr.worlds import BeliefState


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
    pytest.param(["solve", "--semantics", "kk"], ".ael", "(" * 3000 + "P" + ")" * 3000, id="parens"),
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


def test_long_flat_conjunction_still_solves(tmp_path, capsys):
    wide = tmp_path / "wide.ael"
    wide.write_text("vocab: P\n" + " & ".join(["P"] * 400) + "\n")
    assert solve("--semantics", "kk", "--input", str(wide)) == 0
    assert capsys.readouterr().out == "vocabulary: P\nkk: TOTAL {{P}}\n"


def test_exit_code_resource_cap(corpus, capsys):
    rc = solve("--semantics", "kk", "--input", str(corpus / "iff_knowledge.ael"),
               "--max-atoms", "1")
    assert rc == 2
    assert "resource cap" in capsys.readouterr().err


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


def test_check_sv_skips_algebraic_comparison(corpus):
    buf = io.StringIO()
    assert run_check(corpus / "truthsayer.ael", truth=TruthFunctionKind.SUPERVALUATION,
                     out=buf) == 0
    assert "skipped" in buf.getvalue()


def test_exit_code_internal_invariant_violation(corpus, monkeypatch, capsys):
    from nmr.errors import InternalInvariantError

    def boom(ctx):
        raise InternalInvariantError("injected")

    monkeypatch.setitem(nmr.semantics.SOLVERS, "kk", boom)
    assert solve("--semantics", "kk", "--input", str(corpus / "truthsayer.ael")) == 3
    assert "internal error" in capsys.readouterr().err


def test_check_detects_injected_evaluation_bug(corpus, monkeypatch):
    # Corrupt the fast route only: flip one world in every one-step revision
    # used by the expansion solver; the brute-force oracle is untouched.
    real = nmr.semantics.moore_step

    def broken(ctx, b):
        out = real(ctx, b)
        return BeliefState(out.vocabulary, out.mask ^ 1)

    monkeypatch.setattr(nmr.semantics, "moore_step", broken)
    buf = io.StringIO()
    assert run_check(corpus / "truthsayer.ael", out=buf) == 4
    out = buf.getvalue()
    assert "DISAGREEMENT" in out and "check failed" in out


def test_run_solve_accepts_stream(corpus):
    buf = io.StringIO()
    req = SolveRequest(logic="ael", semantics="kk", truth=TruthFunctionKind.KLEENE,
                       input_path=corpus / "truthsayer.ael")
    assert run_solve(req, out=buf) == 0
    assert buf.getvalue() == "vocabulary: P\nkk: PARTIAL ({∅, {P}}, {{P}})\n"
