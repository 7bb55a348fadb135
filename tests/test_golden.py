"""Byte-identical CLI output on every ``corpus/`` file.

``tests/golden/corpus.json`` records, for every corpus file, the exit
code and stdout of ``nmr solve`` under every semantics and truth
function in human, ``--json`` and ``--json --trace`` form, and of
``nmr check`` under its default truth function and, on files of at
most ``SV_CHECK_ATOMS`` atoms, under ``--truth sv`` (the oracles refuse a
larger file under either truth function).
Any change to what the command line prints for these inputs fails here.

Regenerate the snapshots (only for an intended output change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from pathlib import Path

import pytest

from nmr.cli import main
from nmr.defaults import parse_default_theory
from nmr.syntax import parse_theory

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.json"

AEL_SEMANTICS = ("kk", "expansion", "stable", "wf")
DT_SEMANTICS = ("kk", "expansion", "stable", "wf", "reiter", "weak")
TRUTHS = ("kleene", "sv")
FORMS = {"human": (), "json": ("--json",), "json-trace": ("--json", "--trace")}
SV_CHECK_ATOMS = 4


def atom_count(path: Path) -> int:
    parse = parse_default_theory if path.suffix == ".dt" else parse_theory
    return len(parse(path.read_text(encoding="utf-8")).vocabulary)


@functools.cache
def cases() -> dict[str, list[str]]:
    """Case id -> argv, with input paths relative to the repository root."""
    out: dict[str, list[str]] = {}
    for path in sorted((ROOT / "corpus").iterdir()):
        rel = f"corpus/{path.name}"
        semantics = DT_SEMANTICS if path.suffix == ".dt" else AEL_SEMANTICS
        for sem in semantics:
            for truth in TRUTHS:
                for form, flags in FORMS.items():
                    out[f"solve {path.name} {sem} {truth} {form}"] = [
                        "solve", "--semantics", sem, "--truth", truth, "--input", rel, *flags]
        out[f"check {path.name}"] = ["check", "--input", rel]
        if atom_count(path) <= SV_CHECK_ATOMS:
            out[f"check {path.name} sv"] = ["check", "--truth", "sv", "--input", rel]
    return out


def run_case(argv: list[str]) -> dict:
    """Exit code and stdout of one CLI call made from the repository root."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": stdout.getvalue()}


@functools.cache
def _snapshots() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_snapshots()) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_corpus_output_is_byte_identical(case):
    assert run_case(cases()[case]) == _snapshots()[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    snapshots = {case: run_case(argv) for case, argv in sorted(cases().items())}
    GOLDEN.write_text(json.dumps(snapshots, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(snapshots)} snapshots to {GOLDEN.relative_to(ROOT)}")
