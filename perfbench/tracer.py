"""Spans and counts around the public functions of each ``nmr`` module.

Used only by the traced run.  ``Tracer.install`` rebinds every reference
to a wrapped function that the loaded ``nmr`` modules hold (module
globals, and the values of module-level dicts such as dispatch tables)
to a wrapper that records one span per call; ``uninstall`` puts the
originals back.  Nothing under ``src/`` is edited, and the untraced run
never calls ``install``.

Only public names are wrapped.  A name that a later version of ``nmr``
no longer has is skipped, and the metrics derived from it are left out
of the report rather than failing the run.

Spans are kept in flat columns (name, start, end, parent, request) and
written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _guesses(args, result):
    return {"semantics.guesses": 2 ** len(result)}


def _candidates(args, result):
    return {"semantics.candidates": len(result)}


def _subsets(args, result):
    return {"oracle.subsets": 2 ** args[0].vocabulary.world_count}


def _solver_result(args, result):
    steps = sum(len(t.steps) for t in result.traces)
    worlds = sum(s.mask.bit_count() for t in result.traces for s in t.steps)
    return {"semantics.results": len(result.results),
            "semantics.trace_steps": steps,
            "semantics.trace_worlds": worlds}


def _stable_result(args, result):
    return {**_solver_result(args, result), "semantics.stable_results": len(result.results)}


@dataclass(frozen=True)
class Wrap:
    module: str                 # nmr submodule holding the name
    name: str                   # "func" or "Class.method"
    layer: str                  # layer the span is charged to
    count: Callable | None = None  # (args, result) -> {metric: amount}


SEMANTICS_ENTRIES = ("kripke_kleene_extension", "expansions", "stable_extensions",
                     "well_founded_extension")
ORACLES = ("brute_expansions", "brute_stable", "algebraic_wf")

WRAPS = (
    Wrap("syntax", "parse_theory", "syntax"),
    Wrap("defaults", "parse_default_theory", "syntax"),
    Wrap("syntax", "collect_modal_subformulas", "syntax", _guesses),
    Wrap("defaults", "konolige", "defaults"),
    Wrap("defaults", "reiter_extensions", "defaults"),
    Wrap("defaults", "gamma_operator", "defaults"),
    Wrap("operators", "OperatorContext.status_masks", "truth"),
    Wrap("truth", "models", "truth"),
    Wrap("operators", "approx_step", "operators"),
    Wrap("operators", "moore_step", "operators"),
    Wrap("operators", "stable_revision", "operators"),
    Wrap("semantics", "kripke_kleene_extension", "semantics", _solver_result),
    Wrap("semantics", "expansions", "semantics", _solver_result),
    Wrap("semantics", "stable_extensions", "semantics", _stable_result),
    Wrap("semantics", "well_founded_extension", "semantics", _solver_result),
    Wrap("semantics", "expansion_candidates", "semantics", _candidates),
    Wrap("semantics", "greatest_unfounded_set", "semantics"),
    Wrap("oracle", "brute_expansions", "oracle", _subsets),
    Wrap("oracle", "brute_stable", "oracle", _subsets),
    Wrap("oracle", "algebraic_wf", "oracle"),
    Wrap("cli", "run_solve", "cli"),
    Wrap("cli", "run_check", "cli"),
    Wrap("cli", "solve_payload", "cli"),
)

REQUEST = "request"


def _short(name: str) -> str:
    return name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []           # span name table
        self.layers: list[str] = []          # layer of each name
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.counts: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()     # short names wrapped
        self.broken: set[str] = set()        # short names whose counter failed
        self._stack = [-1]
        self._request = -1
        self._undo: list[Callable[[], None]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_request.append(self._request)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def request(self, request_id: int, fn, *args):
        """Run one request under a root span; spans inside carry its id."""
        self._request = request_id
        idx = self._open(self._name_id(REQUEST, REQUEST))
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._request = -1

    def _wrapper(self, original, wrap: Wrap):
        short = _short(wrap.name)
        name_id = self._name_id(short, wrap.layer)
        count = wrap.count
        counts = self.counts

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                try:
                    amounts = count(args, result)
                except (AttributeError, TypeError):
                    self.broken.add(short)
                else:
                    for metric, amount in amounts.items():
                        counts[metric] += amount
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", wrap.name)
        traced.traced_by = self
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "nmr" or name.startswith("nmr."))]
        for wrap in WRAPS:
            owner = sys.modules.get(f"nmr.{wrap.module}")
            cls_name, _, attr = wrap.name.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                continue
            traced = self._wrapper(original, wrap)
            self.installed.add(_short(wrap.name))
            if cls_name:
                self._rebind(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, traced)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in value.items():
                            if dvalue is original:
                                self._rebind_item(value, dkey, traced)

    def _rebind(self, owner, attr, new) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _rebind_item(self, table: dict, key, new) -> None:
        old = table[key]
        table[key] = new
        self._undo.append(lambda: table.__setitem__(key, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------------

    def durations(self):
        """Yield (name, layer, duration_ns, parent_layer, parent_name) per span."""
        for i in range(len(self.span_name)):
            p = self.span_parent[i]
            yield (self.names[self.span_name[i]], self.layers[self.span_name[i]],
                   self.span_end[i] - self.span_start[i],
                   self.layers[self.span_name[p]] if p >= 0 else None,
                   self.names[self.span_name[p]] if p >= 0 else None)

    def dump(self, path) -> None:
        data = {
            "columns": ["name", "start_ns", "end_ns", "parent", "request"],
            "names": self.names,
            "layers": self.layers,
            "name": self.span_name.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "request": self.span_request.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, tuple[float, str]]:
    """Per-call averages of the per-layer metrics over ``requests`` requests,
    as ``{name: (value, unit)}``.

    A metric is present only when every function it is derived from was
    found and wrapped.
    """
    ns = defaultdict(int)        # total span time by function name
    calls = defaultdict(int)     # span count by function name
    semantics_children_ns = 0    # truth/operators spans directly under semantics
    cli_top_ns = 0               # cli spans not nested in another cli span
    cli_children_ns = 0          # non-cli spans directly under a cli span
    stable_tests = 0             # stable revisions made for stable_extensions
    for name, layer, dur, parent_layer, parent_name in tracer.durations():
        ns[name] += dur
        calls[name] += 1
        if layer in ("truth", "operators") and parent_layer == "semantics":
            semantics_children_ns += dur
        if layer == "cli" and parent_layer != "cli":
            cli_top_ns += dur
        if layer != "cli" and parent_layer == "cli":
            cli_children_ns += dur
        if name == "stable_revision" and parent_name == "stable_extensions":
            stable_tests += 1
    have = tracer.installed - tracer.broken
    c = tracer.counts

    def ms(*names):
        return sum(ns[n] for n in names) / 1e6

    out: dict[str, tuple[float, str]] = {}

    def put(metric, needs, value):
        if all(n in have for n in needs):
            unit = "ms" if metric.endswith("ms") else "count"
            out[metric] = (value / requests, unit)

    put("syntax.parse_ms", ("parse_theory", "parse_default_theory"),
        ms("parse_theory", "parse_default_theory"))
    put("defaults.translate_ms", ("konolige",), ms("konolige"))
    put("defaults.reiter_ms", ("reiter_extensions",), ms("reiter_extensions"))
    put("defaults.gamma_calls", ("gamma_operator",), calls["gamma_operator"])
    put("truth.status_calls", ("status_masks",), calls["status_masks"])
    put("truth.status_ms", ("status_masks",), ms("status_masks"))
    put("truth.models_calls", ("models",), calls["models"])
    put("truth.models_ms", ("models",), ms("models"))
    put("operators.approx_steps", ("approx_step",), calls["approx_step"])
    put("operators.stable_revisions", ("stable_revision",), calls["stable_revision"])
    put("operators.stable_revision_ms", ("stable_revision",), ms("stable_revision"))
    put("operators.moore_steps", ("moore_step",), calls["moore_step"])
    put("semantics.solve_ms", SEMANTICS_ENTRIES, ms(*SEMANTICS_ENTRIES))
    put("semantics.self_ms", SEMANTICS_ENTRIES,
        ms(*SEMANTICS_ENTRIES) - semantics_children_ns / 1e6)
    put("semantics.guesses", ("collect_modal_subformulas",), c["semantics.guesses"])
    put("semantics.candidates", ("expansion_candidates",), c["semantics.candidates"])
    put("semantics.results", SEMANTICS_ENTRIES, c["semantics.results"])
    put("semantics.unfounded_calls", ("greatest_unfounded_set",),
        calls["greatest_unfounded_set"])
    put("semantics.trace_steps", SEMANTICS_ENTRIES, c["semantics.trace_steps"])
    put("semantics.trace_worlds", SEMANTICS_ENTRIES, c["semantics.trace_worlds"])
    put("oracle.ms", ORACLES, ms(*ORACLES))
    put("oracle.subsets", ("brute_expansions", "brute_stable"), c["oracle.subsets"])
    put("cli.render_ms", ("run_solve", "run_check", "solve_payload"),
        (cli_top_ns - cli_children_ns) / 1e6)
    if {"stable_extensions", "stable_revision"} <= have:
        # stable extensions found over the candidates stable_extensions tested
        out["semantics.useful_ratio"] = (c["semantics.stable_results"] / stable_tests
                                         if stable_tests else 0.0, "ratio")
    return out
