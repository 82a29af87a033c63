"""Span tracing of bibeta's layers, installed from outside the package.

Each layer's public functions are wrapped where their caller looks the name
up: ``density`` binds ``integrate_unit``, ``hyp2f1`` and ``appell_f1``,
``special`` binds ``integrate_unit`` for its own hypergeometric routines,
``fitting`` binds ``moment_vector``, ``central_moment`` and ``minimize``, and
``cli`` binds ``pdf``, ``pdf_grid``, ``sample_bivariate`` and ``fit_data``.
The benchmark reaches every entry point through its module attribute, so it
sees the wrapped versions too.

A span is ``[name, start, end, parent, note]``, kept in a list in call order
(parents precede their children) and summarised once the traced pass ends.
``note`` holds the few result fields the per-layer metrics need, never the
result itself, so tracing keeps no large arrays alive.
"""

from __future__ import annotations

import contextlib
import importlib
import math
from collections import defaultdict
from time import perf_counter

# per-layer metric name -> (unit, better); the order is the report order
LAYER_METRICS = {
    "special.integrate_unit.calls": ("count", "lower"),
    "special.evals_per_point": ("count", "lower"),
    "special.integrate_unit.self_s": ("s", "lower"),
    "special.hyp2f1.calls": ("count", "lower"),
    "special.appell_f1.calls": ("count", "lower"),
    "special.convergence_errors": ("count", "lower"),
    "density.pdf.calls": ("count", "lower"),
    "density.pdf.self_s": ("s", "lower"),
    "density.closed_form.calls": ("count", "lower"),
    "density.quadrature.calls": ("count", "lower"),
    "density.fallback_ratio": ("ratio", "lower"),
    "density.inf_results": ("count", "lower"),
    "density.pdf_grid.s": ("s", "lower"),
    "construction.sample_bivariate.s": ("s", "lower"),
    "construction.pairs": ("count", "higher"),
    "moments.moment_vector.calls_per_fit": ("count", "lower"),
    "moments.central_moment.calls_per_fit": ("count", "lower"),
    "moments.self_s": ("s", "lower"),
    "fitting.fit_data.s": ("s", "lower"),
    "fitting.restarts_used": ("count", "lower"),
    "fitting.useful_restart_ratio": ("ratio", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.rows": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _note_quadrature(out, exc):
    result = out if exc is None else getattr(exc, "result", None)
    return getattr(result, "evaluations", 0)


def _note_density(out, exc):
    return exc is None and math.isinf(out.value)


def _note_minimize(out, exc):
    return None if exc is not None else float(out.fun)


def _note_fit(out, exc):
    return 0 if exc is not None else out.restarts_used


def _note_rows(out, exc):
    return 0 if exc is not None else len(out)


# (module, attribute, span name, note)
_PATCHES = (
    ("bibeta.special", "integrate_unit", "special.integrate_unit", _note_quadrature),
    ("bibeta.density", "integrate_unit", "special.integrate_unit", _note_quadrature),
    ("bibeta.density", "hyp2f1", "special.hyp2f1", None),
    ("bibeta.density", "appell_f1", "special.appell_f1", None),
    ("bibeta.density", "pdf_closed_form", "density.closed_form", None),
    ("bibeta.density", "pdf_quadrature", "density.quadrature", None),
    ("bibeta.density", "pdf", "density.pdf", _note_density),
    ("bibeta.density", "pdf_grid", "density.pdf_grid", None),
    ("bibeta.construction", "sample_bivariate", "construction.sample_bivariate", _note_rows),
    ("bibeta.fitting", "moment_vector", "moments.moment_vector", None),
    ("bibeta.fitting", "central_moment", "moments.central_moment", None),
    ("bibeta.fitting", "minimize", "fitting.minimize", _note_minimize),
    ("bibeta.fitting", "fit_data", "fitting.fit_data", _note_fit),
    ("bibeta.cli", "pdf", "density.pdf", _note_density),
    ("bibeta.cli", "pdf_grid", "density.pdf_grid", None),
    ("bibeta.cli", "sample_bivariate", "construction.sample_bivariate", _note_rows),
    ("bibeta.cli", "fit_data", "fitting.fit_data", _note_fit),
    ("bibeta.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                span[4] = ("error", type(exc).__name__,
                           note(None, exc) if note else None)
                raise
            span[2] = perf_counter()
            stack.pop()
            if note is not None:
                span[4] = note(out, None)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer entry point for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, note in _PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _errored(note, kind=None):
    return isinstance(note, tuple) and note[0] == "error" and (kind is None or note[1] == kind)


def layer_metrics(spans) -> dict:
    """Per-layer counts and times of one traced pass (without the cli
    import time and the tracing overhead, which the caller measures)."""
    n = len(spans)
    child_time = [0.0] * n
    # nearest enclosing density.pdf and fitting.fit_data span of each span
    pdf_of = [-1] * n
    fit_of = [-1] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            pdf_of[i], fit_of[i] = pdf_of[parent], fit_of[parent]
        if name == "density.pdf":
            pdf_of[i] = i
        elif name == "fitting.fit_data":
            fit_of[i] = i

    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += (end - start) - child_time[i]

    evals_under_pdf = 0
    convergence_errors = 0
    inf_results = 0
    minimize_by_fit = defaultdict(list)
    restarts_used = 0
    moments_in_fit = defaultdict(int)
    for i, (name, _, _, _, note) in enumerate(spans):
        if name == "special.integrate_unit":
            evals = note[2] if _errored(note) else note
            if pdf_of[i] >= 0:
                evals_under_pdf += evals or 0
            convergence_errors += _errored(note, "ConvergenceError")
        elif name == "density.pdf":
            inf_results += note is True
        elif name == "fitting.minimize" and fit_of[i] >= 0:
            minimize_by_fit[fit_of[i]].append(None if _errored(note) else note)
        elif name == "fitting.fit_data" and not _errored(note):
            restarts_used += note
        elif name.startswith("moments.") and fit_of[i] >= 0:
            moments_in_fit[name] += 1

    restarts_run = useful = 0
    for funs in minimize_by_fit.values():
        best = math.inf
        for k, fun in enumerate(funs):
            if fun is None:
                continue
            if k > 0:
                restarts_run += 1
                useful += fun < best
            best = min(best, fun)

    pdf_calls = calls["density.pdf"]
    fits = calls["fitting.fit_data"]
    return {
        "special.integrate_unit.calls": calls["special.integrate_unit"],
        "special.evals_per_point": evals_under_pdf / pdf_calls if pdf_calls else 0.0,
        "special.integrate_unit.self_s": self_time["special.integrate_unit"],
        "special.hyp2f1.calls": calls["special.hyp2f1"],
        "special.appell_f1.calls": calls["special.appell_f1"],
        "special.convergence_errors": convergence_errors,
        "density.pdf.calls": pdf_calls,
        "density.pdf.self_s": self_time["density.pdf"],
        "density.closed_form.calls": calls["density.closed_form"],
        "density.quadrature.calls": calls["density.quadrature"],
        "density.fallback_ratio": calls["density.quadrature"] / pdf_calls if pdf_calls else 0.0,
        "density.inf_results": inf_results,
        "density.pdf_grid.s": total["density.pdf_grid"],
        "construction.sample_bivariate.s": total["construction.sample_bivariate"],
        "construction.pairs": sum(note for name, _, _, _, note in spans
                                  if name == "construction.sample_bivariate"
                                  and not _errored(note)),
        "moments.moment_vector.calls_per_fit":
            moments_in_fit["moments.moment_vector"] / fits if fits else 0.0,
        "moments.central_moment.calls_per_fit":
            moments_in_fit["moments.central_moment"] / fits if fits else 0.0,
        "moments.self_s": self_time["moments.moment_vector"] + self_time["moments.central_moment"],
        "fitting.fit_data.s": total["fitting.fit_data"],
        "fitting.restarts_used": restarts_used,
        "fitting.useful_restart_ratio": useful / restarts_run if restarts_run else 0.0,
        "cli.self_s": self_time["cli.main"],
    }
