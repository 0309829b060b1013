"""Spans around the public functions of each qdsphere module.

Modules import functions by name, so each function is wrapped where its
caller looks it up (for example `qdsphere.graph.trace_from_critical`, the
name `build_critical_graph` uses). Spans live in memory: name, op id,
parent span, start, end and a few counts read from the arguments or the
result. Per-point helpers (`continue_sqrt`, `Polynomial.eval_array`) are
not wrapped: their call counts would swamp the timings with overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

TRACER_FNS = ("trace_horizontal", "trace_vertical", "trace_from_critical")


def _ray(args, kwargs, result, meta):
    meta["accepted"] = result.work["accepted_steps"]
    meta["rejected"] = result.work["rejected_steps"]
    meta["points"] = len(result.points)
    meta["termination"] = result.termination.kind
    meta["imag_drift"] = result.imag_drift


def _drift(args, kwargs, result, meta):
    meta["points"] = len(args[1].points)


def _graph(args, kwargs, result, meta):
    meta["launched"] = result.work["launched_rays"]
    meta["short"] = sum(1 for e in result.edges if e.is_short)
    meta["unresolved"] = len(result.unresolved)


def _recurrence(args, kwargs, result, meta):
    meta["crossings"] = result.crossings


def _overall(args, kwargs, result, meta):
    meta["verdict"] = result


def _roots(args, kwargs, result, meta):
    meta["degree"] = args[0].degree


def _level_grid(args, kwargs, result, meta):
    meta["samples"] = int(result.n * result.n - result.undefined_mask.sum())


def _contour(args, kwargs, result, meta):
    meta["cells"] = (len(args[0]) - 1) * (len(args[1]) - 1)
    meta["polylines"] = len(result)


def _svg_text(args, kwargs, result, meta):
    meta["bytes"] = len(result.encode())


# (module, attribute looked up there, span name, observer)
TARGETS = (
    [("cli", "main", "cli.main", None),
     ("cli", "parse_input", "specfile.parse_input", None),
     ("cli", "build_qd", "specfile.build_qd", None),
     ("cli", "measure_mass", "qdiff.measure_mass", None),
     ("cli", "detect_recurrence", "graph.detect_recurrence", _recurrence),
     ("cli", "run_all", "criteria.run_all", None),
     ("cli", "overall_verdict", "criteria.overall_verdict", _overall),
     ("cli", "level_grid", "level.level_grid", _level_grid),
     ("cli", "verify_level", "level.verify_level", None),
     ("cli", "level_function", "level.level_function", None),
     ("cli", "analyze_lemniscate", "lemniscate.analyze_lemniscate", None),
     ("cli", "lemniscate_level_curve", "lemniscate.lemniscate_level_curve", None),
     ("lemniscate", "marching_squares", "contour.marching_squares", _contour),
     ("tracer", "imag_drift_of", "tracer.imag_drift_of", _drift)]
    + [(mod, "critical_points", "qdiff.critical_points", None)
       for mod in ("cli", "graph", "criteria")]
    + [(mod, "poly_roots", "polyalg.poly_roots", _roots)
       for mod in ("qdiff", "criteria", "polyalg")]
    + [(mod, "build_critical_graph", "graph.build_critical_graph", _graph)
       for mod in ("cli", "graph", "criteria")]
    + [(mod, "pair_zeros_by_short_trajectories",
        "graph.pair_zeros_by_short_trajectories", None)
       for mod in ("cli", "criteria")]
    + [("cli", "trace_horizontal", "tracer.ray", _ray),
       ("lemniscate", "trace_horizontal", "tracer.ray", _ray)]
    + [("graph", fn, "tracer.ray", _ray) for fn in TRACER_FNS]
)
SVG_METHODS = ("polyline", "dot", "cross", "text")


class Span:
    __slots__ = ("name", "op", "parent", "t0", "t1", "meta", "child_s")

    def __init__(self, name, op, parent, t0):
        self.name, self.op, self.parent, self.t0 = name, op, parent, t0
        self.t1 = t0
        self.meta = {}
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Recorder:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, observe):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else None
            span = Span(name, rec.op, parent, time.perf_counter())
            rec._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.meta["error"] = type(e).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                rec._stack.pop()
                rec.spans.append(span)
                if parent is not None:
                    parent.child_s += span.dur
            if observe is not None:
                observe(args, kwargs, result, span.meta)
            return result

        return wrapper

    def _svg_wrap(self, fn, name):
        inner = self._wrap(fn, name, _svg_text if name == "svg.text" else None)

        @functools.wraps(fn)
        def method(canvas, *args, **kwargs):
            before = len(canvas._body)
            out = inner(canvas, *args, **kwargs)
            self.spans[-1].meta["elements"] = len(canvas._body) - before
            return out

        return method

    def install(self) -> None:
        for modname, attr, name, observe in TARGETS:
            mod = importlib.import_module(f"qdsphere.{modname}")
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, observe))
        canvas = importlib.import_module("qdsphere.svg").SvgCanvas
        for attr in SVG_METHODS:
            orig = getattr(canvas, attr)
            self._saved.append((canvas, attr, orig))
            setattr(canvas, attr, self._svg_wrap(orig, f"svg.{attr}"))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path) -> None:
        """All spans as a JSON list; parents are indices into the list."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [{"name": s.name, "op": s.op, "t0": s.t0, "t1": s.t1,
                 "parent": None if s.parent is None else index[id(s.parent)],
                 "meta": s.meta} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Every per-layer metric, summed over the traced spans."""
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def group(name):
        return by.get(name, [])

    def busy(name):
        return sum(s.dur for s in group(name))

    def self_s(name):
        return sum(s.self_s for s in group(name))

    def total(name, key):
        return sum(s.meta.get(key, 0) for s in group(name))

    rays = [s for s in group("tracer.ray") if "error" not in s.meta]
    acc, rej = total("tracer.ray", "accepted"), total("tracer.ray", "rejected")
    m = {
        "tracer.rays": len(group("tracer.ray")),
        "tracer.busy_s": busy("tracer.ray"),
        "tracer.self_s": self_s("tracer.ray"),
        "tracer.accepted_steps": acc,
        "tracer.rejected_steps": rej,
        "tracer.accept_ratio": _ratio(acc, acc + rej),
        "tracer.steps_per_s": _ratio(acc, busy("tracer.ray")),
        "tracer.points": total("tracer.ray", "points"),
    }
    for kind in ("Closed", "HitCritical", "EscapedWindow", "PhiLengthBudget",
                 "StepBudget"):
        m[f"tracer.term.{kind}"] = sum(1 for s in rays if s.meta["termination"] == kind)
    m["tracer.errors"] = len(group("tracer.ray")) - len(rays)
    m["tracer.imag_drift_of.busy_s"] = busy("tracer.imag_drift_of")
    m["tracer.imag_drift_of.points_per_s"] = _ratio(
        total("tracer.imag_drift_of", "points"), busy("tracer.imag_drift_of"))
    m["tracer.imag_drift_max"] = max((s.meta["imag_drift"] for s in rays), default=0.0)

    m["graph.build_critical_graph.busy_s"] = busy("graph.build_critical_graph")
    m["graph.build_critical_graph.self_s"] = self_s("graph.build_critical_graph")
    m["graph.launched_rays"] = total("graph.build_critical_graph", "launched")
    m["graph.short_edges"] = total("graph.build_critical_graph", "short")
    m["graph.unresolved_rays"] = total("graph.build_critical_graph", "unresolved")
    m["graph.detect_recurrence.busy_s"] = busy("graph.detect_recurrence")
    m["graph.detect_recurrence.self_s"] = self_s("graph.detect_recurrence")
    m["graph.crossings"] = total("graph.detect_recurrence", "crossings")
    m["graph.pair_zeros_by_short_trajectories.busy_s"] = busy(
        "graph.pair_zeros_by_short_trajectories")

    roots = group("polyalg.poly_roots")
    m["polyalg.poly_roots.calls"] = len(roots)
    m["polyalg.poly_roots.busy_s"] = busy("polyalg.poly_roots")
    for deg in (4, 16, 64):
        durs = [s.dur for s in roots if s.meta.get("degree") == deg]
        m[f"polyalg.poly_roots.deg{deg}_s"] = statistics.median(durs) if durs else 0.0

    m["qdiff.critical_points.busy_s"] = busy("qdiff.critical_points")
    m["qdiff.measure_mass.busy_s"] = busy("qdiff.measure_mass")

    m["criteria.run_all.busy_s"] = busy("criteria.run_all")
    m["criteria.run_all.self_s"] = self_s("criteria.run_all")
    for verdict in ("CertifiedNoRecurrence", "NumericallySupported", "Inconclusive"):
        m[f"criteria.overall.{verdict}"] = sum(
            1 for s in group("criteria.overall_verdict") if s.meta.get("verdict") == verdict)

    samples = total("level.level_grid", "samples")
    m["level.level_grid.busy_s"] = busy("level.level_grid")
    m["level.samples"] = samples
    m["level.samples_per_s"] = _ratio(samples, busy("level.level_grid"))
    m["level.verify_level.busy_s"] = busy("level.verify_level")
    m["level.verify_level.self_s"] = self_s("level.verify_level")
    m["level.level_function.busy_s"] = busy("level.level_function")

    m["lemniscate.analyze_lemniscate.busy_s"] = busy("lemniscate.analyze_lemniscate")
    m["lemniscate.lemniscate_level_curve.self_s"] = self_s(
        "lemniscate.lemniscate_level_curve")
    m["contour.marching_squares.busy_s"] = busy("contour.marching_squares")
    m["contour.cells_per_s"] = _ratio(total("contour.marching_squares", "cells"),
                                      busy("contour.marching_squares"))
    m["contour.polylines"] = total("contour.marching_squares", "polylines")
    svg = [f"svg.{a}" for a in SVG_METHODS]
    m["svg.busy_s"] = sum(busy(n) for n in svg)
    m["svg.bytes"] = total("svg.text", "bytes")
    m["svg.elements"] = sum(total(n, "elements") for n in svg)

    m["specfile.parse_input.busy_s"] = busy("specfile.parse_input")
    m["specfile.build_qd.self_s"] = self_s("specfile.build_qd")
    m["cli.self_s"] = self_s("cli.main")
    return m
