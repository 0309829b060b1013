"""Command line front end: analyze, render, trace, criteria, level,
lemniscate, cauchy. JSON in, JSON/SVG out, deterministic for a fixed seed.

Exit codes: 0 when a certificate or supported verdict exists, 10 when
everything is inconclusive (or a pairing / short-trajectory prerequisite
fails), 20 when a recurrent trajectory is suspected, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import QdError, ResidueObstruction, SchemaError
from .criteria import overall_verdict, run_all, CERTIFIED, SUPPORTED
from .graph import (Pairing, PairingFailure, build_critical_graph,
                    detect_recurrence, pair_zeros_by_short_trajectories,
                    K_MIN_DEFAULT)
from .level import level_function, level_grid, verify_level
from .lemniscate import analyze_lemniscate, lemniscate_level_curve
from .qdiff import critical_points, measure_mass, order_at_infinity
from .specfile import build_qd, parse_input, parse_max_steps, parse_window
from .svg import SvgCanvas
from .tracer import TraceOptions, trace_horizontal
from .errors import EmptyLevel

EXIT_OK = 0
EXIT_INCONCLUSIVE = 10
EXIT_RECURRENT = 20


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, float) and v == float("inf"):
        return "inf"
    return v


def _write_json(path: str, obj) -> None:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _options(qd, spec, args) -> TraceOptions:
    """Budget resolution: file budgets, then QD_MAX_STEPS, then --rk-tol."""
    kw = {}
    if "max_phi_length" in spec.budgets:
        kw["max_phi_length"] = float(spec.budgets["max_phi_length"])
    if "max_steps" in spec.budgets:
        kw["max_steps"] = spec.budgets["max_steps"]
    if "rk_tol" in spec.budgets:
        kw["rk_tol"] = float(spec.budgets["rk_tol"])
    if spec.window is not None:
        kw["window"] = spec.window
    env = os.environ.get("QD_MAX_STEPS")
    if env:
        try:
            kw["max_steps"] = parse_max_steps(int(env), "QD_MAX_STEPS")
        except ValueError:
            raise SchemaError("QD_MAX_STEPS", f"expected a positive integer, got {env!r}") from None
    if getattr(args, "rk_tol", None) is not None:
        kw["rk_tol"] = args.rk_tol
    return TraceOptions.for_qd(qd, **kw)


def _tolerances(opts: TraceOptions) -> dict:
    return {"rk_tol": opts.rk_tol, "snap_radius": opts.snap_radius,
            "max_phi_length": opts.max_phi_length, "max_steps": opts.max_steps,
            "k_min": K_MIN_DEFAULT}


def _cp_row(cp) -> dict:
    return {"at": None if cp.at.is_infinite else [cp.at.value.real, cp.at.value.imag],
            "order": cp.signed_order,
            "quadratic_residue": _jsonable(cp.quadratic_residue)}


def cmd_analyze(spec, out_path, args) -> int:
    qd = build_qd(spec)
    opts = _options(qd, spec, args)
    cps = critical_points(qd)
    graph = build_critical_graph(qd, opts)
    shorts = [e for e in graph.edges if e.is_short]
    verdicts = run_all(qd, opts, graph=graph)

    recurrence = []
    for z0 in spec.seeds:
        rep = detect_recurrence(qd, z0, opts)
        recurrence.append({
            "seed": [z0.real, z0.imag],
            "verdict": rep.verdict,
            "crossings": rep.crossings,
            "closed": rep.closed,
            "reason": rep.reason,
            "ray_termination": rep.ray.termination.kind,
            "work": rep.ray.work,
        })

    report = {
        "format_version": 1,
        "tool_version": __version__,
        "input": spec.defaults_echo(),
        "order_at_infinity": order_at_infinity(qd),
        "critical_points": [_cp_row(c) for c in cps],
        "edges": [{
            "from": e.from_node, "to": e.to_node,
            "phi_length": _jsonable(e.phi_length), "short": e.is_short,
            "points": len(e.polyline),
        } for e in graph.edges],
        "short_trajectories": [{
            "from": e.from_node, "to": e.to_node,
            "phi_length": e.phi_length,
            "polyline": [_jsonable(complex(z)) for z in e.polyline[:: max(1, len(e.polyline) // 64)]],
        } for e in shorts],
        "unresolved_rays": len(graph.unresolved),
        "criteria": [{"criterion": v.criterion, "verdict": v.verdict,
                      "evidence": v.evidence} for v in verdicts],
        "overall": overall_verdict(verdicts),
        "recurrence": recurrence,
        "timings": {"unit": "integrator_steps", "graph": graph.work,
                    "recurrence": [r["work"] for r in recurrence]},
        "tolerances": _tolerances(opts),
    }
    _write_json(out_path, report)
    if any(r["verdict"] == "SuspectedRecurrent" for r in recurrence):
        return EXIT_RECURRENT
    if report["overall"] in (CERTIFIED, SUPPORTED):
        return EXIT_OK
    return EXIT_INCONCLUSIVE


def cmd_criteria(spec, args) -> int:
    qd = build_qd(spec)
    opts = _options(qd, spec, args)
    verdicts = run_all(qd, opts)
    out = {"format_version": 1, "tool_version": __version__,
           "criteria": [{"criterion": v.criterion, "verdict": v.verdict,
                         "evidence": v.evidence} for v in verdicts],
           "overall": overall_verdict(verdicts)}
    print(json.dumps(_jsonable(out), sort_keys=True, indent=2))
    return EXIT_OK if out["overall"] in (CERTIFIED, SUPPORTED) else EXIT_INCONCLUSIVE


def cmd_trace(spec, z0, length, out_path, args) -> int:
    qd = build_qd(spec)
    opts = _options(qd, spec, args)
    if length is not None:
        opts = opts.replace(max_phi_length=float(length))
    ray = trace_horizontal(qd, z0, opts=opts)
    _write_json(out_path, {
        "format_version": 1,
        "tool_version": __version__,
        "seed": [z0.real, z0.imag],
        "points": [_jsonable(complex(z)) for z in ray.points],
        "taus": [float(t) for t in ray.taus],
        "phi_length": ray.phi_length,
        "imag_drift": ray.imag_drift,
        "termination": {"kind": ray.termination.kind,
                        "cp_index": ray.termination.cp_index,
                        "incoming_angle": ray.termination.incoming_angle},
        "work": ray.work,
        "tolerances": _tolerances(opts),
    })
    return EXIT_OK


def cmd_render(spec, out_svg, window, grid_n, args) -> int:
    qd = build_qd(spec)
    opts = _options(qd, spec, args)
    win = window or spec.window or opts.window
    canvas = SvgCanvas(win)

    if spec.kind == "lemniscate":
        _render_lemniscate(spec, qd, canvas, win, None)
    else:
        if grid_n:
            _render_background(qd, canvas, win, grid_n, opts)
        graph = build_critical_graph(qd, opts)
        for e in graph.edges:
            if not e.is_short:
                canvas.polyline(e.polyline, "traj")
        for ray in graph.unresolved:
            take = max(1, len(ray.points) // 4000)
            canvas.polyline(np.asarray(ray.points)[::take], "traj")
        for e in graph.edges:
            if e.is_short:
                canvas.polyline(e.polyline, "short")
        _render_markers(qd, canvas)
    with open(out_svg, "w") as fh:
        fh.write(canvas.text())
    return EXIT_OK


def _render_markers(qd, canvas):
    for c in qd.zeros:
        canvas.dot(c.location, "zero")
    for c in qd.poles:
        canvas.cross(c.location, "pole")


def _render_background(qd, canvas, win, n, opts):
    x0, y0, x1, y1 = win
    guard = [(c.location, 10 * qd.guard_radius(c.location))
             for c in qd.zeros + qd.poles]
    bg_opts = opts.replace(max_phi_length=min(opts.max_phi_length, 60.0))
    for y in np.linspace(y0, y1, n + 2)[1:-1]:
        for x in np.linspace(x0, x1, n + 2)[1:-1]:
            z = complex(x, y)
            if any(abs(z - g) < r for g, r in guard):
                continue
            for orientation in (1, -1):
                ray = trace_horizontal(qd, z, orientation, bg_opts)
                take = max(1, len(ray.points) // 400)
                canvas.polyline(np.asarray(ray.points)[::take], "bg")


def _render_lemniscate(spec, qd, canvas, win, level):
    p, q = spec.polys["p"], spec.polys["q"]
    rep = analyze_lemniscate(p, q, 0)
    main = level if level is not None else (
        max(rep.critical_levels) if rep.critical_levels else 1.0)
    for c in sorted({0.45 * main, 0.75 * main, 1.6 * main, 2.6 * main}):
        try:
            for poly in lemniscate_level_curve(p, q, c, win, 192, cross_check=False):
                canvas.polyline(poly, "bg")
        except EmptyLevel:
            pass
    for poly in lemniscate_level_curve(p, q, main, win, 256, cross_check=False):
        canvas.polyline(poly, "level")
    for z in rep.finite_critical_points:
        canvas.dot(z, "zero")
    for b, _qr in rep.double_poles:
        if b is not None:
            canvas.cross(b, "pole")


def cmd_lemniscate(spec, level, out_svg, args) -> int:
    if spec.kind != "lemniscate":
        raise SchemaError("$", "the lemniscate command needs a lemniscate form input")
    qd = build_qd(spec)
    opts = _options(qd, spec, args)
    win = spec.window or opts.window
    canvas = SvgCanvas(win)
    _render_lemniscate(spec, qd, canvas, win, level)
    with open(out_svg, "w") as fh:
        fh.write(canvas.text())
    return EXIT_OK


def cmd_level(spec, out_path, grid_n, args) -> int:
    if spec.kind != "p_over_q_squared":
        raise SchemaError("$", "the level command needs a p_over_q_squared form input")
    qd = build_qd(spec)
    opts = _options(qd, spec, args)
    win = spec.window or opts.window
    pairing = pair_zeros_by_short_trajectories(qd, opts)

    if isinstance(pairing, PairingFailure):
        # diagnose: probe targets on the far side of each pole force the
        # two candidate paths into different homotopy classes
        base = qd.zeros[0].location if qd.zeros else 0j
        obstruction = None
        for pole in qd.poles:
            probe = 2 * pole.location - base
            try:
                level_function(qd, None, probe)
            except ResidueObstruction as e:
                obstruction = {"gap": e.gap, "at": _jsonable(e.at)}
                break
            except QdError:
                continue
        _write_json(out_path, {
            "format_version": 1,
            "tool_version": __version__,
            "pairing_failure": {"unmatched": pairing.unmatched,
                                "locations": [_jsonable(z) for z in pairing.locations],
                                "reason": pairing.reason},
            "obstruction": obstruction,
            "input": spec.defaults_echo(),
        })
        return EXIT_INCONCLUSIVE

    try:
        field = level_grid(qd, pairing, win, grid_n)
    except ResidueObstruction as e:
        _write_json(out_path, {
            "format_version": 1,
            "tool_version": __version__,
            "obstruction": {"gap": e.gap, "at": _jsonable(e.at)},
            "input": spec.defaults_echo(),
        })
        return EXIT_INCONCLUSIVE

    rays = _level_rays(qd, spec, win, opts)
    verification = verify_level(field, rays, qd)
    rows = []
    for iy in range(field.n):
        rows.append([None if field.undefined_mask[iy, ix] else float(field.grid[iy, ix])
                     for ix in range(field.n)])
    _write_json(out_path, {
        "format_version": 1,
        "tool_version": __version__,
        "base_point": _jsonable(field.base_point),
        "window": list(field.window),
        "n": field.n,
        "grid": rows,
        "cuts": [[_jsonable(complex(z)) for z in cut] for cut in field.cuts],
        "pairing": {"pairs": pairing.pairs, "method": pairing.method},
        "verification": {"passed_i": verification.passed_i,
                         "passed_ii": verification.passed_ii,
                         "passed_iii": verification.passed_iii,
                         "details": _jsonable(verification.details)},
        "input": spec.defaults_echo(),
        "tolerances": _tolerances(opts),
    })
    return EXIT_OK


def _level_rays(qd, spec, win, opts):
    seeds = list(spec.seeds)
    if not seeds:
        x0, y0, x1, y1 = win
        ctr = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        diag = complex(x1, y1) - ctr
        guard = [(c.location, 10 * qd.guard_radius(c.location))
                 for c in qd.zeros + qd.poles]
        for t in np.linspace(0.3, 0.8, 12):
            z = ctr + t * diag
            if not any(abs(z - g) < r for g, r in guard):
                seeds.append(z)
            if len(seeds) == 3:
                break
    return [trace_horizontal(qd, z, opts=opts) for z in seeds]


def cmd_cauchy(spec, out_path, args) -> int:
    if spec.kind != "cauchy":
        raise SchemaError("$", "the cauchy command needs a cauchy form input")
    qd = build_qd(spec)
    opts = _options(qd, spec, args)
    graph = build_critical_graph(qd, opts)
    shorts = [e for e in graph.edges if e.is_short]
    if not shorts:
        _write_json(out_path, {
            "format_version": 1,
            "tool_version": __version__,
            "error": "NoShortTrajectory",
            "edges": [{"from": e.from_node, "to": e.to_node,
                       "phi_length": _jsonable(e.phi_length)} for e in graph.edges],
            "input": spec.defaults_echo(),
        })
        return EXIT_INCONCLUSIVE
    step = qd.diameter() / 2000.0
    components = []
    total = 0.0
    for e in shorts:
        mass = measure_mass(qd, e.polyline, max_step=step)
        total += mass
        a = graph.nodes[e.from_node]
        b = graph.nodes[e.to_node]
        components.append({
            "endpoints": [_cp_row(a)["at"], _cp_row(b)["at"]],
            "mass": mass,
            "phi_length": e.phi_length,
        })
    _write_json(out_path, {
        "format_version": 1,
        "tool_version": __version__,
        "components": components,
        "total_mass": total,
        "support": sorted({tuple(pt) for c in components for pt in c["endpoints"]}),
        "input": spec.defaults_echo(),
        "tolerances": _tolerances(opts),
    })
    return EXIT_OK


def _xy_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected x,y")
    return complex(float(parts[0]), float(parts[1]))


def _window_arg(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected x0,y0,x1,y1")
    return tuple(parts)


def _check_flags(args) -> None:
    """Reject flag values that parse but that no command can use."""
    if args.command == "render":
        if args.window is not None:
            parse_window(args.window, "--window")
        if args.grid < 0:
            raise SchemaError("--grid", f"expected a non-negative integer, got {args.grid}")
    elif args.command == "level" and args.grid < 2:
        raise SchemaError("--grid", f"expected an integer of at least 2, got {args.grid}")
    elif args.command == "lemniscate" and args.level is not None \
            and not (math.isfinite(args.level) and args.level > 0.0):
        raise SchemaError("--level", f"expected a positive finite number, got {args.level}")


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qdsphere")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input")
    common.add_argument("--rk-tol", type=float, default=None,
                        help="integrator tolerance override")

    pa = sub.add_parser("analyze", parents=[common])
    pa.add_argument("--out", required=True)
    pa.add_argument("--seed", action="append", type=_xy_pair, default=[],
                    help="recurrence seed x,y (repeatable)")

    pr = sub.add_parser("render", parents=[common])
    pr.add_argument("--out", required=True)
    pr.add_argument("--window", type=_window_arg, default=None)
    pr.add_argument("--grid", type=int, default=0,
                    help="background trajectory field through an NxN seed grid")

    pt = sub.add_parser("trace", parents=[common])
    pt.add_argument("--from", dest="from_", required=True, type=_xy_pair)
    pt.add_argument("--length", type=float, default=None)
    pt.add_argument("--out", required=True)

    sub.add_parser("criteria", parents=[common])

    pl = sub.add_parser("level", parents=[common])
    pl.add_argument("--grid", type=int, default=65)
    pl.add_argument("--out", required=True)

    pm = sub.add_parser("lemniscate", parents=[common])
    pm.add_argument("--level", type=float, default=None)
    pm.add_argument("--out", required=True)

    pc = sub.add_parser("cauchy", parents=[common])
    pc.add_argument("--out", required=True)
    return top


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        _check_flags(args)
        spec = parse_input(args.input)
        if args.command == "analyze":
            spec.seeds.extend(args.seed)
            return cmd_analyze(spec, args.out, args)
        if args.command == "criteria":
            return cmd_criteria(spec, args)
        if args.command == "trace":
            return cmd_trace(spec, args.from_, args.length, args.out, args)
        if args.command == "render":
            return cmd_render(spec, args.out, args.window, args.grid, args)
        if args.command == "level":
            return cmd_level(spec, args.out, args.grid, args)
        if args.command == "lemniscate":
            return cmd_lemniscate(spec, args.level, args.out, args)
        if args.command == "cauchy":
            return cmd_cauchy(spec, args.out, args)
        raise SystemExit(2)
    except QdError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
