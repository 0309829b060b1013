"""Command line front end: analyze, render, trace, criteria, level,
lemniscate, cauchy. JSON in, JSON/SVG out, deterministic for a fixed seed.

Exit codes: 0 when a certificate or supported verdict exists, 10 when
everything is inconclusive (or a pairing / short-trajectory prerequisite
fails), 20 when a recurrent trajectory is suspected, 1 on errors.

Each subparser names its command function (`run`) and the input form it
requires (`form`); `main` checks the flags and the form, builds the
differential and the trace options, runs the command and writes what it
returns: a dict as a JSON report, a string (SVG) as it is.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, level
from .errors import EmptyLevel, QdError, SchemaError
from .criteria import count_rows, overall_verdict, run_all, traced_rows, CERTIFIED, SUPPORTED
from .graph import (PairingFailure, build_critical_graph, detect_recurrence,
                    pair_zeros_by_short_trajectories, K_MIN_DEFAULT)
from .level import level_grid, residue_obstruction, verify_level
from .lemniscate import analyze_lemniscate, lemniscate_level_curve
from .qdiff import critical_points, measure_mass, order_at_infinity
from .specfile import build_qd, parse_input, parse_point, parse_positive
from .svg import SvgCanvas
from .tracer import TraceOptions, trace_horizontal

# cli calls level_function no more; perfbench/tracing.py (TARGETS) wraps it here by name
level_function = level.level_function

EXIT_OK = 0
EXIT_INCONCLUSIVE = 10
EXIT_RECURRENT = 20
MAX_GRID = 1024             # --grid of render and level: at most MAX_GRID^2 rays or samples


def _jsonable(v):
    """v for json.dumps: complex as [re, im], arrays and tuples as lists, an
    infinite float as "inf"."""
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


def _report(**fields) -> dict:
    return {"format_version": 1, "tool_version": __version__, **fields}


def _options(qd, spec) -> TraceOptions:
    """The trace options: the file's window and budgets over the defaults."""
    return TraceOptions.for_qd(qd, window=spec.window, **spec.budgets)


def _tolerances(opts: TraceOptions) -> dict:
    return {"rk_tol": opts.rk_tol, "snap_radius": opts.snap_radius,
            "max_phi_length": opts.max_phi_length, "max_steps": opts.max_steps,
            "k_min": K_MIN_DEFAULT}


def _cp_row(cp) -> dict:
    return {"at": cp.at, "order": cp.signed_order, "quadratic_residue": cp.quadratic_residue}


def _criteria_rows(verdicts) -> list:
    return [{"criterion": v.criterion, "verdict": v.verdict, "evidence": v.evidence}
            for v in verdicts]


def cmd_analyze(spec, qd, opts, args):
    cps = critical_points(qd)
    graph = build_critical_graph(qd, opts)
    shorts = [e for e in graph.edges if e.is_short]
    verdicts = run_all(qd, opts, graph=graph)

    recurrence = []
    for z0 in spec.seeds:
        rep = detect_recurrence(qd, z0, opts)
        recurrence.append({
            "seed": z0,
            "verdict": rep.verdict,
            "crossings": rep.crossings,
            "closed": rep.closed,
            "reason": rep.reason,
            "ray_termination": rep.ray.termination.kind,
            "work": rep.ray.work,
        })

    report = _report(
        input=spec.defaults_echo(),
        order_at_infinity=order_at_infinity(qd),
        critical_points=[_cp_row(c) for c in cps],
        edges=[{
            "from": e.from_node, "to": e.to_node,
            "phi_length": e.phi_length, "short": e.is_short,
            "points": len(e.polyline),
        } for e in graph.edges],
        short_trajectories=[{
            "from": e.from_node, "to": e.to_node,
            "phi_length": e.phi_length,
            "polyline": e.polyline[:: max(1, len(e.polyline) // 64)],
        } for e in shorts],
        unresolved_rays=len(graph.unresolved),
        criteria=_criteria_rows(verdicts),
        overall=overall_verdict(verdicts),
        recurrence=recurrence,
        timings={"unit": "integrator_steps", "graph": graph.work,
                 "recurrence": [r["work"] for r in recurrence]},
        tolerances=_tolerances(opts),
    )
    if any(r["verdict"] == "SuspectedRecurrent" for r in recurrence):
        return EXIT_RECURRENT, report
    if report["overall"] in (CERTIFIED, SUPPORTED):
        return EXIT_OK, report
    return EXIT_INCONCLUSIVE, report


def cmd_criteria(spec, qd, opts, args):
    """The count rows first: when one certifies, no traced row can change the
    verdict, so the critical graph is not built and the report names the rows
    not run and the row that decided. Otherwise every row, as run_all gives them."""
    verdicts, extra = count_rows(qd), {}
    decided = [v.criterion for v in verdicts if v.verdict == CERTIFIED]
    if decided:
        extra["not_run"] = {"criteria": traced_rows(qd), "decided_by": decided[0]}
    else:
        verdicts = run_all(qd, opts)
    overall = overall_verdict(verdicts)
    code = EXIT_OK if overall in (CERTIFIED, SUPPORTED) else EXIT_INCONCLUSIVE
    return code, _report(criteria=_criteria_rows(verdicts), overall=overall, **extra)


def cmd_trace(spec, qd, opts, args):
    z0 = args.from_
    ray = trace_horizontal(qd, z0, opts=opts)
    return EXIT_OK, _report(
        seed=z0,
        points=ray.points,
        taus=ray.taus,
        phi_length=ray.phi_length,
        imag_drift=ray.imag_drift,
        termination={"kind": ray.termination.kind,
                     "cp_index": ray.termination.cp_index,
                     "incoming_angle": ray.termination.incoming_angle},
        work=ray.work,
        tolerances=_tolerances(opts),
    )


def cmd_render(spec, qd, opts, args):
    """The trajectory picture; for a lemniscate form input, its level curves."""
    win = opts.window
    canvas = SvgCanvas(win)
    if spec.kind == "lemniscate":
        _render_lemniscate(spec, qd, canvas, win, args.level)
        return EXIT_OK, canvas.text()
    if args.grid:
        _render_background(qd, canvas, win, args.grid, opts)
    graph = build_critical_graph(qd, opts)
    for e in graph.edges:
        if not e.is_short:
            canvas.polyline(e.polyline, "traj")
    for ray in graph.unresolved:
        canvas.polyline(_thinned(ray.points, 4000), "traj")
    for e in graph.edges:
        if e.is_short:
            canvas.polyline(e.polyline, "short")
    for c in qd.zeros:
        canvas.dot(c.location, "zero")
    for c in qd.poles:
        canvas.cross(c.location, "pole")
    return EXIT_OK, canvas.text()


def _render_background(qd, canvas, win, n, opts):
    x0, y0, x1, y1 = win
    bg_opts = opts.replace(max_phi_length=min(opts.max_phi_length, 60.0))
    grid = [complex(x, y) for y in np.linspace(y0, y1, n + 2)[1:-1]
            for x in np.linspace(x0, x1, n + 2)[1:-1]]
    for z in qd.clear_of_critical(grid):
        for orientation in (1, -1):
            ray = trace_horizontal(qd, z, orientation, bg_opts)
            canvas.polyline(_thinned(ray.points, 400), "bg")


def _thinned(points, most):
    """Every take-th point of a polyline from the first, take = max(1, len // most), and its
    last point, where the ray closed or left the window."""
    points = np.asarray(points)
    take = max(1, len(points) // most)
    return np.concatenate((points[:-1:take], points[-1:]))


def _render_lemniscate(spec, qd, canvas, win, level):
    p, q = spec.polys["p"], spec.polys["q"]
    rep = analyze_lemniscate(p, q, 0, qd=qd)
    main = level if level is not None else (
        max(rep.critical_levels) if rep.critical_levels else 1.0)
    for c in sorted({0.45 * main, 0.75 * main, 1.6 * main, 2.6 * main}):
        try:
            for poly in lemniscate_level_curve(p, q, c, win, qd):
                canvas.polyline(poly, "bg")
        except EmptyLevel:
            pass
    for poly in lemniscate_level_curve(p, q, main, win, qd):
        canvas.polyline(poly, "level")
    for z in rep.finite_critical_points:
        canvas.dot(z, "zero")
    for b, _qr in rep.double_poles:
        if b is not None:
            canvas.cross(b, "pole")


def cmd_level(spec, qd, opts, args):
    win = opts.window
    pairing = pair_zeros_by_short_trajectories(qd, opts)
    obstruction = residue_obstruction(qd)
    if isinstance(pairing, PairingFailure):
        return EXIT_INCONCLUSIVE, _report(
            pairing_failure={"unmatched": pairing.unmatched,
                             "locations": pairing.locations,
                             "reason": pairing.reason},
            obstruction=obstruction,
            input=spec.defaults_echo(),
        )
    if obstruction is not None:
        return EXIT_INCONCLUSIVE, _report(obstruction=obstruction, input=spec.defaults_echo())
    field = level_grid(qd, pairing, win, args.grid)
    verification = verify_level(field, _level_rays(qd, spec, win, opts))
    return EXIT_OK, _report(
        base_point=field.base_point,
        window=field.window,
        n=field.n,
        grid=[[None if field.undefined_mask[iy, ix] else float(field.grid[iy, ix])
               for ix in range(field.n)] for iy in range(field.n)],
        cuts=field.cuts,
        pairing={"pairs": pairing.pairs, "method": pairing.method},
        verification={"passed_i": verification.passed_i,
                      "passed_ii": verification.passed_ii,
                      "passed_iii": verification.passed_iii,
                      "details": verification.details},
        input=spec.defaults_echo(),
        tolerances=_tolerances(opts),
    )


def _level_rays(qd, spec, win, opts):
    seeds = list(spec.seeds)
    if not seeds:
        x0, y0, x1, y1 = win
        ctr = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
        diag = complex(x1, y1) - ctr
        seeds = qd.clear_of_critical([ctr + t * diag for t in np.linspace(0.3, 0.8, 12)])[:3]
    return [trace_horizontal(qd, z, opts=opts) for z in seeds]


def cmd_cauchy(spec, qd, opts, args):
    graph = build_critical_graph(qd, opts)
    shorts = [e for e in graph.edges if e.is_short]
    if not shorts:
        return EXIT_INCONCLUSIVE, _report(
            error="NoShortTrajectory",
            edges=[{"from": e.from_node, "to": e.to_node,
                    "phi_length": e.phi_length} for e in graph.edges],
            input=spec.defaults_echo(),
        )
    components = []
    total = 0.0
    for e in shorts:
        mass = measure_mass(qd, e.polyline)
        total += mass
        components.append({
            "endpoints": [graph.nodes[e.from_node].at, graph.nodes[e.to_node].at],
            "mass": mass,
            "phi_length": e.phi_length,
        })
    return EXIT_OK, _report(
        components=components,
        total_mass=total,
        support=sorted({z for c in components for z in c["endpoints"]},
                       key=lambda z: (z.real, z.imag)),
        input=spec.defaults_echo(),
        tolerances=_tolerances(opts),
    )


def _xy_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected x,y")
    return complex(float(parts[0]), float(parts[1]))


def _check_flags(args) -> None:
    """Reject flag values that parse but that no command can use."""
    if getattr(args, "level", None) is not None:
        parse_positive(args.level, "--level")
    if getattr(args, "from_", None) is not None:
        parse_point([args.from_.real, args.from_.imag], "--from")
    if not args.min_grid <= getattr(args, "grid", args.min_grid) <= MAX_GRID:
        raise SchemaError("--grid", f"expected an integer from {args.min_grid} to {MAX_GRID}, "
                                    f"got {args.grid}")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept."""
    top = argparse.ArgumentParser(prog="qdsphere")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input")
    common.set_defaults(form=None, min_grid=0)
    to_file = argparse.ArgumentParser(add_help=False, parents=[common])
    to_file.add_argument("--out", required=True)

    sub.add_parser("analyze", parents=[to_file]).set_defaults(run=cmd_analyze)

    pr = sub.add_parser("render", parents=[to_file])
    pr.add_argument("--grid", type=int, default=0,
                    help="background trajectory field through an NxN seed grid")
    pr.set_defaults(run=cmd_render, level=None)

    pt = sub.add_parser("trace", parents=[to_file])
    pt.add_argument("--from", dest="from_", required=True, type=_xy_pair)
    pt.set_defaults(run=cmd_trace)

    sub.add_parser("criteria", parents=[common]).set_defaults(run=cmd_criteria, out=None)

    pl = sub.add_parser("level", parents=[to_file])
    pl.add_argument("--grid", type=int, default=65)
    pl.set_defaults(run=cmd_level, form="p_over_q_squared", min_grid=2)

    pm = sub.add_parser("lemniscate", parents=[to_file])
    pm.add_argument("--level", type=float, default=None)
    pm.set_defaults(run=cmd_render, form="lemniscate")

    sub.add_parser("cauchy", parents=[to_file]).set_defaults(run=cmd_cauchy, form="cauchy")
    return top


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        _check_flags(args)
        spec = parse_input(args.input)
        if args.form is not None and spec.kind != args.form:
            raise SchemaError("$", f"the {args.command} command needs a {args.form} form input")
        qd = build_qd(spec)
        code, result = args.run(spec, qd, _options(qd, spec), args)
        if isinstance(result, dict):
            result = json.dumps(_jsonable(result), sort_keys=True, indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(result)
            return code
        try:
            with open(args.out, "w") as fh:
                fh.write(result)
        except OSError as e:
            raise SchemaError("--out", f"{args.out}: {e.strerror or e}") from e
        return code
    except QdError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
