"""Command-line entry point: config-driven runs with JSON/CSV/SVG outputs.

Exit codes: 0 success, 2 configuration error, 3 solver failure or a problem
the solvers do not take (`ProblemError`, `PressureError`).  A malformed config
or flag, a flag its command does not take, or an output path whose directory
does not exist, exits 2 naming the key or flag before any work is done, and
never produces a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import json
import os
import sys

import numpy as np

from . import rotations, studies, svgplot
from .config import NUMBER, POSITIVE, SCHEMA, ConfigError, Rule, RunContext, load_config
from .geometry import build_domain
from .linear_solver import ProblemError, SolverError
from .material import wrap_angle
from .pressure import PressureError
from .studies import StudyReport, extract_rotation, multistart_minimize, rescaled_displacement

# The one table of commands: each with the flags it takes beyond --config, --out,
# --csv, --svg and --seed, and their argparse options.  `main` builds its parser
# from it, and `_dispatch` rejects by it a flag that a `run` call passes to a
# command that does not take it, as the parser does.
COMMANDS = {
    "scan-rotations": {},
    "solve-linear": {"alpha0": {"default": "auto"}},
    "solve-nonlinear": {"eps": {"type": float}},
    "gamma-study": {}, "refined-study": {}, "lambda-study": {},
}
_COMMAND_FLAGS = [flag for flags in COMMANDS.values() for flag in flags]


def _emit_json(path: str | None, command: str, ctx: RunContext, result: dict) -> None:
    if path is None:
        return
    doc = {
        "schema": "pressurelab/run-v1",
        "command": command,
        "config": ctx.config,
        "config_hash": ctx.hash,
        "meta": {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()},
        "result": result,
    }
    text = json.dumps(doc, sort_keys=True, allow_nan=False)  # one line by json's C encoder; no NaN or Infinity
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _emit_csv(path: str | None, columns: list[str], rows: list[dict]) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _flag(name: str, value, rule: Rule):
    """The value of a command-line flag, checked with the rule of the config key it stands in for."""
    with contextlib.suppress(ValueError):  # --alpha0 arrives as text
        value = float(value) if isinstance(value, str) else value
    if not rule.test(value):
        raise ConfigError(f"{name} must be {rule.text}")
    return value


def _scan_rotations(ctx: RunContext, args) -> dict:
    grid = ctx.plan.rotation_grid
    mesh = build_domain(ctx.domain)  # the scan needs no problem: neither the solvers' field nor a factor
    pi = ctx.pressure
    optimal = rotations.find_optimal_rotations(mesh, pi, grid_n=grid)
    alphas = 2.0 * np.pi * np.arange(grid) / grid
    values = optimal.grid_values
    residuals, second = rotations.boundary_profile(mesh, pi, alphas)
    seconds = [None] * grid if second is None else second.tolist()  # undefined off C^2
    rows = [
        {"alpha": a, "functional_value": v, "el_residual": r, "second_variation_unit": s}
        for a, v, r, s in zip(alphas.tolist(), values.tolist(), residuals.tolist(), seconds)
    ]
    _emit_csv(args.csv, list(rows[0]), rows)
    if args.svg:
        svgplot.polar_chart(args.svg, alphas, values, title="rotation functional")
    return {
        "grid": grid,
        "rows": rows,
        "optimal": {
            "angles": list(optimal.angles),
            "arcs": [list(a) for a in optimal.arcs],
            "min_value": optimal.min_value,
            "value_tolerance": optimal.value_tolerance,
            "grid_step": optimal.grid_step,
        },
    }


def _solve_linear(ctx: RunContext, args) -> dict:
    problem = ctx.problem()
    if args.alpha0 in (None, "auto"):
        optimal = rotations.find_optimal_rotations(problem.mesh, problem.pi, grid_n=ctx.plan.rotation_grid)
        angles = optimal.sample_angles(per_arc=ctx.plan.arc_samples)
    else:
        angles = [wrap_angle(_flag("--alpha0", args.alpha0, NUMBER))]
    e0, alpha0, u, _, rot_load = studies.minimize_limit_energy(problem, angles)
    return {
        "alpha0": float(alpha0),
        "E0": float(e0),
        "rotation_load_component": float(rot_load),
        "gauge": "zero_skew_mean",
        "u_nodal": u.tolist(),
    }


def _solve_nonlinear(ctx: RunContext, args) -> dict:
    problem = ctx.problem()
    eps = ctx.plan.eps_list[0] if args.eps is None else float(_flag("--eps", args.eps, POSITIVE))
    y, diag, table = multistart_minimize(problem, eps, ctx.plan)
    alpha = extract_rotation(problem.mesh, y)
    u = rescaled_displacement(problem.mesh, y, alpha, eps)
    diagnostics = dataclasses.asdict(diag)
    energy = diagnostics.pop("energy")  # reported beside eps, not among the diagnostics
    return {
        "eps": eps,
        "energy": energy,
        "energy_over_eps2": energy / eps ** 2,
        "diagnostics": diagnostics,
        "starts": table,
        "alpha_extracted": alpha,
        "y_nodal": y.tolist(),
        "u_nodal": u.tolist(),
    }


# the study of each "<kind>-study" command, looked up in `studies` when it runs
_STUDIES = {"gamma": "gamma_study", "refined": "refined_study", "lambda": "almost_minimizer_scaling"}


def _run_study(ctx: RunContext, kind: str) -> StudyReport:
    """The study of `kind` at each of the config's resolutions, with each row labelled by its resolution."""
    merged = StudyReport()
    for res in ctx.study_resolutions:
        rep = getattr(studies, _STUDIES[kind])(ctx.problem(res), ctx.plan)
        merged.rows.extend({"resolution": res, **row} for row in rep.rows)
        merged.limits[str(res)] = rep.limits
    return merged


def _study_command(ctx: RunContext, args, kind: str) -> dict:
    report = _run_study(ctx, kind)
    rows = [{k: v for k, v in row.items() if not isinstance(v, (list, dict))} for row in report.rows]
    _emit_csv(args.csv, list(rows[0]), rows)
    if args.svg and kind == "gamma":
        eps = sorted({row["eps"] for row in report.rows}, reverse=True)
        series = {}
        for res in ctx.study_resolutions:
            series[f"res {res}"] = [r["energy_over_eps2"] for r in report.rows if r["resolution"] == res]
            series[f"limit {res}"] = [report.limits[str(res)]["min_E0"]] * len(eps)
        svgplot.line_chart(args.svg, eps, series, title="rescaled minima vs limit",
                           xlabel="eps", ylabel="E/eps^2", logx=True)
    elif args.svg:
        eps = [row["eps"] for row in report.rows]
        key = "offset_scaled" if kind == "refined" else "remainder_over_target"
        svgplot.line_chart(args.svg, eps, {key: [row[key] for row in report.rows]},
                           title=f"{kind} study", xlabel="eps", ylabel=key, logx=True)
    return dataclasses.asdict(report)


def run(command: str, config_path: str, *, out: str | None = None, csv_path: str | None = None,
        svg: str | None = None, eps: float | None = None, alpha0: str | None = None,
        seed: int | None = None) -> int:
    """Programmatic equivalent of the command line; returns the exit status."""
    ns = argparse.Namespace(out=out, csv=csv_path, svg=svg, eps=eps, alpha0=alpha0, seed=seed)
    return _dispatch(command, config_path, ns)


def _check_outputs(args) -> None:
    """Check that the directory of every output path exists before any work is done."""
    for attr in ("out", "csv", "svg"):
        path = getattr(args, attr)
        if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"the directory of --{attr} {path!r} does not exist")


def _dispatch(command: str, config_path: str, args) -> int:
    if command not in COMMANDS:  # before any work on the config
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    for flag in _COMMAND_FLAGS:  # as argparse does on the command line
        if getattr(args, flag) is not None and flag not in COMMANDS[command]:
            print(f"error: {command} does not take --{flag}", file=sys.stderr)
            return 2
    try:
        cfg = load_config(config_path)
        if args.seed is not None and isinstance(cfg, dict):  # RunContext rejects a non-object
            cfg["seed"] = _flag("--seed", args.seed, SCHEMA["seed"][0])
        ctx = RunContext.from_config(cfg)
        _check_outputs(args)
        handler = {"scan-rotations": _scan_rotations, "solve-linear": _solve_linear,
                   "solve-nonlinear": _solve_nonlinear}.get(command)
        if handler is not None:
            result = handler(ctx, args)
        else:  # the three studies, "<kind>-study"
            result = _study_command(ctx, args, command[:-len("-study")])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ProblemError, PressureError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    _emit_json(args.out, command, ctx, result)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pressurelab",
                                     description="pressure-loaded planar elasticity laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        for flag in ("--out", "--csv", "--svg"):
            p.add_argument(flag)
        p.add_argument("--seed", type=int)
        p.set_defaults(**dict.fromkeys(_COMMAND_FLAGS))  # None for each flag it does not take
        for flag, options in flags.items():
            p.add_argument(f"--{flag}", **options)
    args = parser.parse_args(argv)
    return _dispatch(args.command, args.config, args)


if __name__ == "__main__":
    sys.exit(main())
