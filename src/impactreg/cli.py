"""Batch command-line front-end.

Subcommands: ``analyze`` (impact estimates / hierarchical procedure on a
CSV), ``simulate`` (the seeded Monte Carlo study), ``figure``
(plot-data emitter for the quadratic population approximation) and
``oracle-check`` (exact population parameters of a discrete joint).

Exit codes: 0 success, 2 data/config error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .errors import (DegenerateCovariate, EmptyAfterExclusion, EmptySupport,
                     ImpactregError, InvalidConfig, InvariantViolation,
                     NonFinite, NonPositiveLogInput, OutOfRange, ParseError,
                     RankDeficient, SchemaMismatch, SingularMoments,
                     UnknownColumn, ZeroStdError)
from .hierarchy import run_hierarchy
from .impact import (linear_mean_impact, linear_mean_slope, mod_r2,
                     partial_linear_mean_impact, partial_linear_mean_slope)
from .oracle import (DiscreteJoint, constrained_sup_check, population_params,
                     quadratic_slope_closed_form)
from .simulate import TABLE_BETA, SimConfig, run_study
from .transforms import TransformSpec, apply_transforms, read_csv

SCHEMA_VERSION = 1

_DATA_ERRORS = (ParseError, SchemaMismatch, UnknownColumn, InvalidConfig,
                OutOfRange, EmptyAfterExclusion, NonPositiveLogInput,
                FileNotFoundError, IsADirectoryError, PermissionError,
                UnicodeDecodeError, json.JSONDecodeError)
_NUMERICAL_ERRORS = (RankDeficient, DegenerateCovariate, ZeroStdError,
                     SingularMoments, NonFinite, EmptySupport,
                     InvariantViolation, np.linalg.LinAlgError)


def _write_text(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_report(report):
    return json.dumps(report, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _csv_rows(header, rows):
    out = [",".join(header)]
    for row in rows:
        out.append(",".join("" if v is None else
                            (format(v, ".17g") if isinstance(v, float) else str(v))
                            for v in row))
    return "\n".join(out) + "\n"


def _number(text, what, convert=float):
    try:
        return convert(text)
    except ValueError:
        raise InvalidConfig(f"cannot parse {what} {text!r}") from None


def _load_dataset(args):
    # a malformed spec is reported before the data file is read
    if not args.transforms:
        return read_csv(args.data), []
    spec = TransformSpec.from_json(args.transforms)
    return apply_transforms(read_csv(args.data), spec)


# ---------------------------------------------------------------- analyze

def _check_analyze_flags(args, adjust):
    """Reject flag combinations that would be silently ignored."""
    if args.hierarchy:
        if args.adjust is not None:
            raise InvalidConfig(
                "--adjust cannot be combined with --hierarchy, which picks "
                "its own adjustment sets")
    else:
        for flag, given in (("--prespecified-order",
                             args.prespecified_order is not None),
                            ("--include-bivariate", args.include_bivariate)):
            if given:
                raise InvalidConfig(f"{flag} requires --hierarchy")
    for column in (args.response, args.focus):
        if column in adjust:
            raise InvalidConfig(
                f"--adjust names {column!r}, the response or the focus")
    if len(set(adjust)) != len(adjust):
        raise InvalidConfig("--adjust names a column twice")


def _cmd_analyze(args):
    adjust = [c.strip() for c in args.adjust.split(",") if c.strip()] \
        if args.adjust else []
    order = [c.strip() for c in args.prespecified_order.split(",") if c.strip()] \
        if args.prespecified_order else None
    # the flags are checked before the data file is read
    _check_analyze_flags(args, adjust)
    data, transform_log = _load_dataset(args)

    y = data.column(args.response)
    x = data.column(args.focus)
    estimates = [
        linear_mean_impact(y, x, target=args.response, focus=args.focus,
                           flavor=args.flavor, reference=args.reference),
        linear_mean_slope(y, x, signed=True, target=args.response,
                          focus=args.focus, flavor=args.flavor,
                          reference=args.reference),
        mod_r2(y, x, target=args.response, focus=args.focus),
    ]
    hierarchy = None
    if args.hierarchy:
        candidates = [c for c in data.column_names
                      if c not in (args.response, args.focus)]
        hierarchy = run_hierarchy(
            args.response, args.focus, candidates, data, alpha=args.alpha,
            include_bivariate=args.include_bivariate, ordering=order,
            flavor=args.flavor, reference=args.reference)
    elif adjust:
        estimates.append(partial_linear_mean_impact(
            args.response, args.focus, adjust, data,
            flavor=args.flavor, reference=args.reference))
        estimates.append(partial_linear_mean_slope(
            args.response, args.focus, adjust, data, signed=True,
            flavor=args.flavor, reference=args.reference))

    config = {
        "data": os.fspath(args.data),
        "response": args.response,
        "focus": args.focus,
        "adjust": adjust,
        "hierarchy": bool(args.hierarchy),
        "prespecified_order": order,
        "alpha": args.alpha,
        "flavor": args.flavor,
        "reference": args.reference,
        "include_bivariate": args.include_bivariate,
        "transforms": os.fspath(args.transforms) if args.transforms else None,
    }
    if args.format == "json":
        report = {
            "report_type": "analyze",
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "config": config,
            "transform_log": transform_log,
            "estimates": [e.as_dict() for e in estimates],
            "hierarchy": hierarchy.as_dict() if hierarchy else None,
        }
        _write_text(args.out, _json_report(report))
    else:
        header = ["kind", "target", "focus", "adjusted_for", "value",
                  "std_error", "p_value"]
        rows = []
        for e in estimates:
            rows.append([e.kind, e.target, e.focus, ";".join(e.adjusted_for),
                         float(e.value),
                         float(e.test.std_error) if e.test else None,
                         float(e.test.p_value) if e.test else None])
        if hierarchy:
            for label, p in zip(hierarchy.ordering, hierarchy.step_pvalues):
                rows.append(["hierarchy_step", args.response, args.focus,
                             label, None, None,
                             float(p) if p is not None else None])
        _write_text(args.out, _csv_rows(header, rows))
    return 0


# --------------------------------------------------------------- simulate

def _cmd_simulate(args):
    kwargs = {}
    if args.preset:
        if args.m is None:
            raise InvalidConfig("--preset requires --m")
        beta = TABLE_BETA.get(args.m)
        if beta is None:
            raise InvalidConfig(
                f"no preset beta for m={args.m}; pass --beta explicitly")
        kwargs.update(m=args.m, k=args.m - 1, beta=beta, gamma=0.0,
                      theta1=0.0 if args.preset == "table1" else 0.4)
    for name, value in [("m", args.m), ("k", args.k), ("beta", args.beta),
                        ("gamma", args.gamma), ("theta1", args.theta1),
                        ("n", args.n), ("replications", args.reps),
                        ("alpha", args.alpha), ("seed", args.seed),
                        ("include_bivariate", args.include_bivariate or None),
                        ("flavor", args.flavor), ("reference", args.reference)]:
        if value is not None:
            kwargs[name] = value
    config = SimConfig(**kwargs)
    threads = args.threads
    if threads is None:
        threads = _number(os.environ.get("IMPACTREG_THREADS", "1"),
                          "IMPACTREG_THREADS", int)
    report = run_study(config, threads=threads)

    if args.format == "json":
        payload = {
            "report_type": "simulate",
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            **report.as_dict(include_elapsed=False),
        }
        _write_text(args.out, _json_report(payload))
    else:
        d = report.as_dict(include_elapsed=False)
        cfg = d.pop("config")
        header = (list(cfg) + [k for k in d])
        row = [cfg[k] for k in cfg] + [d[k] for k in d]
        _write_text(args.out, _csv_rows(header, [row]))
    return 0


# ----------------------------------------------------------------- figure

_DIST_RE = re.compile(r"^\s*(normal|exp)\s*[:(]\s*([^)]*?)\s*\)?\s*$")


def _parse_dist(text):
    # imported here: scipy.stats costs about as much again as the whole
    # package import, which no other subcommand should pay
    from scipy import stats as sps

    m = _DIST_RE.match(text)
    if not m:
        raise InvalidConfig(f"cannot parse distribution {text!r}")
    name = m.group(1)
    params = [_number(v, "distribution parameter")
              for v in m.group(2).split(",") if v.strip()]
    if name == "normal":
        if len(params) != 2 or params[1] <= 0:
            raise InvalidConfig("normal distribution needs mu,sigma with sigma > 0")
        mu, sigma = params
        moments = {"EX": mu, "VarX": sigma ** 2, "central3": 0.0}
        density = sps.norm(loc=mu, scale=sigma).pdf
    else:
        if len(params) != 1 or params[0] <= 0:
            raise InvalidConfig("exponential distribution needs a positive rate")
        rate = params[0]
        moments = {"EX": 1.0 / rate, "VarX": 1.0 / rate ** 2,
                   "central3": 2.0 / rate ** 3}
        density = sps.expon(scale=1.0 / rate).pdf
    return name, moments, density


def _parse_g(text):
    parts = text.split(":", 1)
    if len(parts) != 2 or parts[0].strip() != "quadratic":
        raise InvalidConfig(f"cannot parse mean function {text!r} "
                            "(expected quadratic:c0,c1,c2)")
    coefs = [_number(v, "mean function coefficient")
             for v in parts[1].split(",")]
    if len(coefs) != 3:
        raise InvalidConfig("quadratic mean function needs three coefficients")
    return coefs


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidConfig(f"cannot parse grid {text!r} (expected lo:hi:steps)")
    lo, hi = _number(parts[0], "grid lo"), _number(parts[1], "grid hi")
    steps = _number(parts[2], "grid steps", int)
    if steps < 2 or not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise InvalidConfig("grid needs lo < hi and steps >= 2")
    return np.linspace(lo, hi, steps)


def figure_coefficients(moments, g_coefs):
    """(theta0, theta1) of the population linear approximation of g."""
    c0, c1, c2 = g_coefs
    theta1 = quadratic_slope_closed_form(c1, c2, moments)
    e_g = c0 + c1 * moments["EX"] + c2 * (moments["VarX"] + moments["EX"] ** 2)
    theta0 = e_g - theta1 * moments["EX"]
    return theta0, theta1


def _cmd_figure(args):
    _, moments, density = _parse_dist(args.dist)
    g_coefs = _parse_g(args.g)
    grid = _parse_grid(args.grid)
    theta0, theta1 = figure_coefficients(moments, g_coefs)
    c0, c1, c2 = g_coefs
    rows = []
    for x in grid:
        rows.append([float(x), float(c0 + c1 * x + c2 * x * x),
                     float(theta0 + theta1 * x), float(density(x))])
    _write_text(args.out, _csv_rows(["x", "g", "linear_approx", "density"],
                                    rows))
    return 0


# ----------------------------------------------------------- oracle-check

def _cmd_oracle_check(args):
    with open(args.joint, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        support = np.array(raw["support"], dtype=float)
        probs = np.array(raw["probs"], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise InvalidConfig("joint file needs numeric 'support' and 'probs' "
                            "arrays") from None
    joint = DiscreteJoint(support, probs)
    params = population_params(joint)
    sup, iota = constrained_sup_check(joint, n_cap=args.n_cap)
    report = {
        "report_type": "oracle_check",
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": {"joint": os.fspath(args.joint), "n_cap": args.n_cap},
        "mean_impact": params.mean_impact,
        "linear_impact": {str(k): v for k, v in params.linear_impact.items()},
        "partial_impact": {str(k): v for k, v in params.partial_impact.items()},
        "partial_linear_impact": {str(k): v for k, v
                                  in params.partial_linear_impact.items()},
        "mod": params.mod,
        "theta": list(params.theta),
        "constrained_sup": sup,
    }
    _write_text(args.out, _json_report(report))
    return 0


# ------------------------------------------------------------------ main

def build_parser():
    parser = argparse.ArgumentParser(prog="impactreg")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="impact estimates on a CSV dataset")
    pa.add_argument("--data", required=True)
    pa.add_argument("--response", required=True)
    pa.add_argument("--focus", required=True)
    pa.add_argument("--adjust", default=None,
                    help="comma-separated adjustment columns")
    pa.add_argument("--hierarchy", action="store_true")
    pa.add_argument("--prespecified-order", default=None)
    pa.add_argument("--include-bivariate", action="store_true")
    pa.add_argument("--alpha", type=float, default=0.05)
    pa.add_argument("--flavor", choices=["HC0", "HC1"], default="HC0")
    pa.add_argument("--reference", choices=["student_t", "normal"],
                    default="student_t")
    pa.add_argument("--transforms", default=None)
    pa.add_argument("--out", default="-")
    pa.add_argument("--format", choices=["json", "csv"], default="json")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("simulate", help="seeded Monte Carlo study")
    ps.add_argument("--preset", choices=["table1", "table2"], default=None)
    ps.add_argument("--m", type=int, default=None)
    ps.add_argument("--k", type=int, default=None)
    ps.add_argument("--beta", type=float, default=None)
    ps.add_argument("--gamma", type=float, default=None)
    ps.add_argument("--theta1", type=float, default=None)
    ps.add_argument("--n", type=int, default=None)
    ps.add_argument("--reps", type=int, default=None)
    ps.add_argument("--alpha", type=float, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--threads", type=int, default=None)
    ps.add_argument("--include-bivariate", action="store_true")
    ps.add_argument("--flavor", choices=["HC0", "HC1"], default=None)
    ps.add_argument("--reference", choices=["student_t", "normal"],
                    default=None)
    ps.add_argument("--out", default="-")
    ps.add_argument("--format", choices=["json", "csv"], default="json")
    ps.set_defaults(func=_cmd_simulate)

    pf = sub.add_parser("figure", help="plot data for the linear "
                                       "population approximation")
    pf.add_argument("--dist", required=True,
                    help="normal:mu,sigma or exp:rate")
    pf.add_argument("--g", required=True, help="quadratic:c0,c1,c2")
    pf.add_argument("--grid", required=True, help="lo:hi:steps")
    pf.add_argument("--out", default="-")
    pf.set_defaults(func=_cmd_figure)

    po = sub.add_parser("oracle-check", help="exact population parameters "
                                             "of a discrete joint (JSON)")
    po.add_argument("--joint", required=True)
    po.add_argument("--n-cap", type=int, default=10 ** 6)
    po.add_argument("--out", default="-")
    po.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"impactreg: numerical error: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"impactreg: error: {exc}", file=sys.stderr)
        return 2
    except ImpactregError as exc:
        print(f"impactreg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
