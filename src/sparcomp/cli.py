"""Command-line front end: rate curves, bound evaluation and simulation
orchestration, emitting CSV/JSON for plotting.

Every output file starts with a metadata block (package version, resolved
config and its sha256, seed) sufficient to reproduce it; identical
invocations produce byte-identical files. Timing goes to stderr only.

Exit codes: 0 success, 2 configuration error, 3 check-mode breach.
All rates are computed in nats; --bits converts displayed rate columns only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

from . import __version__, sim, theory
from .core import make_params
from .sim import SourceModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3

LN2 = math.log(2.0)


def _config_blob(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _metadata_lines(config: dict) -> List[str]:
    blob = _config_blob(config)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    return [
        f"# sparcomp {__version__}",
        f"# config: {blob}",
        f"# config_sha256: {digest}",
        f"# seed: {config.get('seed', 0)}",
        "# kappa_terms: 0",
    ]


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv_document(config: dict, header: str, rows: Sequence[str],
                  extra_blocks: Sequence[str] = ()) -> str:
    lines = _metadata_lines(config) + [header] + list(rows)
    for block in extra_blocks:
        lines.append("")
        lines.append(block.rstrip("\n"))
    return "\n".join(lines) + "\n"


def _json_document(config: dict, payload: dict) -> str:
    blob = _config_blob(config)
    doc = {
        "meta": {
            "tool": f"sparcomp {__version__}",
            "config": config,
            "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
            "kappa_terms": 0,
        },
        **payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _add_params_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="block length")
    sub.add_argument("--L", type=int, required=True, help="number of sections")
    sub.add_argument("--M", type=int, required=True, help="columns per section")
    sub.add_argument("--sigma2", type=float, default=1.0, help="source variance")
    sub.add_argument("--D", type=float, required=True, help="target distortion")
    sub.add_argument("--rho2", type=float, default=None,
                     help="variance threshold (default: midpoint of the window)")
    sub.add_argument("--allow-low-rate", action="store_true",
                     help="accept R below the covering rate (needs explicit --rho2)")


def _params_from_args(args) -> "sparcomp.core.SparcParams":
    return make_params(args.n, args.L, args.M, args.sigma2, args.D,
                       rho2=args.rho2, seed=args.seed,
                       allow_low_rate=getattr(args, "allow_low_rate", False))


def _params_config(args) -> dict:
    return {
        "n": args.n, "L": args.L, "M": args.M, "sigma2": args.sigma2,
        "D": args.D, "rho2": args.rho2, "seed": args.seed,
    }


def _model_from_args(kind: str, args) -> SourceModel:
    sigma2 = args.sigma2 if args.model_sigma2 is None else args.model_sigma2
    return SourceModel(kind, sigma2, args.phi if kind == "gauss_markov" else 0.0)


def _rate_disp(x: float, bits: bool) -> float:
    return x / LN2 if bits else x


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curve(args) -> int:
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    x_star = theory.solve_x_star()
    grid = np.linspace(args.d_min, args.d_max, args.points)
    if not (0.0 < args.d_min < args.d_max < 1.0):
        raise ValueError("need 0 < --d-min < --d-max < 1")
    ratios = sorted(set(float(d) for d in grid) | {x_star})
    config = {
        "subcommand": "curve", "points": args.points, "d_min": args.d_min,
        "d_max": args.d_max, "sigma2": args.sigma2, "units": "bits" if args.bits else "nats",
        "seed": args.seed,
    }
    rows = []
    for d in ratios:
        pt = theory.rate_point(args.sigma2, d)
        if d == x_star:
            branch = "crossover"
        elif d < x_star:
            branch = "shannon"
        else:
            branch = "linear"
        rows.append(f"{d:.12g},{_rate_disp(pt.r_shannon, args.bits):.12g},"
                    f"{_rate_disp(pt.r_sp, args.bits):.12g},{branch}")
    _emit(_csv_document(config, "d_ratio,r_shannon,r_sp,branch", rows), args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    params = _params_from_args(args)
    if args.z2 is not None:
        z2_grid = [float(v) for v in args.z2.split(",")]
    else:
        z2_grid = list(np.linspace(params.D, params.rho2, args.z2_count + 2)[1:-1])
    for z2 in z2_grid:
        if not params.D < z2 <= params.rho2:
            raise ValueError(f"z2 grid value {z2} outside (D, rho2] = "
                             f"({params.D}, {params.rho2}]")
    config = {
        "subcommand": "bounds", **_params_config(args),
        "z2_grid": [round(z, 12) for z in z2_grid],
        "units": "bits" if args.bits else "nats", "seed": args.seed,
    }
    bmin_rd = theory.b_min(params.R, params.D, params.rho2, "rd")
    bmin_exp = theory.b_min(params.R, params.D, params.rho2, "exponent")
    alpha_ref = "alpha_table" if args.out is None else \
        os.path.basename(args.out) + ".alpha.csv"
    rows = []
    for z2 in z2_grid:
        f = theory.f_rate(z2, params.gamma2, params.D)
        tb = theory.t_bound_finite_L(params, z2)
        rows.append(f"{z2:.12g},{_rate_disp(f, args.bits):.12g},{alpha_ref},"
                    f"{tb.log_bound:.12g},{bmin_rd:.12g},{bmin_exp:.12g}")

    alpha_rows = ["alpha,g_rho2,h_alpha"]
    for r in range(1, params.L):
        a = r / params.L
        g = theory.g_corr(a, params.rho2, params.gamma2, params.D)
        h = theory.h_alpha(a, params.R, params.rho2, params.D)
        alpha_rows.append(f"{a:.12g},{_rate_disp(g, args.bits):.12g},"
                          f"{_rate_disp(h, args.bits):.12g}")
    alpha_block = "\n".join(["# alpha table (g at rho2, margin h)"] + alpha_rows)

    header = "z2,f,g_at_rho2_alpha_table_ref,t_bound,b_min_rd,b_min_exp"
    if args.out is None:
        _emit(_csv_document(config, header, rows, extra_blocks=[alpha_block]), None)
    else:
        _emit(_csv_document(config, header, rows), args.out)
        _emit(_csv_document(config, "alpha,g_rho2,h_alpha", alpha_rows[1:]),
              args.out + ".alpha.csv")
    return EXIT_OK


def cmd_suen(args) -> int:
    params = _params_from_args(args)
    z2 = args.z2
    if not params.D < z2 <= params.rho2:
        raise ValueError(f"--z2 must lie in (D, rho2] = ({params.D}, {params.rho2}]")
    config = {
        "subcommand": "suen", **_params_config(args), "z2": z2,
        "samples": args.samples, "matrices": args.matrices, "check": args.check,
        "seed": args.seed,
    }
    t_start = time.perf_counter()
    if args.check:
        check = sim.validate_bounds(params, z2, args.matrices,
                                    n_prob_samples=args.samples, seed=args.seed)
        payload = {
            "z2": z2,
            "empirical_p": check.empirical_p,
            "empirical_se": check.empirical_se,
            "pU1": check.pU1.p, "pU1_se": check.pU1.se,
            "pPair": [est.p for est in check.pPair],
            "second_moment_bound": check.second_moment,
            "suen": {
                "lambda": check.suen.lam, "delta": check.suen.delta,
                "Delta": check.suen.Delta, "t1": check.suen.t1,
                "t2": check.suen.t2, "t3": check.suen.t3,
                "bound": check.suen.bound,
            },
            "within_second_moment": check.within_second_moment,
            "within_suen": check.within_suen,
        }
        _emit(_json_document(config, payload), args.out)
        print(f"validate_bounds wall clock: {time.perf_counter() - t_start:.2f}s",
              file=sys.stderr)
        if not (check.within_second_moment and check.within_suen):
            return EXIT_CHECK_FAILED
        return EXIT_OK

    pU1 = sim.estimate_pU1(params, z2, args.samples, seed=args.seed)
    pPair = [sim.estimate_pair_prob(params, z2, r, args.samples, seed=args.seed)
             for r in range(1, params.L)]
    su = theory.suen_bound(params, z2, pU1.p, [e.p for e in pPair])
    sm = theory.second_moment_bound(params, z2, pU1.p, [e.p for e in pPair])
    header = ("z2,pU1,pU1_se,lambda,delta,Delta,t1,t2,t3,"
              "suen_bound,second_moment_bound")
    row = (f"{z2:.12g},{pU1.p:.12g},{pU1.se:.12g},{su.lam:.12g},{su.delta:.12g},"
           f"{su.Delta:.12g},{su.t1:.12g},{su.t2:.12g},{su.t3:.12g},"
           f"{su.bound:.12g},{sm:.12g}")
    _emit(_csv_document(config, header, [row]), args.out)
    print(f"suen wall clock: {time.perf_counter() - t_start:.2f}s", file=sys.stderr)
    return EXIT_OK


def _trial_log_document(config: dict, report) -> str:
    rows = []
    for t in report.trials:
        dist = "nan" if t.distortion is None else f"{t.distortion:.12g}"
        rows.append(f"{t.trial},{t.source_kind},{t.z2:.12g},{t.status},{dist},"
                    f"{str(t.success).lower()}")
    return _csv_document(config, "trial,source_kind,z2,status,distortion,success", rows)


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    model = _model_from_args(args.model, args)
    config = {
        "subcommand": "simulate", **_params_config(args),
        "model": model.label, "model_sigma2": model.sigma2,
        "trials": args.trials, "fresh_matrix": not args.fixed_matrix,
        "seed": args.seed,
    }
    t_start = time.perf_counter()
    report = sim.run_experiment(params, model, args.trials, seed=args.seed,
                                fresh_matrix=not args.fixed_matrix)
    wall = time.perf_counter() - t_start
    _emit(_json_document(config, {"report": report.to_dict()}), args.out)
    if args.trial_log:
        _emit(_trial_log_document(config, report), args.trial_log)
    print(f"simulate wall clock: {wall:.2f}s, "
          f"{report.candidates_per_s:.3g} candidates/s", file=sys.stderr)
    return EXIT_OK


def cmd_robustness(args) -> int:
    params = _params_from_args(args)
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    models = [_model_from_args(k, args) for k in kinds]
    config = {
        "subcommand": "robustness", **_params_config(args),
        "models": [m.label for m in models], "trials": args.trials,
        "check": args.check, "seed": args.seed,
    }
    t_start = time.perf_counter()
    result = sim.robustness_suite(params, models, args.trials, seed=args.seed)
    payload = {
        "baseline": result.baseline,
        "reports": {k: rep.to_dict() for k, rep in result.reports.items()},
        "conditional_success": {
            k: {"n_conditioned": c.n_conditioned, "rate": c.rate, "se": c.se}
            for k, c in result.conditional.items()
        },
        "within_band": dict(result.within_band),
    }
    _emit(_json_document(config, payload), args.out)
    if args.trial_log:
        for key, rep in result.reports.items():
            safe = key.replace("(", "_").replace(")", "").replace(".", "p")
            _emit(_trial_log_document(config, rep), f"{args.trial_log}.{safe}.csv")
    print(f"robustness wall clock: {time.perf_counter() - t_start:.2f}s",
          file=sys.stderr)
    if args.check and not all(result.within_band.values()):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_exponent_trend(args) -> int:
    sizes = []
    for part in args.sizes.split(","):
        bits = part.strip().split(":")
        if len(bits) != 3:
            raise ValueError(f"--sizes entries must be n:L:M, got {part!r}")
        sizes.append(tuple(int(v) for v in bits))
    family = [make_params(n, L, M, args.sigma2, args.D, rho2=args.rho2,
                          seed=args.seed) for (n, L, M) in sizes]
    model = _model_from_args(args.model, args)
    config = {
        "subcommand": "exponent-trend", "sizes": [list(s) for s in sizes],
        "sigma2": args.sigma2, "D": args.D, "rho2": args.rho2,
        "model": model.label, "trials": args.trials, "check": args.check,
        "seed": args.seed,
    }
    t_start = time.perf_counter()
    trend = sim.exponent_trend(family, model, args.trials, seed=args.seed)
    payload = {
        "entries": [
            {"n": e.n, "L": e.L, "M": e.M, "n_trials": e.n_trials,
             "n_errors": e.n_errors, "p_error": e.p_error,
             "p_error_ci": list(e.p_error_ci), "exponent": e.exponent,
             "exponent_upper_only": e.exponent_upper_only}
            for e in trend.entries
        ],
        "slope": trend.slope, "intercept": trend.intercept,
        "r_squared": trend.r_squared,
    }
    _emit(_json_document(config, payload), args.out)
    print(f"exponent-trend wall clock: {time.perf_counter() - t_start:.2f}s",
          file=sys.stderr)
    if args.check:
        exps = [e.exponent for e in trend.entries if e.exponent is not None]
        if any(b < a for a, b in zip(exps, exps[1:])):
            return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparcomp",
        description="Sparse regression codes for lossy compression: theory "
                    "curves, covering bounds and Monte Carlo simulation.")
    parser.add_argument("--version", action="version",
                        version=f"sparcomp {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def common(sub):
        sub.add_argument("--config", type=str, default=None,
                         help="JSON file of option values; explicit flags win")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--out", type=str, default=None,
                         help="output path (default: stdout)")

    p = subs.add_parser("curve", help="rate curves vs distortion ratio")
    common(p)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--d-min", type=float, default=0.005)
    p.add_argument("--d-max", type=float, default=0.995)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--bits", action="store_true",
                   help="display rates in bits/sample (math stays in nats)")
    p.set_defaults(func=cmd_curve)

    p = subs.add_parser("bounds", help="rate function and finite-size bounds on a z2 grid")
    common(p)
    _add_params_flags(p)
    p.add_argument("--z2", type=str, default=None,
                   help="comma-separated z2 grid (default: interior grid)")
    p.add_argument("--z2-count", type=int, default=9)
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("suen", help="correlation-inequality and second-moment bounds")
    common(p)
    _add_params_flags(p)
    p.add_argument("--z2", type=float, required=True)
    p.add_argument("--samples", type=int, default=200_000,
                   help="Monte Carlo samples for the coverage probabilities")
    p.add_argument("--matrices", type=int, default=2000,
                   help="matrix draws for --check")
    p.add_argument("--check", action="store_true",
                   help="validate bounds empirically; exit 3 on breach")
    p.set_defaults(func=cmd_suen)

    def sim_common(sub):
        sub.add_argument("--model-sigma2", type=float, default=None,
                         help="source variance (default: codebook sigma2)")
        sub.add_argument("--phi", type=float, default=0.0,
                         help="AR(1) coefficient for gauss_markov")
        sub.add_argument("--trials", type=int, default=500)

    p = subs.add_parser("simulate", help="Monte Carlo error-probability experiment")
    common(p)
    _add_params_flags(p)
    sim_common(p)
    p.add_argument("--model", choices=sim.SOURCE_KINDS, default="gaussian_iid")
    p.add_argument("--trial-log", type=str, default=None,
                   help="write per-trial CSV log to this path")
    p.add_argument("--fixed-matrix", action="store_true",
                   help="reuse one matrix for all trials instead of redrawing")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("robustness", help="conditional success across source models")
    common(p)
    _add_params_flags(p)
    sim_common(p)
    p.add_argument("--trial-log", type=str, default=None,
                   help="write per-model trial CSV logs to PATH.<model>.csv")
    p.add_argument("--models", type=str,
                   default="gaussian_iid,laplace_iid,uniform_iid,gauss_markov")
    p.add_argument("--check", action="store_true",
                   help="exit 3 if any model leaves the joint 3-SE band")
    p.set_defaults(func=cmd_robustness)

    p = subs.add_parser("exponent-trend", help="error exponent estimates across sizes")
    common(p)
    sim_common(p)
    p.add_argument("--model", choices=sim.SOURCE_KINDS, default="gaussian_iid")
    p.add_argument("--sizes", type=str, required=True,
                   help="comma-separated n:L:M family sharing (R, D)")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--rho2", type=float, default=None)
    p.add_argument("--check", action="store_true",
                   help="exit 3 if the exponent sequence decreases")
    p.set_defaults(func=cmd_exponent_trend)

    return parser


def _config_file_flags(path: str) -> List[str]:
    """Turn a JSON option file into an equivalent flag list. The flags are
    inserted before the user's own, so explicitly passed flags win."""
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    flags: List[str] = []
    for key in sorted(values):
        if key in ("subcommand", "config"):
            continue
        flag = "--" + key.replace("_", "-")
        value = values[key]
        if value is None:
            continue    # JSON null: the flag's default, as artifacts record it
        if isinstance(value, bool):
            if value:
                flags.append(flag)
        else:
            flags.extend([flag, str(value)])
    return flags


def _merge_config_file(argv: List[str]) -> List[str]:
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    sub_at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if sub_at is None:
        return argv
    return argv[:sub_at + 1] + _config_file_flags(path) + argv[sub_at + 1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_config_file(raw))
        return args.func(args)
    except (ValueError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
