"""Command-line front end: rate curves, bound evaluation and simulation
orchestration, emitting CSV/JSON for plotting.

Every output file starts with a metadata block that records the package
version, the config block (every parsed flag value except --config and
the output paths), its sha256 and the seed. Identical invocations produce
byte-identical files, and the config block fed back through --config
reproduces the file. main times each subcommand once and writes that wall
clock to stderr only.

Exit codes: 0 success, 2 configuration error, 3 check-mode breach. A
flag that the run would ignore is a configuration error unless it holds
its default: --phi without a gauss_markov model, suen --matrices without
--check, bounds --z2-count with --z2, and --seed on curve and bounds,
which draw nothing at random. Those two keep --seed, at its default 0,
so that their config blocks, and with them their artifacts, keep their
bytes.
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
from dataclasses import asdict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, sim, theory
from .core import make_params
from .sim import SourceModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK_FAILED = 3

LN2 = math.log(2.0)

# defaults of the flags that only some of their command's runs read; any
# other value in a run that does not read the flag exits 2
_Z2_COUNT_DEFAULT = 9
_MATRICES_DEFAULT = 2000


# parsed names outside the config block: the dispatch target, the option
# file and the output destinations, so that --out a and --out b write the
# same bytes
_NOT_CONFIG = ("func", "config", "out", "trial_log")


def _metadata(args) -> Tuple[dict, str, str]:
    """The config block (every other parsed flag value), its canonical JSON
    and that JSON's sha256. Fed back through --config, the block reproduces
    the artifact."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return config, blob, hashlib.sha256(blob.encode()).hexdigest()


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv_document(args, header: str, rows: Sequence[str],
                  extra_blocks: Sequence[str] = ()) -> str:
    _, blob, digest = _metadata(args)
    lines = [f"# sparcomp {__version__}", f"# config: {blob}",
             f"# config_sha256: {digest}", f"# seed: {args.seed}",
             "# kappa_terms: 0", header, *rows]
    for block in extra_blocks:
        lines.append("")
        lines.append(block.rstrip("\n"))
    return "\n".join(lines) + "\n"


def _json_document(args, payload: dict) -> str:
    config, _, digest = _metadata(args)
    doc = {
        "meta": {
            "tool": f"sparcomp {__version__}",
            "config": config,
            "config_sha256": digest,
            "kappa_terms": 0,
        },
        **payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _add_codebook_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--sigma2", type=float, default=1.0, help="source variance")
    sub.add_argument("--D", type=float, required=True, help="target distortion")
    sub.add_argument("--rho2", type=float, default=None,
                     help="variance threshold (default: midpoint of the window)")


def _add_params_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="block length")
    sub.add_argument("--L", type=int, required=True, help="number of sections")
    sub.add_argument("--M", type=int, required=True, help="columns per section")
    _add_codebook_flags(sub)
    sub.add_argument("--allow-low-rate", action="store_true",
                     help="accept R below the covering rate (needs explicit --rho2)")


def _params_from_args(args) -> "sparcomp.core.SparcParams":
    return make_params(args.n, args.L, args.M, args.sigma2, args.D,
                       rho2=args.rho2, seed=args.seed,
                       allow_low_rate=args.allow_low_rate)


def _models_from_args(kinds: Sequence[str], args) -> List[SourceModel]:
    """The source models of kinds; --phi must be 0 unless one of them is
    gauss_markov, the only model that reads it."""
    if args.phi != 0.0 and "gauss_markov" not in kinds:
        raise ValueError("--phi applies only to the gauss_markov model")
    sigma2 = args.sigma2 if args.model_sigma2 is None else args.model_sigma2
    return [SourceModel(kind, sigma2,
                        args.phi if kind == "gauss_markov" else 0.0)
            for kind in kinds]


def _rate_disp(x: float, bits: bool) -> float:
    return x / LN2 if bits else x


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_curve(args) -> int:
    if args.seed != 0:
        raise ValueError("--seed does not apply: curve draws nothing at random")
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    x_star = theory.solve_x_star()
    grid = np.linspace(args.d_min, args.d_max, args.points)
    if not (0.0 < args.d_min < args.d_max < 1.0):
        raise ValueError("need 0 < --d-min < --d-max < 1")
    ratios = sorted(set(float(d) for d in grid) | {x_star})
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
    _emit(_csv_document(args, "d_ratio,r_shannon,r_sp,branch", rows), args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.seed != 0:
        raise ValueError("--seed does not apply: bounds draws nothing at random")
    if args.z2_count < 1:
        raise ValueError("--z2-count must be at least 1")
    if args.z2 is not None and args.z2_count != _Z2_COUNT_DEFAULT:
        raise ValueError("--z2-count sets the default grid; it cannot be "
                         "combined with --z2")
    params = _params_from_args(args)
    if args.z2 is not None:
        z2_grid = [float(v) for v in args.z2.split(",")]
    else:
        z2_grid = list(np.linspace(params.D, params.rho2, args.z2_count + 2)[1:-1])
    for z2 in z2_grid:
        if not params.D < z2 <= params.rho2:
            raise ValueError(f"z2 grid value {z2} outside (D, rho2] = "
                             f"({params.D}, {params.rho2}]")
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
        _emit(_csv_document(args, header, rows, extra_blocks=[alpha_block]), None)
    else:
        _emit(_csv_document(args, header, rows), args.out)
        _emit(_csv_document(args, "alpha,g_rho2,h_alpha", alpha_rows[1:]),
              args.out + ".alpha.csv")
    return EXIT_OK


def cmd_suen(args) -> int:
    params = _params_from_args(args)
    z2 = args.z2
    if not params.D < z2 <= params.rho2:
        raise ValueError(f"--z2 must lie in (D, rho2] = ({params.D}, {params.rho2}]")
    if not args.check and args.matrices != _MATRICES_DEFAULT:
        raise ValueError("--matrices applies only with --check")
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
        _emit(_json_document(args, payload), args.out)
        if not (check.within_second_moment and check.within_suen):
            return EXIT_CHECK_FAILED
        return EXIT_OK

    pU1, _, sm, su = sim.coverage_bounds(params, z2, args.samples, args.seed)
    header = ("z2,pU1,pU1_se,lambda,delta,Delta,t1,t2,t3,"
              "suen_bound,second_moment_bound")
    row = (f"{z2:.12g},{pU1.p:.12g},{pU1.se:.12g},{su.lam:.12g},{su.delta:.12g},"
           f"{su.Delta:.12g},{su.t1:.12g},{su.t2:.12g},{su.t3:.12g},"
           f"{su.bound:.12g},{sm:.12g}")
    _emit(_csv_document(args, header, [row]), args.out)
    return EXIT_OK


def _trial_log_document(args, report) -> str:
    rows = []
    for t in report.trials:
        dist = "nan" if t.distortion is None else f"{t.distortion:.12g}"
        rows.append(f"{t.trial},{t.source_kind},{t.z2:.12g},{t.status},{dist},"
                    f"{str(t.success).lower()}")
    return _csv_document(args, "trial,source_kind,z2,status,distortion,success", rows)


def cmd_simulate(args) -> int:
    params = _params_from_args(args)
    model = _models_from_args([args.model], args)[0]
    report = sim.run_experiment(params, model, args.trials, seed=args.seed,
                                fresh_matrix=not args.fixed_matrix)
    _emit(_json_document(args, {"report": report.to_dict()}), args.out)
    if args.trial_log:
        _emit(_trial_log_document(args, report), args.trial_log)
    scored = report.status_counts["ok"] * params.n_codewords
    print(f"simulate candidates scored: {scored}", file=sys.stderr)
    return EXIT_OK


def cmd_robustness(args) -> int:
    params = _params_from_args(args)
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    models = _models_from_args(kinds, args)
    result = sim.robustness_suite(params, models, args.trials, seed=args.seed)
    payload = {
        "baseline": result.baseline,
        "reports": {k: rep.to_dict() for k, rep in result.reports.items()},
        "conditional_success": {k: asdict(c)
                                for k, c in result.conditional.items()},
        "within_band": dict(result.within_band),
    }
    _emit(_json_document(args, payload), args.out)
    if args.trial_log:
        for key, rep in result.reports.items():
            safe = key.replace("(", "_").replace(")", "").replace(".", "p")
            _emit(_trial_log_document(args, rep), f"{args.trial_log}.{safe}.csv")
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
    model = _models_from_args([args.model], args)[0]
    trend = sim.exponent_trend(family, model, args.trials, seed=args.seed)
    _emit(_json_document(args, asdict(trend)), args.out)
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
    p.add_argument("--z2-count", type=int, default=_Z2_COUNT_DEFAULT,
                   help="size of the default interior grid (without --z2)")
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=cmd_bounds)

    p = subs.add_parser("suen", help="correlation-inequality and second-moment bounds")
    common(p)
    _add_params_flags(p)
    p.add_argument("--z2", type=float, required=True)
    p.add_argument("--samples", type=int, default=200_000,
                   help="Monte Carlo samples for the coverage probabilities")
    p.add_argument("--matrices", type=int, default=_MATRICES_DEFAULT,
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
    _add_codebook_flags(p)
    p.add_argument("--check", action="store_true",
                   help="exit 3 if the exponent sequence decreases")
    p.set_defaults(func=cmd_exponent_trend)

    return parser


def _config_file_flags(path: str, subcommand: str) -> List[str]:
    """Turn a JSON option file, such as an artifact's config block, into an
    equivalent flag list. The flags are inserted before the user's own, so
    explicitly passed flags win."""
    with open(path) as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    recorded = values.pop("subcommand", subcommand)
    if recorded != subcommand:
        raise ValueError(f"config file {path!r} is for {recorded!r}, "
                         f"not {subcommand!r}")
    flags: List[str] = []
    for key in sorted(values):
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
    flags = _config_file_flags(path, argv[sub_at])
    return argv[:sub_at + 1] + flags + argv[sub_at + 1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_config_file(raw))
        t_start = time.perf_counter()
        code = args.func(args)
    except (ValueError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.subcommand} wall clock: {time.perf_counter() - t_start:.2f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
