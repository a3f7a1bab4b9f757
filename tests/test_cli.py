"""Command-line interface: metadata headers, CSV/JSON schemas, config-file
merging, determinism of emitted files and exit-code conventions."""

import json
import math
import subprocess
import sys

import pytest

import sparcomp.theory as th
from sparcomp.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta = [l for l in text.splitlines() if l.startswith("#")]
    body = [l for l in text.splitlines() if l and not l.startswith("#")]
    return meta, body


# ---------------------------------------------------------------------------
# metadata and shared behavior
# ---------------------------------------------------------------------------

def test_metadata_block_present(capsys):
    code, out, _ = run_main(capsys, "curve", "--points", "5")
    assert code == EXIT_OK
    meta, _ = parse_csv(out)
    assert meta[0].startswith("# sparcomp ")
    assert any(l.startswith("# config: ") for l in meta)
    assert any(l.startswith("# config_sha256: ") for l in meta)
    assert any(l.startswith("# seed: ") for l in meta)
    assert any(l == "# kappa_terms: 0" for l in meta)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["curve", "--bogus"])
    assert e.value.code == 2


SIM_ARGS = ["simulate", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
            "--trials", "25"]
ROBUST_ARGS = ["robustness", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
               "--trials", "5"]
TREND_ARGS = ["exponent-trend", "--sizes", "6:2:16,9:3:16,12:4:16",
              "--D", "0.9", "--trials", "5"]


@pytest.mark.parametrize("argv", [
    ["curve", "--threads", "2"],
    SIM_ARGS + ["--format", "json"],
    ROBUST_ARGS + ["--model", "laplace_iid"],
    TREND_ARGS + ["--trial-log", "x"],
])
def test_flag_the_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_schema_and_crossover(capsys):
    code, out, _ = run_main(capsys, "curve", "--points", "50")
    assert code == EXIT_OK
    _, body = parse_csv(out)
    assert body[0] == "d_ratio,r_shannon,r_sp,branch"
    rows = [l.split(",") for l in body[1:]]
    branches = {r[3] for r in rows}
    assert branches == {"shannon", "crossover", "linear"}
    # the distinguished crossover row sits exactly at x*
    cross = [r for r in rows if r[3] == "crossover"]
    assert len(cross) == 1
    assert float(cross[0][0]) == pytest.approx(th.solve_x_star(), abs=1e-12)
    assert float(cross[0][1]) == pytest.approx(float(cross[0][2]), abs=1e-10)
    # columns strictly decreasing in d_ratio
    shannon = [float(r[1]) for r in rows]
    sp_col = [float(r[2]) for r in rows]
    assert all(b < a for a, b in zip(shannon, shannon[1:]))
    assert all(b < a for a, b in zip(sp_col, sp_col[1:]))


def test_curve_point_value(capsys):
    code, out, _ = run_main(capsys, "curve", "--points", "3",
                            "--d-min", "0.5", "--d-max", "0.6")
    _, body = parse_csv(out)
    row = [l for l in body if l.startswith("0.5,")][0].split(",")
    assert float(row[2]) == pytest.approx(0.5, abs=1e-12)


def test_curve_bits_conversion(capsys):
    _, nats, _ = run_main(capsys, "curve", "--points", "3",
                          "--d-min", "0.4", "--d-max", "0.6")
    _, bits, _ = run_main(capsys, "curve", "--points", "3",
                          "--d-min", "0.4", "--d-max", "0.6", "--bits")
    row_n = [l for l in nats.splitlines() if l.startswith("0.5,")][0].split(",")
    row_b = [l for l in bits.splitlines() if l.startswith("0.5,")][0].split(",")
    assert float(row_b[2]) == pytest.approx(float(row_n[2]) / math.log(2), abs=1e-10)


def test_curve_bad_grid_exits_2(capsys):
    code, _, err = run_main(capsys, "curve", "--d-min", "0.9", "--d-max", "0.1")
    assert code == EXIT_CONFIG and "error" in err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

BOUNDS_ARGS = ["bounds", "--n", "12", "--L", "5", "--M", "16", "--D", "0.5"]


def test_bounds_schema(capsys):
    code, out, _ = run_main(capsys, *BOUNDS_ARGS, "--z2-count", "4")
    assert code == EXIT_OK
    _, body = parse_csv(out)
    assert body[0] == "z2,f,g_at_rho2_alpha_table_ref,t_bound,b_min_rd,b_min_exp"
    rows = [l.split(",") for l in body[1:5]]
    fs = [float(r[1]) for r in rows]
    assert all(b > a for a, b in zip(fs, fs[1:]))      # f increasing in z2
    assert len({r[4] for r in rows}) == 1              # b_min constant
    assert len({r[5] for r in rows}) == 1
    # alpha companion table follows on stdout
    assert "alpha,g_rho2,h_alpha" in out


def test_bounds_values_match_library(capsys):
    code, out, _ = run_main(capsys, *BOUNDS_ARGS, "--z2", "0.8,1.0")
    _, body = parse_csv(out)
    import sparcomp as sp
    p = sp.make_params(12, 5, 16, 1.0, 0.5, seed=0)
    row = body[1].split(",")
    assert float(row[1]) == pytest.approx(th.f_rate(0.8, p.gamma2, p.D), rel=1e-10)
    assert float(row[3]) == pytest.approx(
        th.t_bound_finite_L(p, 0.8).log_bound, rel=1e-10)
    assert float(row[4]) == pytest.approx(th.b_min(p.R, p.D, p.rho2, "rd"), rel=1e-12)


def test_bounds_alpha_companion_file(tmp_path, capsys):
    out_path = tmp_path / "bounds.csv"
    code, _, _ = run_main(capsys, *BOUNDS_ARGS, "--out", str(out_path))
    assert code == EXIT_OK
    main_text = out_path.read_text()
    assert "g_at_rho2_alpha_table_ref" in main_text
    assert "bounds.csv.alpha.csv" in main_text
    side = (tmp_path / "bounds.csv.alpha.csv").read_text()
    _, body = parse_csv(side)
    assert body[0] == "alpha,g_rho2,h_alpha"
    assert len(body) == 1 + 4                           # alpha = r/L, r=1..L-1


def test_bounds_bad_z2_exits_2(capsys):
    code, _, err = run_main(capsys, *BOUNDS_ARGS, "--z2", "0.2")
    assert code == EXIT_CONFIG and "z2" in err


# ---------------------------------------------------------------------------
# suen
# ---------------------------------------------------------------------------

def test_suen_csv_row(capsys):
    code, out, err = run_main(
        capsys, "suen", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
        "--z2", "0.8", "--samples", "20000")
    assert code == EXIT_OK
    _, body = parse_csv(out)
    cols = body[0].split(",")
    assert cols == ["z2", "pU1", "pU1_se", "lambda", "delta", "Delta",
                    "t1", "t2", "t3", "suen_bound", "second_moment_bound"]
    vals = dict(zip(cols, map(float, body[1].split(","))))
    assert 0.0 <= vals["suen_bound"] <= 1.0
    assert 0.0 <= vals["second_moment_bound"] <= 1.0
    # wall clock goes to stderr, never into the artifact
    assert "wall clock" in err and "wall clock" not in out


def test_suen_check_mode_passes(capsys):
    code, out, _ = run_main(
        capsys, "suen", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
        "--z2", "0.8", "--samples", "50000", "--matrices", "300", "--check")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["within_second_moment"] is True
    assert doc["within_suen"] is True
    assert doc["meta"]["kappa_terms"] == 0


# ---------------------------------------------------------------------------
# simulate / robustness / exponent-trend
# ---------------------------------------------------------------------------

def test_simulate_json_report(capsys):
    code, out, _ = run_main(capsys, *SIM_ARGS)
    assert code == EXIT_OK
    doc = json.loads(out)
    rep = doc["report"]
    assert rep["n_trials"] == 25
    assert sum(rep["status_counts"].values()) == 25
    assert "wall_clock_s" not in rep
    assert doc["meta"]["config"]["subcommand"] == "simulate"


def test_simulate_byte_identical_and_trial_log(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    log = tmp_path / "log.csv"
    assert run_main(capsys, *SIM_ARGS, "--out", str(a), "--trial-log", str(log))[0] == 0
    assert run_main(capsys, *SIM_ARGS, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    _, body = parse_csv(log.read_text())
    assert body[0] == "trial,source_kind,z2,status,distortion,success"
    assert len(body) == 1 + 25
    statuses = {l.split(",")[3] for l in body[1:]}
    assert statuses <= {"ok", "variance_overflow", "trivial_zero"}


@pytest.mark.parametrize("argv", [SIM_ARGS, ROBUST_ARGS, TREND_ARGS])
def test_zero_model_sigma2_exits_2(capsys, argv):
    code, _, err = run_main(capsys, *argv, "--model-sigma2", "0")
    assert code == EXIT_CONFIG and "sigma2 must be positive" in err


def test_simulate_low_rate_exits_2(capsys):
    code, _, err = run_main(capsys, "simulate", "--n", "20", "--L", "3",
                            "--M", "4", "--D", "0.7", "--trials", "5")
    assert code == EXIT_CONFIG and "covering rate" in err


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"n": 12, "L": 3, "M": 4, "D": 0.7, "trials": 10, "seed": 3}))
    code, out, _ = run_main(capsys, "simulate", "--config", str(cfg))
    assert code == EXIT_OK
    assert json.loads(out)["report"]["n_trials"] == 10
    code, out, _ = run_main(capsys, "simulate", "--config", str(cfg),
                            "--trials", "4")
    assert json.loads(out)["report"]["n_trials"] == 4   # explicit flag wins


def test_config_file_null_means_default(tmp_path, capsys):
    # artifact config blocks record an unset --rho2 as null
    base = {"n": 12, "L": 3, "M": 4, "D": 0.7, "trials": 10}
    outs = []
    for name, values in (("omit", base), ("null", {**base, "rho2": None})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / f"{name}.out.json"
        assert run_main(capsys, "simulate", "--config", str(cfg),
                        "--out", str(out))[0] == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 12, "mystery_knob": 1}))
    with pytest.raises(SystemExit) as e:
        main(["simulate", "--config", str(cfg), "--L", "3", "--M", "4",
              "--D", "0.7"])
    assert e.value.code == 2
    assert "mystery-knob" in capsys.readouterr().err


def test_config_file_malformed_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    code, _, err = run_main(capsys, "simulate", "--config", str(cfg),
                            "--n", "12", "--L", "3", "--M", "4", "--D", "0.7")
    assert code == EXIT_CONFIG and "error" in err


def test_robustness_check_passes(capsys):
    code, out, _ = run_main(
        capsys, "robustness", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
        "--trials", "40", "--models", "gaussian_iid,uniform_iid", "--check")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["baseline"] == "gaussian_iid"
    assert set(doc["within_band"]) == {"gaussian_iid", "uniform_iid"}


def test_exponent_trend_subcommand(capsys):
    code, out, _ = run_main(
        capsys, "exponent-trend", "--sizes", "6:2:16,9:3:16,12:4:16",
        "--D", "0.9", "--trials", "30", "--seed", "11")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [e["n"] for e in doc["entries"]] == [6, 9, 12]
    assert doc["meta"]["config"]["sizes"] == [[6, 2, 16], [9, 3, 16], [12, 4, 16]]


def test_exponent_trend_bad_sizes_exits_2(capsys):
    code, _, err = run_main(capsys, "exponent-trend", "--sizes", "6:2",
                            "--D", "0.9", "--trials", "5")
    assert code == EXIT_CONFIG and "n:L:M" in err


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_runs():
    res = subprocess.run(
        [sys.executable, "-m", "sparcomp.cli", "curve", "--points", "4"],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert "d_ratio,r_shannon,r_sp,branch" in res.stdout
