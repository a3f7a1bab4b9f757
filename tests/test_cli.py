"""Command-line interface: metadata headers, CSV/JSON schemas, config-file
merging, determinism of emitted files and exit-code conventions."""

import hashlib
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


def test_each_subcommand_times_itself_once_on_stderr(capsys):
    runs = [
        ["curve", "--points", "5"],
        ["bounds", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
         "--z2-count", "2"],
        ["suen", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
         "--z2", "0.8", "--samples", "2000"],
        SIM_ARGS, ROBUST_ARGS, TREND_ARGS,
    ]
    for argv in runs:
        code, out, err = run_main(capsys, *argv)
        assert code == EXIT_OK
        clock = [l for l in err.splitlines() if "wall clock" in l]
        assert len(clock) == 1 and clock[0].startswith(f"{argv[0]} wall clock: ")
        assert "wall clock" not in out
        if argv[0] == "simulate":
            rep = json.loads(out)["report"]
            assert not any("clock" in k or "_per_s" in k for k in rep)
            ok = rep["status_counts"]["ok"]
            assert f"simulate candidates scored: {ok * 4 ** 3}" in err.splitlines()


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


def test_suen_and_suen_check_report_the_same_bounds(capsys):
    # both paths take pU1 and the two bounds from sim.coverage_bounds, so
    # at one seed and sample count they agree to the CSV's 12 digits
    argv = ["suen", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
            "--z2", "0.8", "--samples", "3000", "--seed", "5"]
    code, out, _ = run_main(capsys, *argv)
    assert code == EXIT_OK
    _, body = parse_csv(out)
    row = dict(zip(body[0].split(","), body[1].split(",")))
    code, out, _ = run_main(capsys, *argv, "--matrices", "20", "--check")
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    doc = json.loads(out)
    for csv_key, value in [("pU1", doc["pU1"]),
                           ("second_moment_bound", doc["second_moment_bound"]),
                           ("suen_bound", doc["suen"]["bound"])]:
        assert row[csv_key] == f"{value:.12g}"


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
    assert doc["meta"]["config"]["sizes"] == "6:2:16,9:3:16,12:4:16"


def test_exponent_trend_bad_sizes_exits_2(capsys):
    code, _, err = run_main(capsys, "exponent-trend", "--sizes", "6:2",
                            "--D", "0.9", "--trials", "5")
    assert code == EXIT_CONFIG and "n:L:M" in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(BOUNDS_ARGS + ["--z2-count", "0"],
                 "--z2-count must be at least 1", id="bounds_empty_grid"),
    pytest.param(ROBUST_ARGS + ["--models", "gaussian_iid,gaussian_iid,uniform_iid"],
                 "repeated source model", id="robustness_repeated_model"),
])
def test_out_of_range_option_exits_2(capsys, argv, message):
    code, out, err = run_main(capsys, *argv)
    assert code == EXIT_CONFIG and message in err and out == ""


@pytest.mark.parametrize("argv, message", [
    pytest.param(SIM_ARGS + ["--phi", "0.5"], "--phi", id="simulate_phi"),
    pytest.param(ROBUST_ARGS + ["--models", "gaussian_iid,laplace_iid",
                                "--phi", "0.5"], "--phi", id="robustness_phi"),
    pytest.param(TREND_ARGS + ["--phi", "0.5"], "--phi", id="trend_phi"),
    pytest.param(["suen", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
                  "--z2", "0.8", "--samples", "2000", "--matrices", "7"],
                 "--matrices", id="suen_matrices_without_check"),
    pytest.param(BOUNDS_ARGS + ["--z2", "0.8", "--z2-count", "3"],
                 "--z2-count", id="bounds_z2_count_with_z2"),
    pytest.param(["curve", "--points", "5", "--seed", "5"], "--seed",
                 id="curve_seed"),
    pytest.param(BOUNDS_ARGS + ["--seed", "5"], "--seed", id="bounds_seed"),
])
def test_flag_the_run_would_ignore_exits_2(capsys, argv, message):
    # each run would otherwise write the payload of the flag's default under
    # another config_sha256
    code, out, err = run_main(capsys, *argv)
    assert code == EXIT_CONFIG and message in err and out == ""


def test_phi_is_accepted_when_one_model_is_gauss_markov(capsys):
    # the default --models list ends with gauss_markov
    assert run_main(capsys, *ROBUST_ARGS, "--phi", "0.5")[0] == EXIT_OK


@pytest.mark.parametrize("argv", [ROBUST_ARGS, TREND_ARGS])
def test_model_sigma2_enters_config_sha256(capsys, argv):
    digests = set()
    for value in ("1.0", "0.5"):
        code, out, _ = run_main(capsys, *argv, "--model-sigma2", value)
        assert code == EXIT_OK
        digests.add(json.loads(out)["meta"]["config_sha256"])
    assert len(digests) == 2


# ---------------------------------------------------------------------------
# the config block reproduces its artifact
# ---------------------------------------------------------------------------

SUEN_ARGS = ["suen", "--n", "12", "--L", "3", "--M", "4", "--D", "0.7",
             "--z2", "0.8", "--samples", "2000"]


def config_block(text):
    if text.startswith("{"):
        return json.loads(text)["meta"]["config"]
    line = next(l for l in text.splitlines() if l.startswith("# config: "))
    return json.loads(line[len("# config: "):])


ARTIFACT_RUNS = {
    "curve_bits": ["curve", "--points", "5", "--bits"],
    "bounds_z2": BOUNDS_ARGS + ["--z2", "0.8,1.0"],
    "bounds_default_grid": BOUNDS_ARGS,
    "suen": SUEN_ARGS,
    "suen_check": SUEN_ARGS + ["--matrices", "20", "--check"],
    "simulate": SIM_ARGS + ["--model", "gauss_markov", "--phi", "0.7",
                            "--fixed-matrix", "--model-sigma2", "0.9"],
    "robustness": ROBUST_ARGS,
    "exponent_trend": TREND_ARGS,
}


def write_artifacts(capsys, where, argv):
    """Run argv with its outputs in the directory where; return the bytes of
    every file written, by name."""
    where.mkdir()
    outputs = ["--out", str(where / "out")]
    if argv[0] in ("simulate", "robustness"):
        outputs += ["--trial-log", str(where / "log")]
    assert run_main(capsys, *argv, *outputs)[0] == EXIT_OK
    return {p.name: p.read_bytes() for p in where.iterdir()}


@pytest.mark.parametrize("argv", [pytest.param(argv, id=key)
                                  for key, argv in ARTIFACT_RUNS.items()])
def test_config_block_reproduces_artifact(tmp_path, capsys, argv):
    # the replay gets only the recorded block and the same output names (a
    # bounds row names its alpha file)
    first = write_artifacts(capsys, tmp_path / "first", argv)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config_block(first["out"].decode())))
    replay = write_artifacts(capsys, tmp_path / "replay",
                             [argv[0], "--config", str(cfg)])
    assert replay == first


# sha256 of every file each run writes, recorded from the code before the
# encoder's section sums and scorer batching were merged; the two larger
# simulate runs reach the float32 kernel, its window rescore and both
# layouts of the outer section sums
GOLDEN_RUNS = {
    **ARTIFACT_RUNS,
    "simulate_14_6_16": ["simulate", "--n", "14", "--L", "6", "--M", "16",
                         "--D", "0.3", "--trials", "5"],
    "simulate_16_3_256": ["simulate", "--n", "16", "--L", "3", "--M", "256",
                          "--D", "0.278193", "--rho2", "2.0", "--trials", "3"],
    # every plan at this shape projects, and each trial's four sources
    # share one matrix
    "robustness_14_6_16": ["robustness", "--n", "14", "--L", "6", "--M", "16",
                           "--D", "0.3", "--trials", "5"],
}
GOLDEN_DIGESTS = {
    "curve_bits/out":
        "7c60eaa48e25d7d709b1d4d57a50ae730c4e3ddbae981cf2449763b20b6b9f41",
    "bounds_z2/out":
        "f1c38372b1620464003ced97e2ed6289518b8d86a06ab5d0243ce8f18d9e29e6",
    "bounds_z2/out.alpha.csv":
        "866b0bec7c99905f0caf86423e162b8afa922f9779ffd8fafdf682bdc2009eb6",
    "bounds_default_grid/out":
        "5dec854c89b9fa9cc0ec5ec08027abd008c189bb163ef29d895d5f797f07b290",
    "bounds_default_grid/out.alpha.csv":
        "0ab89683ad8c5c6b66b8604d8ca532653493980be1c5e3b5a56affa69c575d86",
    "suen/out":
        "7e9ec6f704e361c6857dd0ee5bbf3ad0ac9995f6795675f080e2a3cca331a851",
    "suen_check/out":
        "69a65ec0c54828f8152fa4cb090b824eaa6f5792fc024585587211eb9fc423b7",
    "simulate/log":
        "cc82703a2d45713f6a4c7bd91f3bc75f2356a7780c5a86aee56b29af5a590771",
    "simulate/out":
        "991504491736fca9a728bcb46a80205a109dc0fcb4343abb9ecc7b02d8663a51",
    "robustness/log.gauss_markov_0.csv":
        "a6910eaebb356f29d759c45c3dc8e599c8c032fbe032067eb953375bebf18e4e",
    "robustness/log.gaussian_iid.csv":
        "737e51e0944ecba29a0b757797952cd2f04fada51f9fcf036c97a0e0d7e7b7b1",
    "robustness/log.laplace_iid.csv":
        "f185d9aa340c232007e2ba92eb563df0e2da55fe852106255dde262166b96057",
    "robustness/log.uniform_iid.csv":
        "02f6cf756c84b3017359d6017210444a3816cc21d9f5ee65322230208faf9eb8",
    "robustness/out":
        "5a3ee9bd1d1e8193b121ec5af977f81fd148cc60389710342f9a9eeafd71f72b",
    "exponent_trend/out":
        "0c00fb503dd128c27e4083724824991cdf0237ccf7c9878bfd6727ee4202c853",
    "simulate_14_6_16/log":
        "f6b75b234929484d7c2f45298615daa35c4cb43f35da4fb96b738e8f272f4f9a",
    "simulate_14_6_16/out":
        "e5bf377675805f38c11afea09223294d70ec2b8116e39f4b7a7d917a8e88f295",
    "simulate_16_3_256/log":
        "f62e3957e1128ec7c9b79a3f2214d44578a31b078e58d14bdc510c7de1d39ec1",
    "simulate_16_3_256/out":
        "7430e9eaf9c2bd8d88418de3d3c2a8e873e932cc1c621fadfd5894eddef052ed",
    "robustness_14_6_16/log.gauss_markov_0.csv":
        "248cc7d6495c1f24901ae06ff1adf1552b4ea4159b4176d01a69e01ba51ee75f",
    "robustness_14_6_16/log.gaussian_iid.csv":
        "5dfaaf77a37090e2d0d11a858a5e44c919638a2bdb06f11802e695e472aa679c",
    "robustness_14_6_16/log.laplace_iid.csv":
        "8d186d9519f50900296879fe04d5be1a7c4d8f5c72542cd4485cac9dc2de8047",
    "robustness_14_6_16/log.uniform_iid.csv":
        "4c943d686bb7746f58acb673d4e6ff678c29234b1e1c25ebfa3f2079f9196ada",
    "robustness_14_6_16/out":
        "d9360028c66a0f5259e41ffa1c5257ec6393e57ba0e4fe86422817e998ca3525",
}


@pytest.mark.parametrize("key", list(GOLDEN_RUNS))
def test_artifacts_keep_their_recorded_bytes(tmp_path, capsys, key):
    files = write_artifacts(capsys, tmp_path / key, GOLDEN_RUNS[key])
    digests = {f"{key}/{name}": hashlib.sha256(data).hexdigest()
               for name, data in files.items()}
    assert digests == {k: v for k, v in GOLDEN_DIGESTS.items()
                       if k.startswith(key + "/")}


def test_cli_loads_no_scipy(tmp_path, child_env):
    # the CLI starts on numpy alone: in a fresh interpreter, neither its
    # import nor any subcommand at a tiny size loads a scipy module; the
    # trend run has zero errors, so it reaches the Clopper-Pearson limit
    runs = [["curve", "--points", "5"], BOUNDS_ARGS + ["--z2", "0.8,1.0"],
            SIM_ARGS, ROBUST_ARGS, TREND_ARGS,
            SUEN_ARGS + ["--matrices", "20", "--check"]]
    script = (
        "import json, sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import sparcomp.cli\n"
        "seen = [['import', 0, loaded()]]\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    code = sparcomp.cli.main(argv + ['--out', f'{sys.argv[2]}/{i}'])\n"
        "    seen.append([argv[0], code, loaded()])\n"
        "print(json.dumps(seen))\n")
    res = subprocess.run([sys.executable, "-c", script, json.dumps(runs),
                          str(tmp_path)], capture_output=True, text=True,
                         env=child_env)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout)
    assert [name for name, _, _ in seen] == ["import"] + [r[0] for r in runs]
    assert all(code == EXIT_OK and not modules for _, code, modules in seen), seen
    trend = json.loads((tmp_path / "4").read_text())
    assert all(entry["n_errors"] == 0 for entry in trend["entries"])


def test_config_file_for_another_subcommand_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "simulate", "n": 12, "L": 3,
                               "M": 4, "D": 0.7, "trials": 5}))
    code, out, err = run_main(capsys, "robustness", "--config", str(cfg))
    assert code == EXIT_CONFIG and "'simulate'" in err and out == ""


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_runs(child_env):
    res = subprocess.run(
        [sys.executable, "-m", "sparcomp.cli", "curve", "--points", "4"],
        capture_output=True, text=True, env=child_env)
    assert res.returncode == 0
    assert "d_ratio,r_shannon,r_sp,branch" in res.stdout
