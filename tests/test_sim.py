"""Source models, interval estimators, the experiment runner's determinism
and audit trail, coverage-probability estimators against the exact noncentral
chi-square value, and the bound/robustness/trend drivers."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.stats import beta as beta_dist

import sparcomp as sp
from sparcomp.core import DesignMatrix, build_design_matrix, make_params
from sparcomp.encoder import STATUS_OK, encode_oracle, sample_power
from sparcomp.sim import (
    MATRIX_STREAM, SOURCE_STREAM, SourceModel, _derive_u64, _seed_seq,
    clopper_pearson_upper, draw_source, estimate_pU1, estimate_pair_prob,
    exact_pU1, exponent_trend, robustness_suite, run_experiment,
    validate_bounds, wilson_interval,
)
from dataclasses import replace


@pytest.fixture(scope="module")
def tiny():
    return make_params(12, 3, 4, 1.0, 0.7, seed=5)


GAUSS = SourceModel("gaussian_iid", 1.0)


# ---------------------------------------------------------------------------
# source models
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma2, phi", [
    (math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf),
])
def test_source_model_rejects_non_finite(sigma2, phi):
    for kind in ("gaussian_iid", "gauss_markov"):
        with pytest.raises(ValueError, match="finite"):
            SourceModel(kind, sigma2, phi)


def test_source_model_validation():
    with pytest.raises(ValueError):
        SourceModel("cauchy", 1.0)
    with pytest.raises(ValueError):
        SourceModel("gaussian_iid", 0.0)
    with pytest.raises(ValueError):
        SourceModel("gauss_markov", 1.0, phi=1.0)
    assert SourceModel("gauss_markov", 1.0, 0.8).label == "gauss_markov(0.8)"
    assert GAUSS.label == "gaussian_iid"


@pytest.mark.parametrize("kind,phi", [("gaussian_iid", 0.0),
                                      ("gauss_markov", 0.8),
                                      ("laplace_iid", 0.0),
                                      ("uniform_iid", 0.0)])
def test_source_variance_is_sigma2(kind, phi):
    model = SourceModel(kind, 1.3, phi)
    x = draw_source(model, 200_000, 123)
    assert float(np.var(x)) == pytest.approx(1.3, rel=0.02)
    assert abs(float(np.mean(x))) < 0.02


def test_gauss_markov_lag1_correlation():
    model = SourceModel("gauss_markov", 1.0, 0.8)
    x = draw_source(model, 400_000, 7)
    rho = float(np.corrcoef(x[:-1], x[1:])[0, 1])
    assert rho == pytest.approx(0.8, abs=0.01)


def test_uniform_support_bounded():
    x = draw_source(SourceModel("uniform_iid", 1.0), 100_000, 3)
    assert float(np.abs(x).max()) <= math.sqrt(3.0)


def test_draw_source_deterministic():
    a = draw_source(GAUSS, 64, 99)
    b = draw_source(GAUSS, 64, 99)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, draw_source(GAUSS, 64, 100))


@pytest.mark.parametrize("n", [1, 14])
@pytest.mark.parametrize("phi", [-0.9, 0.0, 0.5, 0.95])
def test_gauss_markov_matches_lfilter(phi, n):
    # the AR(1) recursion performs lfilter's floating-point operations
    sigma2 = 1.3
    sig = math.sqrt(sigma2)
    for seed in range(25):
        e = np.random.default_rng(seed).standard_normal(n)
        v = e * (sig * math.sqrt(1.0 - phi * phi))
        v[0] = sig * e[0]
        want = lfilter([1.0], [1.0, -phi], v)
        got = draw_source(SourceModel("gauss_markov", sigma2, phi), n, seed)
        assert got.tobytes() == want.tobytes()


def test_cli_import_leaves_out_scipy_signal():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, sparcomp.cli; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# binomial intervals
# ---------------------------------------------------------------------------

def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 50)[0] == pytest.approx(0.0, abs=1e-15)
    assert wilson_interval(50, 50)[1] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_wilson_interval_calibration():
    # coverage self-test at known p: the 95% interval should contain p in
    # roughly 95% of repeated experiments
    rng = np.random.default_rng(2024)
    p_true, n, reps = 0.3, 100, 4000
    covered = 0
    ks = rng.binomial(n, p_true, size=reps)
    for k in ks:
        lo, hi = wilson_interval(int(k), n)
        covered += lo <= p_true <= hi
    assert 0.93 <= covered / reps <= 0.97


def test_clopper_pearson_upper_matches_beta_quantile():
    assert clopper_pearson_upper(0, 60) == pytest.approx(
        float(beta_dist.ppf(0.95, 1, 60)), abs=1e-12)
    # k = 0 closed form: 1 - alpha^(1/n)
    assert clopper_pearson_upper(0, 60) == pytest.approx(
        1.0 - 0.05 ** (1.0 / 60.0), abs=1e-12)
    assert clopper_pearson_upper(60, 60) == 1.0


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def test_run_experiment_report_shape(tiny):
    rep = run_experiment(tiny, GAUSS, 50)
    assert rep.n_trials == 50 and len(rep.trials) == 50
    assert sum(rep.status_counts.values()) == 50
    assert 0.0 <= rep.p_error <= 1.0
    lo, hi = rep.p_error_ci
    assert lo <= rep.p_error <= hi
    # success accounting matches the records
    assert rep.n_success == sum(t.success for t in rep.trials)
    for t in rep.trials:
        want = (t.status != "variance_overflow" and t.distortion is not None
                and t.distortion <= tiny.D)
        assert t.success == want


def test_run_experiment_deterministic(tiny):
    a = run_experiment(tiny, GAUSS, 30)
    b = run_experiment(tiny, GAUSS, 30)
    assert a.to_dict() == b.to_dict()
    assert a.trials == b.trials


def test_run_experiment_matrix_modes_differ(tiny):
    fresh = run_experiment(tiny, GAUSS, 30, fresh_matrix=True)
    fixed = run_experiment(tiny, GAUSS, 30, fresh_matrix=False)
    assert fresh.fresh_matrix and not fixed.fresh_matrix
    # same sources, different dictionaries: distortion patterns differ
    assert any(a.distortion != b.distortion
               for a, b in zip(fresh.trials, fixed.trials))
    assert all(a.z2 == b.z2 for a, b in zip(fresh.trials, fixed.trials))


def test_run_experiment_timing_excluded_from_dict(tiny):
    rep = run_experiment(tiny, GAUSS, 5)
    assert "wall_clock_s" not in rep.to_dict()
    assert "wall_clock_s" in rep.to_dict(include_timing=True)


def test_trial_records_audit_against_oracle(tiny):
    # rebuild the exact per-trial source and matrix from the documented
    # seed derivation and confirm the logged distortion is the true minimum
    rep = run_experiment(tiny, GAUSS, 20, seed=5)
    audited = 0
    for t in rep.trials:
        if t.status != STATUS_OK or audited >= 5:
            continue
        source = draw_source(GAUSS, tiny.n, _seed_seq(5, SOURCE_STREAM, t.trial))
        assert sample_power(source) == pytest.approx(t.z2, abs=0)
        matrix = build_design_matrix(
            replace(tiny, seed=_derive_u64(5, MATRIX_STREAM, t.trial)))
        want = encode_oracle(matrix, source)
        assert want.status == STATUS_OK
        assert t.distortion == pytest.approx(want.distortion, abs=1e-12)
        audited += 1
    assert audited == 5


# ---------------------------------------------------------------------------
# coverage-probability estimators
# ---------------------------------------------------------------------------

def test_exact_pU1_reference_value(tiny):
    # noncentral chi-square cdf; spot value frozen once from scipy
    val = exact_pU1(tiny, 0.8)
    assert 0.0 < val < 1.0
    again = exact_pU1(tiny, 0.8)
    assert val == again


def test_estimate_pU1_matches_exact(tiny):
    exact = exact_pU1(tiny, 0.8)
    est = estimate_pU1(tiny, 0.8, 200_000, seed=1)
    assert est.method == "untilted"
    assert abs(est.p - exact) <= 3.0 * est.se


def test_tilted_estimator_agrees_and_tightens(tiny):
    exact = exact_pU1(tiny, 0.8)
    plain = estimate_pU1(tiny, 0.8, 100_000, seed=2)
    tilt = estimate_pU1(tiny, 0.8, 100_000, seed=2, tilted=True)
    assert tilt.method == "tilted"
    assert abs(tilt.p - exact) <= 3.0 * tilt.se
    # joint CI agreement between the two estimators
    assert abs(tilt.p - plain.p) <= 3.0 * math.hypot(tilt.se, plain.se)
    assert tilt.se < plain.se


def test_tilted_reaches_deep_tail():
    # a regime where the plain estimator sees nothing
    p = make_params(24, 3, 4, 1.0, 0.25, rho2=1.05, allow_low_rate=True, seed=0)
    exact = exact_pU1(p, 1.0)
    assert exact < 1e-6
    est = estimate_pU1(p, 1.0, 200_000, seed=3, tilted=True)
    assert abs(est.p - exact) <= 4.0 * est.se


def test_pair_prob_zero_overlap_is_squared_singleton(tiny):
    single = exact_pU1(tiny, 0.8)
    pair = estimate_pair_prob(tiny, 0.8, 0, 300_000, seed=4)
    assert abs(pair.p - single * single) <= 3.0 * pair.se + 1e-9


def test_pair_prob_increasing_in_overlap(tiny):
    vals = [estimate_pair_prob(tiny, 0.8, r, 200_000, seed=4).p
            for r in range(tiny.L)]
    assert vals[0] < vals[1] < vals[2]


def test_estimator_validation(tiny):
    with pytest.raises(ValueError):
        estimate_pU1(tiny, -1.0, 100)
    with pytest.raises(ValueError):
        estimate_pair_prob(tiny, 0.8, 3, 100)   # r must be < L
    with pytest.raises(ValueError):
        estimate_pair_prob(tiny, 0.8, -1, 100)


# ---------------------------------------------------------------------------
# bound validation
# ---------------------------------------------------------------------------

def test_validate_bounds_tiny_instance(tiny):
    check = validate_bounds(tiny, 0.8, 400, n_prob_samples=100_000, seed=9)
    assert check.n_matrices == 400
    assert 0.0 <= check.empirical_p <= 1.0
    assert check.within_second_moment and check.within_suen
    assert check.second_moment_slack >= -3.0 * check.empirical_se
    assert check.suen_slack >= -3.0 * check.empirical_se


def test_validate_bounds_counts_distortion_equal_to_D_as_covered(monkeypatch):
    # an all-zero design puts every codeword at distortion exactly
    # z2 = D = 0.25, which covers the source under the rule distortion <= D
    params = make_params(12, 3, 4, 1.0, 0.25, rho2=1.5, allow_low_rate=True)
    monkeypatch.setattr(
        sp.sim, "build_design_matrix",
        lambda p: DesignMatrix(p, np.zeros((p.n, p.n_columns))))
    check = validate_bounds(params, 0.25, 5, n_prob_samples=2000, seed=1)
    assert check.empirical_p == 0.0


# ---------------------------------------------------------------------------
# robustness driver
# ---------------------------------------------------------------------------

def test_robustness_suite_bands(tiny):
    models = [GAUSS, SourceModel("laplace_iid", 1.0),
              SourceModel("uniform_iid", 1.0)]
    res = robustness_suite(tiny, models, 60, seed=12)
    assert res.baseline == "gaussian_iid"
    assert set(res.reports) == {m.label for m in models}
    for key, cond in res.conditional.items():
        assert 0 <= cond.rate <= 1 and cond.n_conditioned <= 60
    assert res.within_band["gaussian_iid"] is True  # baseline trivially in band


def test_robustness_rejects_louder_sources(tiny):
    with pytest.raises(ValueError):
        robustness_suite(tiny, [GAUSS, SourceModel("laplace_iid", 2.0)], 10)


# ---------------------------------------------------------------------------
# exponent trend driver
# ---------------------------------------------------------------------------

def test_exponent_trend_mixed_zero_error_entries():
    fam = [make_params(n, L, 16, 1.0, 0.9, seed=11)
           for (n, L) in [(6, 2), (9, 3), (12, 4)]]
    trend = exponent_trend(fam, GAUSS, 40, seed=11)
    errs = [e.n_errors for e in trend.entries]
    assert errs == [1, 0, 1]
    # the zero-error size reports only a one-sided upper bound
    mid = trend.entries[1]
    assert mid.exponent is None
    assert mid.exponent_upper_only == pytest.approx(
        -math.log(clopper_pearson_upper(0, 40)) / 9, abs=1e-12)
    # the fit uses the remaining two sizes
    assert trend.slope is not None


def test_exponent_trend_validation(tiny):
    with pytest.raises(ValueError):
        exponent_trend([tiny, tiny], GAUSS, 5)
    other = make_params(10, 3, 4, 1.0, 0.7, seed=5)   # different R
    with pytest.raises(ValueError):
        exponent_trend([tiny, tiny, other], GAUSS, 5)
