"""Source models, interval estimators, the experiment runner's determinism
and audit trail, coverage-probability estimators against the exact noncentral
chi-square value, and the bound/robustness/trend drivers."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.stats import beta as beta_dist

import sparcomp as sp
from sparcomp.core import build_design_matrix, make_params
from sparcomp.encoder import STATUS_OK, encode_oracle, sample_power
from sparcomp.sim import (
    ESTIMATOR_STREAM, MATRIX_STREAM, SOURCE_STREAM, SourceModel, _derive_seeds, _seed_seq,
    clopper_pearson_upper, draw_source, estimate_pU1, estimate_pair_prob,
    exact_pU1, exponent_trend, robustness_suite, run_experiment,
    validate_bounds, wilson_interval,
)
from dataclasses import replace


@pytest.fixture(scope="module")
def tiny():
    return make_params(12, 3, 4, 1.0, 0.7, seed=5)


GAUSS = SourceModel("gaussian_iid", 1.0)


def _derive_u64(seed, stream, index):
    # numpy's derivation, the reference for sim._derive_seeds
    return int(_seed_seq(seed, stream, index).generate_state(1, np.uint64)[0])


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


def test_clopper_pearson_upper_is_scipys_quantile_bit_for_bit():
    # k = 0 has the closed form -expm1(log1p(-0.95) / n); every n up to
    # 200,000 and 20,000 random n below 10^9 give scipy's Beta(1, n)
    # quantile to the last bit, and 0 < k < n gives its Beta(k + 1, n - k)
    # quantile
    n = np.arange(1, 200_001)
    got = np.array([clopper_pearson_upper(0, int(m)) for m in n])
    assert np.array_equal(got, beta_dist.ppf(0.95, 1, n))
    n = np.random.default_rng(13).integers(1, 10 ** 9, size=20_000)
    got = np.array([clopper_pearson_upper(0, int(m)) for m in n])
    assert np.array_equal(got, beta_dist.ppf(0.95, 1, n))
    for k, m in [(1, 2), (1, 60), (7, 40), (39, 40), (500, 20_000)]:
        assert clopper_pearson_upper(k, m) == beta_dist.ppf(0.95, k + 1, m - k)


def test_wilson_interval_uses_scipys_normal_quantile():
    # the literal z of the interval is norm.ppf(0.975) to the last bit
    from scipy.stats import norm

    z = float(norm.ppf(0.975))
    lo, hi = wilson_interval(7, 40)
    phat, n = 7 / 40, 40
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    assert (lo, hi) == (center - half, center + half)


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
    assert not any("clock" in key or "_per_s" in key for key in rep.to_dict())


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


def test_exact_pU1_is_scipys_ncx2_cdf(tiny):
    # chndtr, which exact_pU1 calls, gives the value of scipy.stats.ncx2.cdf
    # bit for bit, across block lengths, distortions and source powers
    from scipy.stats import ncx2

    rng = np.random.default_rng(14)
    for trial in range(2000):
        n = int(rng.integers(2, 40))
        D, g2 = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.1, 2.0))
        z2 = float(rng.uniform(0.01, 3.0))
        want = ncx2.cdf(n * D / g2, df=n, nc=n * z2 / g2)
        assert exact_pU1(replace(tiny, n=n, D=D, gamma2=g2), z2) == float(want)


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
        sp.sim, "design_columns",
        lambda p, seeds: np.zeros((len(seeds), p.n_columns, p.n)))
    check = validate_bounds(params, 0.25, 5, n_prob_samples=2000, seed=1)
    assert check.empirical_p == 0.0


@pytest.mark.parametrize("samples", [0, -1])
def test_validate_bounds_rejects_no_samples_before_drawing(monkeypatch, tiny,
                                                           samples):
    def no_draws(p, seeds):
        raise AssertionError("matrices drawn before the arguments were checked")
    monkeypatch.setattr(sp.sim, "design_columns", no_draws)
    with pytest.raises(ValueError, match="n_prob_samples"):
        validate_bounds(tiny, 0.87, 50, n_prob_samples=samples, seed=3)


@pytest.mark.parametrize("block", [1, 7 * 12 * 64, 10 ** 9])
def test_validate_bounds_independent_of_block_size(monkeypatch, tiny, block):
    # the block holds _COVER_BLOCK // (M^L n) matrices: 1, 7 (which does
    # not divide 50) or all of them
    want = validate_bounds(tiny, 0.87, 50, n_prob_samples=2000, seed=3)
    monkeypatch.setattr(sp.sim, "_COVER_BLOCK", block)
    assert validate_bounds(tiny, 0.87, 50, n_prob_samples=2000, seed=3) == want


@pytest.mark.parametrize("seed", [6, 1000])
def test_validate_bounds_events_match_a_per_matrix_loop(tiny, seed):
    # matrix i is the one run_experiment builds for trial i; it fails to
    # cover when the oracle's minimum distortion exceeds D
    z2, n_matrices = 0.87, 300
    source = np.full(tiny.n, math.sqrt(z2))
    events = 0
    for i in range(n_matrices):
        matrix = build_design_matrix(
            replace(tiny, seed=_derive_u64(seed, MATRIX_STREAM, i)))
        events += encode_oracle(matrix, source).distortion > tiny.D
    assert 0 < events < n_matrices
    check = validate_bounds(tiny, z2, n_matrices, n_prob_samples=1000, seed=seed)
    assert check.empirical_p == events / n_matrices


def _hits_pU1(params, z2, n_samples, seed, chunk):
    # out-of-place form of the untilted estimator
    n, z = params.n, math.sqrt(z2)
    rng = np.random.default_rng(_seed_seq(seed, ESTIMATOR_STREAM, 0))
    hits = done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        x = math.sqrt(params.gamma2) * rng.standard_normal((m, n))
        v = np.einsum("ij,ij->i", x - z, x - z)
        hits += int(np.count_nonzero(v <= n * params.D))
        done += m
    return hits


def _hits_pair(params, z2, r, n_samples, seed, chunk):
    # out-of-place form of the pair estimator: its hits and the samples
    # whose first codeword lands within D
    n, z, g = params.n, math.sqrt(z2), math.sqrt(params.gamma2)
    alpha = r / params.L
    root = math.sqrt(1.0 - alpha * alpha)
    rng = np.random.default_rng(_seed_seq(seed, ESTIMATOR_STREAM, 1 + r))
    hits = near = done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        x = rng.standard_normal((m, n))
        y = rng.standard_normal((m, n))
        s1 = g * x
        s2 = g * (alpha * x + root * y)
        v1 = np.einsum("ij,ij->i", s1 - z, s1 - z)
        v2 = np.einsum("ij,ij->i", s2 - z, s2 - z)
        hits += int(np.count_nonzero((v1 <= n * params.D) & (v2 <= n * params.D)))
        near += int(np.count_nonzero(v1 <= n * params.D))
        done += m
    return hits, near


def _tilted_sums(params, z2, n_samples, seed, chunk):
    # out-of-place form of the tilted estimator's weight sums
    n, g2, D, z = params.n, params.gamma2, params.D, math.sqrt(z2)
    t0 = sp.theory.t0_tilt(z2, g2, D)
    shrink = 1.0 - 2.0 * g2 * t0
    var_t = g2 / shrink
    mean_t = -2.0 * t0 * z * var_t
    psi = t0 * z2 / shrink - 0.5 * math.log(shrink)
    rng = np.random.default_rng(_seed_seq(seed, ESTIMATOR_STREAM, 0))
    sum_w = sum_w2 = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        x = mean_t + math.sqrt(var_t) * rng.standard_normal((m, n))
        v = np.einsum("ij,ij->i", x - z, x - z)
        w = np.where(v <= n * D, np.exp(n * psi - t0 * v), 0.0)
        sum_w += float(w.sum())
        sum_w2 += float((w * w).sum())
        done += m
    p = sum_w / n_samples
    return p, math.sqrt(max(sum_w2 / n_samples - p * p, 0.0) / n_samples)


@pytest.mark.parametrize("seed, z2", [(0, 0.75), (6, 0.8678), (1000, 0.98),
                                      (2, 3.0)])
def test_in_place_estimators_keep_their_hit_counts(monkeypatch, tiny, seed, z2):
    # small chunks, so that the last one is partial; draw buffers of 1 row,
    # of 7 rows (which divide neither chunk nor n_samples) and of more rows
    # than a pair chunk; at z2 = 3 the pair estimator keeps no x row
    monkeypatch.setattr(sp.sim, "_PU1_CHUNK", 7000)
    monkeypatch.setattr(sp.sim, "_PAIR_CHUNK", 6000)
    n_samples = 20_003
    hits_pU1 = _hits_pU1(tiny, z2, n_samples, seed, 7000)
    est = estimate_pU1(tiny, z2, n_samples, seed=seed, tilted=True)
    assert (est.p, est.se) == _tilted_sums(tiny, z2, n_samples, seed, 7000)
    pairs = [_hits_pair(tiny, z2, r, n_samples, seed, 6000)
             for r in range(tiny.L)]
    assert [near == 0 for _, near in pairs] == [z2 == 3.0] * tiny.L
    for rows in (1, 7, 6001):
        monkeypatch.setattr(sp.sim, "_DRAW_BLOCK", rows * tiny.n)
        est = estimate_pU1(tiny, z2, n_samples, seed=seed)
        assert est.p == hits_pU1 / n_samples
        for r, (hits, _) in enumerate(pairs):
            est = estimate_pair_prob(tiny, z2, r, n_samples, seed=seed)
            assert est.p == hits / n_samples


@pytest.mark.parametrize("stream", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
                                  2 ** 64 + 3])
def test_derived_seeds_match_seed_sequence(seed, stream):
    # one- and two-word seeds and indices, and entropy longer than the
    # 4-word pool (a three-word seed), which numpy mixes in a further loop
    indices = [0, 1, 2 ** 32 - 1, 2 ** 32, 5, 2 ** 32 + 7]
    got = _derive_seeds(seed, stream, indices)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [_derive_u64(seed, stream, i)
                                     for i in indices]
    # a batch of two-word indices alone
    assert int(_derive_seeds(seed, stream, [2 ** 32])[0]) == _derive_u64(
        seed, stream, 2 ** 32)


def test_derived_seeds_reject_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        _derive_seeds(-1, MATRIX_STREAM, range(3))


def test_bound_validation_streams_its_scratch_memory(tiny):
    # one criterion 6 cell: its scratch blocks (draw buffers, the pair
    # estimator's kept rows, one block of matrices) stay far below the
    # 29 MiB that whole 200,000-sample blocks took
    import tracemalloc

    validate_bounds(tiny, 0.756, 10, n_prob_samples=1000, seed=6)  # warm-up
    tracemalloc.start()
    try:
        validate_bounds(tiny, 0.756, 2000, n_prob_samples=200_000, seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def test_validate_bounds_cap_is_the_oracle_cap(monkeypatch):
    # one cap guards the exhaustive all_distortions path: a codebook of
    # exactly ORACLE_CAP codewords is validated, one codeword more is not
    params = make_params(12, 3, 4, 1.0, 0.7, seed=5)
    monkeypatch.setattr(sp.encoder, "ORACLE_CAP", params.n_codewords)
    validate_bounds(params, 0.8, 2, n_prob_samples=1000, seed=1)
    monkeypatch.setattr(sp.encoder, "ORACLE_CAP", params.n_codewords - 1)
    with pytest.raises(ValueError, match="> cap 63"):
        validate_bounds(params, 0.8, 2, n_prob_samples=1000, seed=1)


def test_validate_bounds_accepts_codebooks_up_to_the_oracle_cap():
    # 320^2 = 102,400 codewords: above the former 1e5 limit of
    # validate_bounds, within encoder.ORACLE_CAP
    params = make_params(4, 2, 320, 1.0, 0.5, seed=2)
    check = validate_bounds(params, 0.8, 1, n_prob_samples=1000, seed=1)
    assert check.n_matrices == 1


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
