"""Closed-form rate and bound functions checked against independent
numerical oracles (Legendre transforms on grids, Gauss-Hermite quadrature),
frozen reference values, exact big-integer identities, and property tests.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparcomp.theory as th
from sparcomp import make_params

# ---------------------------------------------------------------------------
# rate-distortion curves and x*
# ---------------------------------------------------------------------------

def test_rate_distortion_gaussian_values():
    assert th.rate_distortion_gaussian(1.0, 1.0) == 0.0
    assert th.rate_distortion_gaussian(1.0, 0.25) == pytest.approx(math.log(2.0), abs=1e-15)
    assert th.rate_distortion_gaussian(4.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_rate_distortion_domain():
    with pytest.raises(ValueError):
        th.rate_distortion_gaussian(1.0, 0.0)
    with pytest.raises(ValueError):
        th.rate_distortion_gaussian(1.0, 1.5)


def test_x_star_defining_equation():
    x = th.solve_x_star()
    assert abs(1.0 - x + 0.5 * math.log(x)) < 1e-12
    assert 0.2022 <= x <= 0.2042


def test_x_star_is_brentqs_root():
    # the literal root is what the bracketing solver it replaces returns
    from scipy.optimize import brentq

    phi = lambda x: 1.0 - x + 0.5 * math.log(x)
    root = brentq(phi, 1e-9, 0.999999, xtol=1e-15, rtol=8.9e-16)
    assert th.solve_x_star() == root


def test_sparc_rate_branches():
    # below the crossover the Shannon branch is active, above it the linear one
    x = th.solve_x_star()
    assert th.sparc_rate(1.0, 0.1) == pytest.approx(0.5 * math.log(10.0), abs=1e-15)
    assert th.sparc_rate(1.0, 0.5) == pytest.approx(0.5, abs=1e-15)
    gap = th.rate_distortion_gaussian(1.0, x) - (1.0 - x)
    assert abs(gap) < 1e-10


def test_rate_point_branch_labels():
    pt = th.rate_point(1.0, 0.5)
    assert pt.r_shannon == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
    assert pt.r_sp == pytest.approx(0.5, abs=1e-15)


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_sparc_rate_dominates_shannon(d):
    assert th.sparc_rate(1.0, d) >= th.rate_distortion_gaussian(1.0, d) - 1e-15


@given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
       st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
def test_curves_decreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    if hi - lo < 1e-9:
        return
    assert th.rate_distortion_gaussian(1.0, lo) > th.rate_distortion_gaussian(1.0, hi)
    assert th.sparc_rate(1.0, lo) > th.sparc_rate(1.0, hi)


# ---------------------------------------------------------------------------
# distortion threshold a^2 and the error exponents
# ---------------------------------------------------------------------------

def test_a_squared_branches():
    # R above the crossover rate: exponential branch
    assert th.a_squared(1.2, 0.3) == pytest.approx(0.3 * math.exp(2.4), abs=1e-15)
    # below: the linear branch
    assert th.a_squared(0.55, 0.5) == pytest.approx(0.5 / 0.45, abs=1e-15)


def test_error_exponents_agree_above_crossover():
    # above 1 - x* both exponents coincide exactly
    assert th.sparc_error_exponent(1.2, 0.3, 1.0) == pytest.approx(
        th.optimal_error_exponent(1.2, 0.3, 1.0), abs=1e-14)


def test_error_exponents_diverge_between():
    # on (r_sp, 1 - x*) the achievable exponent is strictly smaller
    r_opt = th.optimal_error_exponent(0.75, 0.5, 1.0)
    r_sp = th.sparc_error_exponent(0.75, 0.5, 1.0)
    assert r_sp == pytest.approx(0.15342640972002736, abs=1e-12)
    assert r_opt == pytest.approx(0.21699585786448883, abs=1e-12)
    assert r_sp < r_opt


def test_cramer_exponent_against_oracle():
    # closed form vs numeric Legendre transform of the chi-square cgf
    for a2, s2 in [(1.8, 1.0), (1.5, 1.2), (2.5, 0.7)]:
        closed = th.cramer_source_exponent(a2, s2)
        numeric = th.cramer_source_oracle(a2, s2)
        assert closed == pytest.approx(numeric, abs=1e-10)
    assert th.cramer_source_exponent(1.8, 1.0) == pytest.approx(
        0.10610666754894049, abs=1e-13)


def test_cramer_zero_at_variance():
    assert th.cramer_source_exponent(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_optimal_exponent_where_a2_rounds_below_sigma2():
    # one ulp above the Shannon rate, D e^{2R} rounds below sigma2; the
    # exponent is 0 there, not a domain error of cramer_source_exponent
    D = 0.38062531265632815
    R = math.nextafter(th.rate_distortion_gaussian(1.0, D), math.inf)
    assert D * math.exp(2.0 * R) < 1.0
    assert th.optimal_error_exponent(R, D, 1.0) == 0.0


# ---------------------------------------------------------------------------
# single-codeword rate function f and its Chernoff oracle
# ---------------------------------------------------------------------------

FROZEN_F = [
    # (z2, gamma2, D) -> value frozen from chernoff_rate_oracle
    ((0.9, 0.8, 0.2), 0.754825305445407),
    ((1.3, 1.0, 0.3), 0.7331685343967136),
    ((2.0, 1.5, 0.5), 0.6931471805599454),
    ((0.75, 0.5, 0.25), 0.5493061443340548),
]


def test_f_rate_frozen_oracle_values():
    for (z2, g2, D), want in FROZEN_F:
        assert th.f_rate(z2, g2, D) == pytest.approx(want, abs=1e-10)


def test_f_rate_matches_chernoff_oracle_grid():
    for ratio in (2.0, 4.0, 8.0):
        D = 0.4
        rho2 = ratio * D
        g2 = rho2 - D
        for z2 in np.linspace(D * 1.05, rho2, 8):
            closed = th.f_rate(float(z2), g2, D)
            numeric = th.chernoff_rate_oracle(float(z2), g2, D)
            assert closed == pytest.approx(numeric, abs=1e-8)


def test_f_rate_at_rho2_closed_form():
    # at z2 = rho2 the rate collapses to half the log distortion ratio
    D, rho2 = 0.5, 2.0
    assert th.f_rate(rho2, rho2 - D, D) == pytest.approx(
        0.5 * math.log(rho2 / D), abs=1e-12)


def test_t0_tilt_is_oracle_argmax():
    z2, g2, D = 1.3, 1.0, 0.3
    t0 = th.t0_tilt(z2, g2, D)
    _, t_num = th.chernoff_rate_oracle(z2, g2, D, with_argmax=True)
    assert t0 == pytest.approx(t_num, rel=1e-6)
    assert t0 < 0.0


@given(st.floats(min_value=0.55, max_value=1.95))
def test_f_rate_increasing_in_z2(z2):
    # higher source power makes the single-codeword cover event rarer
    D, g2 = 0.5, 1.5
    eps = 1e-4
    if z2 + eps > 2.0:
        return
    assert th.f_rate(z2 + eps, g2, D) > th.f_rate(z2, g2, D)


# ---------------------------------------------------------------------------
# pairwise exponent c_alpha and its quadrature oracle
# ---------------------------------------------------------------------------

FROZEN_C_ALPHA = [
    # (alpha, z2, gamma2, D) -> value at t = t0/(1+alpha), frozen from the
    # 64-node 2-D Gauss-Hermite oracle
    ((0.3, 0.9, 0.8, 0.2), 1.2995930145171237),
    ((0.6, 1.3, 1.0, 0.3), 1.036236436181873),
    ((0.85, 2.0, 1.5, 0.5), 0.8020089224823818),
]


def test_c_alpha_frozen_quadrature_values():
    for (al, z2, g2, D), want in FROZEN_C_ALPHA:
        t = th.t0_tilt(z2, g2, D) / (1.0 + al)
        assert th.c_alpha(t, al, z2, g2, D) == pytest.approx(want, abs=1e-8)


def test_c_alpha_matches_quadrature_grid():
    D = 0.4
    for rho2 in (0.9, 1.6):
        g2 = rho2 - D
        for z2 in np.linspace(D * 1.1, rho2, 4):
            t0 = th.t0_tilt(float(z2), g2, D)
            for al in (0.1, 0.45, 0.8):
                t = t0 / (1.0 + al)
                closed = th.c_alpha(t, al, float(z2), g2, D)
                numeric = th.c_alpha_quadrature_oracle(t, al, float(z2), g2, D)
                assert closed == pytest.approx(numeric, abs=1e-6)


def test_c_alpha_at_zero_overlap_is_twice_f():
    # independent codewords factorize
    for (z2, g2, D), _ in FROZEN_F:
        t0 = th.t0_tilt(z2, g2, D)
        assert th.c_alpha(t0, 0.0, z2, g2, D) == pytest.approx(
            2.0 * th.f_rate(z2, g2, D), abs=1e-10)


# ---------------------------------------------------------------------------
# correlation functional g and margin h
# ---------------------------------------------------------------------------

FROZEN_G = [
    ((0.3, 0.9, 0.8, 0.2), 0.2100575963736939),
    ((0.6, 1.3, 1.0, 0.3), 0.43010063261155573),
    ((0.85, 2.0, 1.5, 0.5), 0.58428543863751),
]


def test_g_corr_frozen_values():
    for (al, z2, g2, D), want in FROZEN_G:
        assert th.g_corr(al, z2, g2, D) == pytest.approx(want, abs=1e-12)


def test_g_corr_zero_at_zero_overlap():
    assert th.g_corr(0.0, 1.3, 1.0, 0.3) == pytest.approx(0.0, abs=1e-14)


def test_g_corr_assembly_identity():
    # g(alpha) = 2 f - C_alpha(t0 / (1 + alpha))
    for al in (0.05, 0.3, 0.6, 0.9):
        for (z2, g2, D), _ in FROZEN_F:
            t0 = th.t0_tilt(z2, g2, D)
            lhs = th.g_corr(al, z2, g2, D)
            rhs = 2.0 * th.f_rate(z2, g2, D) - th.c_alpha(
                t0 / (1.0 + al), al, z2, g2, D)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_g_corr_at_rho2_closed_form():
    rho2, D = 1.6, 0.2
    for al in (0.2, 0.5, 0.8):
        want = 0.5 * math.log((1.0 + al) / (1.0 - al * (1.0 - 2.0 * D / rho2)))
        assert th.g_corr(al, rho2, rho2 - D, D) == pytest.approx(want, abs=1e-12)


def test_g_corr_accepts_arrays():
    al = np.array([0.1, 0.4, 0.7])
    out = th.g_corr(al, 1.3, 1.0, 0.3)
    assert isinstance(out, np.ndarray) and out.shape == (3,)
    for a, v in zip(al, out):
        assert v == pytest.approx(th.g_corr(float(a), 1.3, 1.0, 0.3), abs=1e-14)


def test_g_corr_increasing_in_z2():
    zs = np.linspace(0.31, 1.3, 40)
    vals = [th.g_corr(0.5, float(z), 1.0, 0.3) for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_h_alpha_endpoints():
    R, rho2, D = 1.2, 1.6, 0.2
    assert th.h_alpha(0.0, R, rho2, D) == pytest.approx(0.0, abs=1e-14)
    assert th.h_alpha(1.0, R, rho2, D) == pytest.approx(
        R - 0.5 * math.log(rho2 / D), abs=1e-12)


def test_h_positive_inside_when_rate_exceeds_covering():
    R, rho2, D = 1.2, 1.6, 0.2
    L = 10
    assert R > th.sparc_rate(1.0, D)
    for r in range(1, L):
        assert th.h_alpha(r / L, R, rho2, D) > 0.0


def test_alpha_star_matches_numeric_argmax():
    for R, rho2, D in [(1.2, 1.6, 0.2), (1.1, 2.5, 0.4)]:
        astar = th.alpha_star(R, rho2, D)
        grid = np.linspace(1e-6, 1 - 1e-6, 20001)
        vals = np.array([th.h_alpha(float(a), R, rho2, D) for a in grid])
        assert astar == pytest.approx(float(grid[int(np.argmax(vals))]), abs=1e-4)
    assert th.alpha_star(1.2, 1.6, 0.2) == pytest.approx(
        0.7902762311289901, abs=1e-12)


def test_alpha_star_none_when_ratio_small():
    # no interior stationary point when rho2/D <= 4
    assert th.alpha_star(1.2, 0.6, 0.2) is None


# ---------------------------------------------------------------------------
# b_min thresholds
# ---------------------------------------------------------------------------

def test_b_min_values():
    assert th.b_min(1.2, 0.5, 1.0, "rd") == pytest.approx(3.0 / 0.7, abs=1e-12)
    assert th.b_min(1.2, 0.5, 1.0, "exponent") == pytest.approx(4.2 / 0.7, abs=1e-12)
    with pytest.raises(ValueError):
        th.b_min(1.2, 0.5, 1.0, "bogus")


# ---------------------------------------------------------------------------
# overlap combinatorics (exact big-integer identities)
# ---------------------------------------------------------------------------

def test_overlap_profile_small_case():
    prof = th.overlap_profile(2, 3)
    assert list(prof.counts) == [4, 4, 1]
    assert prof.total == 9


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=2, max_value=256))
@settings(max_examples=60, deadline=None)
def test_overlap_profile_sums_to_codebook_size(L, M):
    prof = th.overlap_profile(L, M)
    assert sum(prof.counts) == M ** L
    assert prof.counts[L] == 1
    assert prof.counts[0] == (M - 1) ** L


def test_suen_lambda_delta_ratio_exact():
    assert th.suen_lambda_delta_ratio(3, 4) == Fraction(16, 9)
    assert th.suen_lambda_delta_ratio(4, 8) == Fraction(2048, 847)


# ---------------------------------------------------------------------------
# second-moment and Suen bounds
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_params():
    return make_params(12, 3, 4, 1.0, 0.7, seed=0)


def test_second_moment_bound_frozen(tiny_params):
    val = th.second_moment_bound(tiny_params, 0.8, 2e-3, [5e-3, 1.2e-2])
    assert val == pytest.approx(0.9995593779068819, abs=1e-12)


def test_second_moment_bound_edgecases(tiny_params):
    assert th.second_moment_bound(tiny_params, 0.8, 0.0, [0.0, 0.0]) == 1.0
    # large pU1 with no pair excess drives the bound to ~X^-1/(1+X^-1) scale
    v = th.second_moment_bound(tiny_params, 0.8, 1.0, [1.0, 1.0])
    assert 0.0 <= v <= 1.0


def test_suen_bound_frozen_terms(tiny_params):
    s = th.suen_bound(tiny_params, 0.8, 2e-3, [5e-3, 1.2e-2])
    assert s.lam == pytest.approx(0.128, abs=1e-15)          # 64 * 2e-3
    assert s.delta == pytest.approx(0.072, abs=1e-15)        # (64-1-27) * 2e-3
    assert s.Delta == pytest.approx(7.776, abs=1e-12)
    assert s.t1 == pytest.approx(0.064, abs=1e-15)
    assert s.t2 == pytest.approx(float(Fraction(16, 9)) / 6.0, abs=1e-15)
    assert s.t3 == pytest.approx(0.128 ** 2 / (8 * 7.776), abs=1e-15)
    assert s.bound == pytest.approx(math.exp(-min(s.t1, s.t2, s.t3)), abs=1e-15)


def test_suen_bound_t2_is_probability_free(tiny_params):
    a = th.suen_bound(tiny_params, 0.8, 1e-3, [1e-3, 1e-3])
    b = th.suen_bound(tiny_params, 0.8, 0.5, [0.2, 0.2])
    assert a.t2 == b.t2 == pytest.approx(float(Fraction(16, 9)) / 6.0, abs=1e-15)


def test_suen_bound_zero_probability_edges(tiny_params):
    s = th.suen_bound(tiny_params, 0.8, 0.0, [0.0, 0.0])
    assert s.bound == 1.0 and s.t3 == 0.0
    s = th.suen_bound(tiny_params, 0.8, 1e-3, [0.0, 0.0])
    assert s.t3 == math.inf


@given(st.floats(min_value=1e-9, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_bounds_are_probabilities(pU1, pa, pb):
    p = make_params(12, 3, 4, 1.0, 0.7, seed=0)
    sm = th.second_moment_bound(p, 0.8, pU1, [pa, pb])
    su = th.suen_bound(p, 0.8, pU1, [pa, pb]).bound
    assert 0.0 <= sm <= 1.0
    assert 0.0 <= su <= 1.0


# ---------------------------------------------------------------------------
# finite-L T bound
# ---------------------------------------------------------------------------

def test_t_bound_frozen(tiny_params):
    tb = th.t_bound_finite_L(tiny_params, 0.8)
    assert tb.log_bound == pytest.approx(2.4209749460474015, abs=1e-12)
    assert tb.converges is False
    assert tb.alpha_at_max == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_t_bound_independent_of_z2(tiny_params):
    a = th.t_bound_finite_L(tiny_params, 0.75)
    b = th.t_bound_finite_L(tiny_params, tiny_params.rho2)
    assert a.log_bound == b.log_bound


def test_t_bound_z2_domain(tiny_params):
    with pytest.raises(ValueError):
        th.t_bound_finite_L(tiny_params, 0.0)
    with pytest.raises(ValueError):
        th.t_bound_finite_L(tiny_params, tiny_params.rho2 * 1.01)


def test_t_bound_decreasing_in_L_when_convergent():
    # a large-b family where the bound genuinely decays with L
    vals = []
    for L in (256, 512, 1024):
        p = _stub_params(L=L, b=6.0, R=1.2, D=0.5, rho2=1.0, sigma2=0.9)
        vals.append(th.t_bound_finite_L(p, 0.9).log_bound)
    assert vals[0] > vals[1] > vals[2]


def _stub_params(L, b, R, D, rho2, sigma2):
    """Parameter stand-in for asymptotic L where M = L^b overflows memory:
    carries exactly the fields the T bound reads."""

    class _P:
        pass

    p = _P()
    p.L = L
    p.b = b
    p.R = R
    p.D = D
    p.rho2 = rho2
    p.sigma2 = sigma2
    p.gamma2 = rho2 - D
    return p


def test_t_bound_slope_matches_analytic_rate():
    # ln T vs ln L slope approaches -(b - b_min)(R - (1 - D/rho2)) / R
    R, D, rho2, sigma2 = 1.2, 0.5, 1.0, 0.9
    b = th.b_min(R, D, rho2, "rd") + 1.0
    Ls = [2 ** k for k in range(10, 15)]
    logs = [th.t_bound_finite_L(_stub_params(L, b, R, D, rho2, sigma2), 0.9).log_bound
            for L in Ls]
    slope = np.polyfit(np.log(Ls), logs, 1)[0]
    want = -(b - th.b_min(R, D, rho2, "rd")) * (R - (1.0 - D / rho2)) / R
    assert want == pytest.approx(-0.5833333333, abs=1e-9)
    assert slope == pytest.approx(want, rel=0.10)


# ---------------------------------------------------------------------------
# numpy ports of scipy.special, bit for bit
# ---------------------------------------------------------------------------

def test_logsumexp_port_matches_scipy_bit_for_bit():
    # 100,000 lists of length 1-16 at three magnitudes, a third of them
    # with ties for the maximum (which scipy counts apart) and some
    # rounded so that more terms tie; scipy is called per length on a 2-D
    # block, whose rows a spot check ties to the call on a flat list
    from scipy.special import logsumexp

    rng = np.random.default_rng(11)
    total = 0
    for length in range(1, 17):
        count = 6250
        a = rng.normal(size=(count, length)) \
            * rng.choice([1.0, 30.0, 800.0], size=(count, 1))
        tied = rng.random(count) < 1 / 3
        for row in np.flatnonzero(tied):
            a[row, rng.integers(0, length, size=rng.integers(1, length + 1))] = \
                a[row].max()
        rounded = rng.random(count) < 0.2
        a[rounded] = np.round(a[rounded])
        want = logsumexp(a, axis=1)
        for row in range(0, count, 97):
            assert logsumexp(a[row]) == want[row]
        got = np.array([th._logsumexp(list(row)) for row in a])
        assert np.array_equal(got, want)
        total += count
    assert total >= 100_000
    assert th._logsumexp([-math.inf, -math.inf]) == -math.inf
    assert th._logsumexp([math.inf, 0.0]) == math.inf


def test_expit_port_matches_scipy_bit_for_bit():
    # 300,000 points: the bulk, the tails beyond the float64 range of
    # e^-x (x < -709.78 overflows, large x gives 1), and the specials
    from scipy.special import expit

    rng = np.random.default_rng(12)
    x = np.concatenate([rng.normal(scale=5.0, size=100_000),
                        rng.uniform(-800.0, 800.0, size=100_000),
                        rng.uniform(-760.0, -700.0, size=100_000),
                        [0.0, -0.0, -709.0, -710.0, -745.2, -1e308, 1e308,
                         math.inf, -math.inf]])
    got = np.array([th._expit(float(v)) for v in x])
    assert np.array_equal(got, expit(x))
    assert (x < -709.0).sum() > 30_000
