"""Closed-form rates, error exponents, large-deviation rate functions,
overlap combinatorics and probability bounds for sparse regression codebooks.

Every quantity that is *derived* rather than defined comes with an
independent numerical oracle (Legendre transforms by 1-D optimization,
bivariate log-MGFs by Gauss-Hermite quadrature) so the closed forms can be
cross-checked without trusting the algebra.

Conventions: all rates and exponents are in nats. |x|^2 denotes the
per-sample power ||x||^2 / n throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .core import SparcParams

__all__ = [
    "RatePoint",
    "SuenTerms",
    "OverlapProfile",
    "TBoundResult",
    "rate_distortion_gaussian",
    "sparc_rate",
    "solve_x_star",
    "a_squared",
    "optimal_error_exponent",
    "sparc_error_exponent",
    "f_rate",
    "chernoff_rate_oracle",
    "t0_tilt",
    "c_alpha",
    "c_alpha_quadrature_oracle",
    "g_corr",
    "h_alpha",
    "alpha_star",
    "b_min",
    "overlap_profile",
    "second_moment_bound",
    "suen_bound",
    "suen_lambda_delta_ratio",
    "t_bound_finite_L",
    "cramer_source_exponent",
    "cramer_source_oracle",
]


# ---------------------------------------------------------------------------
# rate curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatePoint:
    """One point on the rate curves: Shannon rate and the achievable rate
    of the sparse-regression codebook, both in nats/sample."""

    d_over_sigma2: float
    r_shannon: float
    r_sp: float


def rate_distortion_gaussian(sigma2: float, D: float) -> float:
    """Shannon rate-distortion function of an i.i.d N(0, sigma2) source
    under squared error: (1/2) ln(sigma2 / D) nats/sample."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not 0 < D <= sigma2:
        raise ValueError(f"need 0 < D <= sigma2, got D={D}, sigma2={sigma2}")
    return 0.5 * math.log(sigma2 / D)


def sparc_rate(sigma2: float, D: float) -> float:
    """Minimum rate at which the sparse-regression ensemble provably covers
    to distortion D: max((1/2) ln(sigma2/D), 1 - D/sigma2)."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not 0 < D < sigma2:
        raise ValueError(f"need 0 < D < sigma2, got D={D}, sigma2={sigma2}")
    return max(0.5 * math.log(sigma2 / D), 1.0 - D / sigma2)


@lru_cache(maxsize=1)
def solve_x_star() -> float:
    """Root of 1 - x + (1/2) ln x = 0 in (0, 1), about 0.2032.

    Below this value of D/sigma2 the Shannon branch of sparc_rate is
    active; above it the linear branch 1 - D/sigma2 takes over.
    """
    phi = lambda x: 1.0 - x + 0.5 * math.log(x)
    # the root that scipy.optimize.brentq(phi, 1e-9, 0.999999, xtol=1e-15,
    # rtol=8.9e-16) returns, to the last bit (tests check this)
    root = 0.20318786997997995
    assert abs(phi(root)) < 1e-12
    return root


def rate_point(sigma2: float, d_ratio: float) -> RatePoint:
    """Both rate curves at D = d_ratio * sigma2."""
    if not 0 < d_ratio < 1:
        raise ValueError(f"d_ratio must lie in (0,1), got {d_ratio}")
    D = d_ratio * sigma2
    return RatePoint(d_ratio, rate_distortion_gaussian(sigma2, D), sparc_rate(sigma2, D))


def a_squared(R: float, D: float) -> float:
    """Upper limit of the admissible threshold window for a codebook at
    rate R and distortion D: D e^{2R} when R >= 1 - x*, else D/(1 - R).

    The two branches meet at R = 1 - x* (where D e^{2R} = D/x* = D/(1-R));
    the branch split always selects the smaller of the two expressions.
    """
    if math.isnan(R) or math.isnan(D):
        raise ValueError("a_squared: NaN input")
    if R <= 0 or D <= 0:
        raise ValueError(f"need R > 0 and D > 0, got R={R}, D={D}")
    if R >= 1.0 - solve_x_star():
        return D * math.exp(2.0 * R)
    # here R < 1 - x* < 1, so the denominator is safe
    return D / (1.0 - R)


def optimal_error_exponent(R: float, D: float, sigma2: float) -> float:
    """Best possible exponent of P(distortion > D) at rate R for the
    Gaussian source: cramer_source_exponent(D e^{2R}, sigma2), that is
    (1/2)(v - 1 - ln v) with v = D e^{2R} / sigma2, zero at and below the
    Shannon rate."""
    if sigma2 <= 0 or D <= 0 or R < 0:
        raise ValueError(f"bad domain: R={R}, D={D}, sigma2={sigma2}")
    if D >= sigma2 or R <= rate_distortion_gaussian(sigma2, D):
        return 0.0
    # just above the rate boundary D e^{2R} may round below sigma2, where
    # the exponent is 0 (cramer_source_exponent rejects a2 < sigma2)
    return cramer_source_exponent(max(D * math.exp(2.0 * R), sigma2), sigma2)


def sparc_error_exponent(R: float, D: float, sigma2: float) -> float:
    """Exponent achieved by the sparse-regression ensemble: same KL form
    as optimal_error_exponent but with the branch-limited a_squared, zero
    at and below sparc_rate. Coincides with the optimal exponent for
    R > 1 - x*."""
    if sigma2 <= 0 or D <= 0 or R < 0:
        raise ValueError(f"bad domain: R={R}, D={D}, sigma2={sigma2}")
    if D >= sigma2 or R <= sparc_rate(sigma2, D):
        return 0.0
    # as in optimal_error_exponent, a_squared may round below sigma2
    return cramer_source_exponent(max(a_squared(R, D), sigma2), sigma2)


# ---------------------------------------------------------------------------
# single-codeword large-deviation rate function
# ---------------------------------------------------------------------------

def _A(z2, gamma2, D):
    # auxiliary root sqrt(gamma2^2 + 4 z2 D) - gamma2; positive for z2, D > 0
    return np.sqrt(gamma2 * gamma2 + 4.0 * z2 * D) - gamma2


def f_rate(z2: float, gamma2: float, D: float) -> float:
    """Large-deviation rate of one codeword landing within per-sample
    distortion D of a power-z2 source:

        f(z2) = (D + z2)/(2 g) - D z2/(A g) - A/(4 g) - (1/2) ln(A/(2 z2))

    with g = gamma2 and A = sqrt(g^2 + 4 z2 D) - g. Equals
    (1/2) ln(rho2/D) at z2 = rho2 when gamma2 = rho2 - D.
    """
    if z2 <= 0 or gamma2 <= 0 or D <= 0:
        raise ValueError(f"need positive z2, gamma2, D; got {z2}, {gamma2}, {D}")
    A = _A(z2, gamma2, D)
    return (
        (D + z2) / (2.0 * gamma2)
        - D * z2 / (A * gamma2)
        - A / (4.0 * gamma2)
        - 0.5 * math.log(A / (2.0 * z2))
    )


def _chernoff_objective(t, z2, gamma2, D):
    # t*D - ln E exp(t (X - z)^2) for X ~ N(0, gamma2), valid for t < 1/(2 gamma2)
    q = 1.0 - 2.0 * gamma2 * t
    return t * D - (t * z2 / q - 0.5 * np.log(q))


def _maximize_on_grid(objective, grid, xatol=1e-12):
    """Grid scan for a bracket, then bounded scalar refinement.

    Returns (max value, argmax). Raises if the optimum sits on the grid
    boundary (never silently clamp) or the refiner fails to converge.
    """
    vals = objective(grid)
    i = int(np.argmax(vals))
    if i == 0 or i == len(grid) - 1:
        raise RuntimeError("oracle optimum at grid boundary; widen the scan range")
    from scipy.optimize import minimize_scalar

    lo, hi = min(grid[i - 1], grid[i + 1]), max(grid[i - 1], grid[i + 1])
    res = minimize_scalar(
        lambda t: -objective(t), bounds=(lo, hi), method="bounded",
        options={"xatol": xatol, "maxiter": 500},
    )
    if not res.success:
        raise RuntimeError(f"oracle optimizer did not converge: {res.message}")
    return float(-res.fun), float(res.x)


def chernoff_rate_oracle(z2: float, gamma2: float, D: float,
                         with_argmax: bool = False):
    """Independent oracle for f_rate: numerically maximize
    t*D - ln E[e^{t (X - z)^2}] over t < 0, X ~ N(0, gamma2), via a
    log-spaced grid scan plus bounded 1-D refinement."""
    if z2 <= 0 or gamma2 <= 0 or D <= 0:
        raise ValueError(f"need positive z2, gamma2, D; got {z2}, {gamma2}, {D}")
    if z2 + gamma2 <= D:
        raise ValueError("need z2 + gamma2 > D for an interior optimum at t < 0")
    grid = -np.logspace(math.log10(1e-9 / gamma2), math.log10(1e3 / gamma2), 600)[::-1]
    value, t_hat = _maximize_on_grid(
        lambda t: _chernoff_objective(t, z2, gamma2, D), grid)
    return (value, t_hat) if with_argmax else value


def t0_tilt(z2: float, gamma2: float, D: float) -> float:
    """Optimal zero-overlap Chernoff tilt:
    t0 = (1/(2 gamma2)) (1 - 2 z2 / A(z2)); negative whenever
    z2 + gamma2 > D."""
    if z2 <= 0 or gamma2 <= 0 or D <= 0:
        raise ValueError(f"need positive z2, gamma2, D; got {z2}, {gamma2}, {D}")
    if z2 + gamma2 <= D:
        raise ValueError(f"need z2 + gamma2 > D, got {z2} + {gamma2} <= {D}")
    t0 = (1.0 - 2.0 * z2 / _A(z2, gamma2, D)) / (2.0 * gamma2)
    assert t0 < 0.0
    return t0


# ---------------------------------------------------------------------------
# pair (overlap) exponents
# ---------------------------------------------------------------------------

def c_alpha(t: float, alpha: float, z2: float, gamma2: float, D: float) -> float:
    """Two-codeword Chernoff exponent at overlap fraction alpha:

        C_a(t) = 2 t D - 2 t z2 / (1 - 2 g t (1+a))
                 + (1/2) ln(1 - 4 g t + 4 g^2 t^2 (1 - a^2))

    for a pair of jointly Gaussian codeword coordinates with covariance
    g [[1, a], [a, 1]]. At alpha = 0 this is twice the single-codeword
    objective, so C_0(t0) = 2 f_rate(z2).
    """
    if t >= 0:
        raise ValueError(f"tilt t must be negative, got {t}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    if z2 <= 0 or gamma2 <= 0 or D <= 0:
        raise ValueError(f"need positive z2, gamma2, D; got {z2}, {gamma2}, {D}")
    g = gamma2
    log_arg = 1.0 - 4.0 * g * t + 4.0 * g * g * t * t * (1.0 - alpha * alpha)
    assert log_arg > 0.0  # guaranteed for t < 0
    return 2.0 * t * D - 2.0 * t * z2 / (1.0 - 2.0 * g * t * (1.0 + alpha)) \
        + 0.5 * math.log(log_arg)


def c_alpha_quadrature_oracle(t: float, alpha: float, z2: float, gamma2: float,
                              D: float, nodes: int = 64) -> float:
    """Oracle for c_alpha: evaluates 2tD - ln E[e^{t(S1-z)^2 + t(S2-z)^2}]
    by 2-D Gauss-Hermite quadrature, with (S1, S2) zero-mean jointly
    Gaussian, covariance gamma2 [[1, alpha], [alpha, 1]]. Test/diagnostic
    surface only, not a production path."""
    if t >= 0:
        raise ValueError(f"tilt t must be negative, got {t}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"quadrature oracle needs alpha in [0,1), got {alpha}")
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(nodes)
    g = math.sqrt(gamma2)
    z = math.sqrt(z2)
    # Cholesky factor of the correlation: S1 = g*u, S2 = g*(alpha*u + sqrt(1-a^2)*v)
    u = math.sqrt(2.0) * x[:, None]
    v = math.sqrt(2.0) * x[None, :]
    s1 = g * u
    s2 = g * (alpha * u + math.sqrt(1.0 - alpha * alpha) * v)
    integrand = np.exp(t * (s1 - z) ** 2 + t * (s2 - z) ** 2)
    mgf = float(np.einsum("i,j,ij->", w, w, integrand)) / math.pi
    return 2.0 * t * D - math.log(mgf)


def g_corr(alpha, z2, gamma2, D):
    """Correlation penalty of a codeword pair at overlap fraction alpha:

        g(z2) = a/(g (1+a)) (D + z2 - 2 z2 D / A - A/2)
                - (1/2) ln((1-a)/(1+a) + a A / ((1+a) z2))

    Equals 2 f_rate(z2) - c_alpha(t0/(1+a)); zero at alpha = 0; at
    z2 = rho2 (gamma2 = rho2 - D) it reduces to
    (1/2) ln((1+a) / (1 - a (1 - 2D/rho2))). Accepts scalar or array alpha.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise ValueError("alpha must lie in [0,1]")
    if z2 <= 0 or gamma2 <= 0 or D <= 0:
        raise ValueError(f"need positive z2, gamma2, D; got {z2}, {gamma2}, {D}")
    A = _A(z2, gamma2, D)
    lin = alpha / (gamma2 * (1.0 + alpha)) * (D + z2 - 2.0 * z2 * D / A - A / 2.0)
    log_arg = (1.0 - alpha) / (1.0 + alpha) + alpha * A / ((1.0 + alpha) * z2)
    out = lin - 0.5 * np.log(log_arg)
    return float(out) if out.ndim == 0 else out


def h_alpha(alpha, R: float, rho2: float, D: float):
    """Margin h(alpha) = alpha R - g(rho2) that drives the overlap sum
    to zero; positive throughout (0,1] whenever R exceeds the covering
    rate. Accepts scalar or array alpha."""
    if rho2 <= D:
        raise ValueError(f"need rho2 > D, got rho2={rho2}, D={D}")
    alpha_arr = np.asarray(alpha, dtype=float)
    out = alpha_arr * R - g_corr(alpha_arr, rho2, rho2 - D, D)
    return float(out) if out.ndim == 0 else out


def alpha_star(R: float, rho2: float, D: float) -> Optional[float]:
    """Location of the interior maximum of h_alpha on (0,1), in closed
    form; None when rho2/D <= 4 (h is then increasing on (0,1))."""
    if rho2 <= D:
        raise ValueError(f"need rho2 > D, got rho2={rho2}, D={D}")
    if R <= 0:
        raise ValueError(f"need R > 0, got {R}")
    ratio = rho2 / D
    if ratio <= 4.0:
        return None
    u = D / rho2
    inner = 1.0 + (1.0 / u**2) * (1.0 - 2.0 * u) * (1.0 - (1.0 - u) / R)
    return u / (1.0 - 2.0 * u) * (1.0 + math.sqrt(inner))


def b_min(R: float, D: float, rho2: float, variant: str = "rd") -> float:
    """Smallest section-size exponent b for which the overlap bounds
    vanish: 2.5 R / (R - (1 - D/rho2)) for the covering guarantee ("rd"),
    3.5 R / (...) for the error-exponent guarantee ("exponent"). Passing
    sigma2 as rho2 gives the threshold in source-variance terms."""
    if variant not in ("rd", "exponent"):
        raise ValueError(f"variant must be 'rd' or 'exponent', got {variant!r}")
    if rho2 <= 0 or D <= 0 or D >= rho2:
        raise ValueError(f"need 0 < D < rho2, got D={D}, rho2={rho2}")
    den = R - (1.0 - D / rho2)
    if den <= 0:
        raise ValueError(f"need R > 1 - D/rho2; R={R}, 1-D/rho2={1.0 - D / rho2}")
    factor = 2.5 if variant == "rd" else 3.5
    return factor * R / den


# ---------------------------------------------------------------------------
# overlap combinatorics and probability bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OverlapProfile:
    """Exact counts of codewords sharing r selected columns with a fixed
    codeword, r = 0..L; counts[L] = 1 is the codeword itself."""

    L: int
    M: int
    counts: tuple  # big integers

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def neighbor_count(self) -> int:
        # codewords sharing at least one column (dependency-graph degree)
        return self.M ** self.L - 1 - (self.M - 1) ** self.L


def overlap_profile(L: int, M: int) -> OverlapProfile:
    """counts[r] = C(L, r) (M-1)^(L-r) in exact integer arithmetic; the
    sum over r = 0..L is M^L by the binomial theorem."""
    if L < 1 or M < 2:
        raise ValueError(f"need L >= 1 and M >= 2, got L={L}, M={M}")
    counts = tuple(math.comb(L, r) * (M - 1) ** (L - r) for r in range(L + 1))
    return OverlapProfile(L, M, counts)


def _logsumexp(terms: Sequence[float]) -> float:
    """ln sum_i e^terms[i] for a non-empty list, by the algorithm of
    scipy.special.logsumexp, so to the same bits (tests check this): the
    m terms equal to the largest, a_max, are left out of
    s = sum e^(a - a_max), and the result is log1p(s / m) + ln m + a_max.
    A non-finite result is recomputed as ln sum e^a, as scipy does."""
    a = np.asarray(terms, dtype=float)
    a_max = a.max()
    top = a == a_max
    m = np.float64(np.count_nonzero(top))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.exp(a - a_max)
        e[top] = 0.0
        s = e.sum()
        if s != 0:
            s /= m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


def _expit(x: float) -> float:
    """1 / (1 + e^-x), equal to scipy.special.expit bit for bit (tests
    check this); 0 where e^-x overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _log_overlap_pair_sum(profile: OverlapProfile, pPair: Sequence[float]) -> float:
    """ln sum_{r=1}^{L-1} counts[r] * pPair[r] (log domain; -inf if all zero)."""
    L = profile.L
    if len(pPair) != L - 1:
        raise ValueError(f"pPair must have {L - 1} entries (r = 1..L-1), got {len(pPair)}")
    terms = []
    for r in range(1, L):
        p = pPair[r - 1]
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"pPair[{r}] = {p} outside [0,1]")
        if p > 0.0:
            terms.append(math.log(profile.counts[r]) + math.log(p))
    return _logsumexp(terms) if terms else -math.inf


def log_overlap_ratio(params, pU1: float, pPair: Sequence[float]) -> float:
    """ln T, where T = sum_{r>=1} counts[r] pPair[r] / ((M-1)^L pU1^2):
    the overlap-weighted correction term of the second-moment bound."""
    L, M = params.L, params.M
    if not 0.0 < pU1 <= 1.0:
        raise ValueError(f"pU1 must lie in (0,1], got {pU1}")
    profile = overlap_profile(L, M)
    log_num = _log_overlap_pair_sum(profile, pPair)
    return log_num - L * math.log(M - 1) - 2.0 * math.log(pU1)


def second_moment_bound(params, z2: float, pU1: float,
                        pPair: Sequence[float]) -> float:
    """Upper bound on P(no codeword within distortion D of a power-z2
    source): (X^-1 + T) / (1 + X^-1 + T) with X = (M-1)^L pU1 and T the
    overlap correction. Evaluated in log domain; always in [0, 1]."""
    if z2 <= 0:
        raise ValueError(f"z2 must be positive, got {z2}")
    if not 0.0 <= pU1 <= 1.0:
        raise ValueError(f"pU1 must lie in [0,1], got {pU1}")
    if pU1 == 0.0:
        return 1.0
    L, M = params.L, params.M
    log_x_inv = -(L * math.log(M - 1) + math.log(pU1))
    log_t = log_overlap_ratio(params, pU1, pPair)
    log_s = _logsumexp([log_x_inv, log_t])  # s = X^-1 + T
    return _expit(log_s)  # s / (1 + s)


@dataclass(frozen=True)
class SuenTerms:
    """Terms of the correlation-inequality bound on P(sum U_i = 0):
    lam = E[sum U_i], delta = max_i sum_{j ~ i} E[U_j],
    Delta = (1/2) sum_{i ~ j} E[U_i U_j], and the three exponent
    arguments lam/2, lam/(6 delta), lam^2/(8 Delta)."""

    lam: float
    delta: float
    Delta: float
    t1: float
    t2: float
    t3: float
    bound: float


def suen_lambda_delta_ratio(L: int, M: int) -> Fraction:
    """Exact lam/delta = M^L / (M^L - 1 - (M-1)^L); the singleton
    probability cancels, leaving pure combinatorics."""
    if L < 1 or M < 2:
        raise ValueError(f"need L >= 1 and M >= 2, got L={L}, M={M}")
    big = M ** L
    deg = big - 1 - (M - 1) ** L
    if deg <= 0:
        raise ValueError(f"dependency graph empty at L={L}, M={M}")
    return Fraction(big, deg)


def suen_bound(params, z2: float, pU1: float, pPair: Sequence[float]) -> SuenTerms:
    """Correlation-inequality bound exp(-min(lam/2, lam/(6 delta),
    lam^2/(8 Delta))) with lam = M^L pU1, delta = (M^L - 1 - (M-1)^L) pU1,
    Delta = (M^L / 2) sum_r counts[r] pPair[r]. Exponent terms are
    computed in log domain to survive M^L-scale combinatorics.
    Also satisfies lam^2/Delta = (2 M^L / (M-1)^L) / T."""
    if z2 <= 0:
        raise ValueError(f"z2 must be positive, got {z2}")
    if not 0.0 <= pU1 <= 1.0:
        raise ValueError(f"pU1 must lie in [0,1], got {pU1}")
    L, M = params.L, params.M
    profile = overlap_profile(L, M)
    log_big = L * math.log(M)
    ratio = suen_lambda_delta_ratio(L, M)  # lam/delta, pU1-free
    t2 = float(ratio) / 6.0

    log_pair_sum = _log_overlap_pair_sum(profile, pPair)
    if pU1 == 0.0:
        lam = delta = 0.0
        t1 = 0.0
        t3 = 0.0  # lam^2/Delta -> 0 as pU1 -> 0 with pPair fixed
        Delta = 0.5 * math.exp(log_big + log_pair_sum) if log_pair_sum > -math.inf else 0.0
        return SuenTerms(lam, delta, Delta, t1, t2, t3, 1.0)

    log_lam = log_big + math.log(pU1)
    lam = math.exp(log_lam)
    delta = profile.neighbor_count * pU1
    t1 = lam / 2.0
    if log_pair_sum == -math.inf:
        Delta = 0.0
        t3 = math.inf
    else:
        log_Delta = math.log(0.5) + log_big + log_pair_sum
        Delta = math.exp(log_Delta)
        log_t3 = 2.0 * log_lam - math.log(8.0) - log_Delta
        t3 = math.exp(log_t3) if log_t3 < 709.0 else math.inf
    bound = math.exp(-min(t1, t2, t3))
    assert 0.0 <= bound <= 1.0
    return SuenTerms(lam, delta, Delta, t1, t2, t3, bound)


# ---------------------------------------------------------------------------
# finite-L bound on the overlap correction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TBoundResult:
    """Upper bound on ln T at finite L. `converges` is False when the
    rate/section-size preconditions for the bound to vanish fail (the
    value is still reported). Unpinned constants are set to zero
    (kappa_terms = 0)."""

    log_bound: float
    converges: bool
    alpha_at_max: float


def t_bound_finite_L(params, z2: float) -> TBoundResult:
    """Log-domain upper bound on the overlap correction T(z2):

        ln T <= L ln L * max_{alpha = r/L, 1 <= r < L}
                 [ 3/(2L) + min(alpha, 1-alpha, ln2/lnL)
                   - (b/R)(alpha R - g(rho2)) ]

    The pair penalty g is taken at its maximum over z2 in (D, rho2],
    i.e. at rho2, so the returned value does not vary with z2 (z2 is
    validated against the admissible window). Decays like
    L^{-(b - b_min)(R - (1 - D/rho2))/R} when b > b_min.
    """
    L, b, R = params.L, params.b, params.R
    D, rho2 = params.D, params.rho2
    if L < 2:
        raise ValueError(f"need L >= 2, got L={L}")
    if not 0.0 < z2 <= rho2:
        raise ValueError(f"z2 must lie in (0, rho2], got z2={z2}, rho2={rho2}")
    margin = R - (1.0 - D / rho2)
    converges = margin > 0 and b > b_min(R, D, rho2, "rd")

    alpha = np.arange(1, L, dtype=float) / L
    g = g_corr(alpha, rho2, rho2 - D, D)
    cap = np.minimum(np.minimum(alpha, 1.0 - alpha), math.log(2.0) / math.log(L))
    vals = 1.5 / L + cap - (b / R) * (alpha * R - g)
    i = int(np.argmax(vals))
    return TBoundResult(
        log_bound=float(L * math.log(L) * vals[i]),
        converges=bool(converges),
        alpha_at_max=float(alpha[i]),
    )


# ---------------------------------------------------------------------------
# source-power large deviations
# ---------------------------------------------------------------------------

def cramer_source_exponent(a2: float, sigma2: float) -> float:
    """Decay rate of P(|s|^2 >= a2) for an i.i.d N(0, sigma2) source:
    (1/2)(a2/sigma2 - 1 - ln(a2/sigma2))."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if a2 < sigma2:
        raise ValueError(f"need a2 >= sigma2, got a2={a2}, sigma2={sigma2}")
    v = a2 / sigma2
    return 0.5 * (v - 1.0 - math.log(v))


def cramer_source_oracle(a2: float, sigma2: float) -> float:
    """Oracle for cramer_source_exponent: numeric sup over theta of
    theta a2 + (1/2) ln(1 - 2 sigma2 theta), theta < 1/(2 sigma2)."""
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if a2 < sigma2:
        raise ValueError(f"need a2 >= sigma2, got a2={a2}, sigma2={sigma2}")
    if a2 == sigma2:
        return 0.0

    def objective(theta):
        return theta * a2 + 0.5 * np.log(1.0 - 2.0 * sigma2 * theta)

    hi = (1.0 - 1e-12) / (2.0 * sigma2)
    grid = np.linspace(-2.0 / sigma2, hi, 2000)
    value, _ = _maximize_on_grid(objective, grid)
    return value
