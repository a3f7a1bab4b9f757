"""Monte Carlo side: source models, the experiment runner, estimators for
the coverage probabilities feeding the analytic bounds, and statistical
validation of those bounds and of the robustness claim.

Seeding is splittable and documented: every random object derives from
SeedSequence([seed, stream, index]) with stream 1 for design matrices,
2 for source draws and 3 for probability estimators, so trials are
order-independent and reports are reproducible bit for bit. Matrix seeds
come from _derive_seeds, a vectorized port of that derivation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import theory
from .core import SparcParams, build_design_matrix, design_columns
from .encoder import (
    STATUS_OK,
    STATUS_TRIVIAL_ZERO,
    STATUS_VARIANCE_OVERFLOW,
    MatrixPlan,
    all_distortions,
    encode_min_distance,
    sample_power,
)

__all__ = [
    "SourceModel",
    "TrialRecord",
    "ExperimentReport",
    "ProbabilityEstimate",
    "BoundCheck",
    "RobustnessResult",
    "ExponentTrend",
    "draw_source",
    "run_experiment",
    "estimate_pU1",
    "exact_pU1",
    "estimate_pair_prob",
    "coverage_bounds",
    "validate_bounds",
    "robustness_suite",
    "exponent_trend",
    "wilson_interval",
    "clopper_pearson_upper",
]

MATRIX_STREAM = 1
SOURCE_STREAM = 2
ESTIMATOR_STREAM = 3

SOURCE_KINDS = ("gaussian_iid", "gauss_markov", "laplace_iid", "uniform_iid")

# Confidence level of every interval the reports give: the Wilson interval
# of an error rate and the Clopper-Pearson limit of a censored exponent.
_CONFIDENCE = 0.95
# The two-sided standard normal quantile at _CONFIDENCE, the value of
# scipy.stats.norm.ppf(0.975) to the last bit (tests check this).
_Z_TWO_SIDED = 1.959963984540054

# Samples per block of the coverage estimators. They fix the draw order,
# not the memory: the pair estimator draws a block's x normals, then its y
# normals, and the tilted pU1 estimator sums its weights per block, so
# its estimate depends on _PU1_CHUNK. The untilted pU1 estimator counts
# hits row by row, so its estimate does not depend on any block size.
_PU1_CHUNK = 200_000
_PAIR_CHUNK = 100_000
# Normals (float64, 256 KiB) per reused draw buffer of the untilted
# estimators: they fill whole rows of at most this many entries at a time
# with standard_normal(out=...), which draws the same numbers in the same
# order as one call for the whole block.
_DRAW_BLOCK = 1 << 15
# Codeword entries (matrices x M^L x n float64, 512 KiB) that
# validate_bounds scores per block of design matrices, which bounds its
# memory; a block holds at least one matrix, whose ranks all_distortions
# scores in chunks. The result does not depend on it.
_COVER_BLOCK = 1 << 16

# numpy's SeedSequence hash (pool of 4 words, 32-bit arithmetic), for
# _derive_seeds
_MASK32 = 0xFFFF_FFFF
_POOL = 4
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_L = 0xCA01_F9DD
_MIX_R = 0x4973_F715


def _seed_seq(seed: int, stream: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), int(stream), int(index)])


def _words(value: int) -> List[int]:
    """The little-endian 32-bit words SeedSequence takes from an integer
    entropy value; 0 gives one word."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_state(entropy: List[np.ndarray]) -> np.ndarray:
    """SeedSequence(entropy words).generate_state(1, np.uint64) lane by
    lane: entropy holds one uint32 array per word, all of one length, and
    uint32 array arithmetic wraps modulo 2^32 as the C code does."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ (value >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for value in pool[:2]:
        value = value ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    return state[0] | (state[1] << 32)


def _derive_seeds(seed: int, stream: int, indices) -> np.ndarray:
    """SeedSequence([seed, stream, i]).generate_state(1, np.uint64)[0] for
    every index i (below 2^64) in indices, as a uint64 array, bit for bit
    and in one vectorized pass per entropy length (tests check this). The
    entropy is the words of seed, then stream, then i (_words); lanes
    whose index takes two words hash apart."""
    seed_words = _words(seed) + _words(stream)
    idx = np.asarray(indices, dtype=np.uint64).reshape(-1)
    out = np.empty(idx.size, dtype=np.uint64)
    wide = idx > _MASK32
    low = (idx & _MASK32).astype(np.uint32)
    high = (idx >> 32).astype(np.uint32)
    for lanes, tail in ((~wide, (low,)), (wide, (low, high))):
        if lanes.any():
            count = int(np.count_nonzero(lanes))
            entropy = [np.full(count, w, dtype=np.uint32) for w in seed_words]
            out[lanes] = _seed_state(entropy + [t[lanes] for t in tail])
    return out


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceModel:
    """Zero-mean ergodic source scaled to per-sample variance sigma2.

    kinds: gaussian_iid, gauss_markov (stationary AR(1) with coefficient
    phi), laplace_iid, uniform_iid.
    """

    kind: str
    sigma2: float
    phi: float = 0.0

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}; "
                             f"expected one of {SOURCE_KINDS}")
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if self.kind == "gauss_markov" and not -1.0 < self.phi < 1.0:
            raise ValueError(f"AR(1) coefficient must lie in (-1,1), got {self.phi}")

    @property
    def label(self) -> str:
        if self.kind == "gauss_markov":
            return f"gauss_markov({self.phi:g})"
        return self.kind


def draw_source(model: SourceModel, n: int, trial_seed) -> np.ndarray:
    """One length-n block, deterministic in (model, trial_seed)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(trial_seed)
    sig = math.sqrt(model.sigma2)
    if model.kind == "gaussian_iid":
        return sig * rng.standard_normal(n)
    if model.kind == "gauss_markov":
        phi = model.phi
        e = rng.standard_normal(n)
        # stationary start: x[0] ~ N(0, sigma2), innovations sigma2*(1-phi^2)
        v = e * (sig * math.sqrt(1.0 - phi * phi))
        v[0] = sig * e[0]
        # AR(1): x[t] = v[t] + phi x[t-1], a serial loop, so on Python floats
        x = v.tolist()
        for t in range(1, n):
            x[t] += phi * x[t - 1]
        return np.array(x)
    if model.kind == "laplace_iid":
        return rng.laplace(0.0, sig / math.sqrt(2.0), n)
    # uniform_iid
    half = math.sqrt(3.0) * sig
    return rng.uniform(-half, half, n)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def wilson_interval(k: int, n: int) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion k/n, at confidence
    _CONFIDENCE."""
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n, n >= 1; got k={k}, n={n}")
    z = _Z_TWO_SIDED
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def clopper_pearson_upper(k: int, n: int) -> float:
    """One-sided exact upper confidence limit for a binomial proportion, at
    confidence _CONFIDENCE."""
    if not 0 <= k <= n or n < 1:
        raise ValueError(f"need 0 <= k <= n, n >= 1; got k={k}, n={n}")
    if k == n:
        return 1.0
    if k == 0:
        # the Beta(1, n) quantile 1 - (1 - _CONFIDENCE)^(1/n), equal to
        # scipy.stats.beta.ppf to the last bit (tests check this)
        return -math.expm1(math.log1p(-_CONFIDENCE) / n)
    from scipy.special import betaincinv

    return float(betaincinv(k + 1, n - k, _CONFIDENCE))


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    trial: int
    source_kind: str
    z2: float
    status: str
    distortion: Optional[float]
    success: bool


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated outcome of one Monte Carlo run. It holds no timing, so
    identical configs produce byte-identical files."""

    params: SparcParams
    model: SourceModel
    seed: int
    fresh_matrix: bool
    n_trials: int
    status_counts: Dict[str, int]
    n_success: int
    p_error: float
    p_error_ci: Tuple[float, float]
    mean_distortion: Optional[float]
    distortion_quantiles: Dict[str, float]
    distortion_hist: Tuple[Tuple[float, ...], Tuple[int, ...]]
    trials: Tuple[TrialRecord, ...]

    def to_dict(self) -> dict:
        """Every field but the per-trial records, for JSON."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "trials"}
        edges, counts = self.distortion_hist
        out.update(params=asdict(self.params), model=asdict(self.model),
                   distortion_hist={"edges": edges, "counts": counts})
        return out


def run_experiment(params: SparcParams, model: SourceModel, n_trials: int,
                   seed: Optional[int] = None,
                   fresh_matrix: bool = True) -> ExperimentReport:
    """Encode n_trials independent source blocks and tally errors.

    fresh_matrix=True redraws the dictionary each trial (ensemble
    average); False reuses the single matrix seeded by params.seed
    (codebook-specific study). An error is any trial whose status is
    variance_overflow or whose distortion exceeds D. It runs the trial
    loop that robustness_suite shares (_run_trials), trial-major: each
    trial's matrix and source seed are made once, and the source is
    encoded against the matrix's MatrixPlan (one for the whole run with a
    fixed matrix).
    """
    return _run_trials(params, [model], n_trials, seed, fresh_matrix)[0]


def _run_trials(params: SparcParams, models: Sequence[SourceModel],
                n_trials: int, seed: Optional[int],
                fresh_matrix: bool) -> List[ExperimentReport]:
    """One ExperimentReport per model, the same as a run of that model
    alone: the one trial loop behind run_experiment and robustness_suite.

    It runs trial-major: each trial's design matrix (or the fixed one) and
    source seed are made once, and every model's source is drawn from that
    seed and encoded against the matrix through one MatrixPlan, which the
    searches of the trial (of the whole run, with a fixed matrix) share.
    Every random object depends only on (seed, stream, trial), so the
    order changes no record."""
    if n_trials < 1:
        raise ValueError(f"need n_trials >= 1, got {n_trials}")
    if seed is None:
        seed = params.seed
    if fresh_matrix:
        matrix_seeds = _derive_seeds(seed, MATRIX_STREAM, range(n_trials))
    else:
        plan = MatrixPlan(build_design_matrix(params))

    records: List[List[TrialRecord]] = [[] for _ in models]
    for trial in range(n_trials):
        trial_seed = _seed_seq(seed, SOURCE_STREAM, trial)
        if fresh_matrix:
            plan = MatrixPlan(build_design_matrix(
                replace(params, seed=int(matrix_seeds[trial]))))
        for model, kept in zip(models, records):
            source = draw_source(model, params.n, trial_seed)
            result = encode_min_distance(plan, source)
            success = (result.status != STATUS_VARIANCE_OVERFLOW
                       and result.distortion is not None
                       and result.distortion <= params.D)
            kept.append(TrialRecord(
                trial=trial, source_kind=model.label,
                z2=sample_power(source), status=result.status,
                distortion=result.distortion, success=success))
    return [_report(params, model, seed, fresh_matrix, kept)
            for model, kept in zip(models, records)]


def _report(params: SparcParams, model: SourceModel, seed: int,
            fresh_matrix: bool, records: List[TrialRecord]) -> ExperimentReport:
    """The ExperimentReport of one model's trial records."""
    n_trials = len(records)
    status_counts = {STATUS_OK: 0, STATUS_VARIANCE_OVERFLOW: 0, STATUS_TRIVIAL_ZERO: 0}
    for r in records:
        status_counts[r.status] += 1
    n_success = sum(r.success for r in records)
    n_err = n_trials - n_success
    dists = np.array([r.distortion for r in records if r.distortion is not None])
    if dists.size:
        mean_d = float(dists.mean())
        quants = {f"q{int(100 * q)}": float(np.quantile(dists, q))
                  for q in (0.1, 0.5, 0.9)}
        counts, edges = np.histogram(dists, bins=20, range=(0.0, float(dists.max())))
        hist = (tuple(float(e) for e in edges), tuple(int(c) for c in counts))
    else:
        mean_d, quants, hist = None, {}, ((), ())

    return ExperimentReport(
        params=params, model=model, seed=seed, fresh_matrix=fresh_matrix,
        n_trials=n_trials, status_counts=status_counts, n_success=n_success,
        p_error=n_err / n_trials, p_error_ci=wilson_interval(n_err, n_trials),
        mean_distortion=mean_d, distortion_quantiles=quants,
        distortion_hist=hist, trials=tuple(records),
    )


# ---------------------------------------------------------------------------
# coverage-probability estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbabilityEstimate:
    p: float
    se: float
    n_samples: int
    method: str


def exact_pU1(params: SparcParams, z2: float) -> float:
    """Closed form for the single-codeword coverage probability: with
    coordinates of the codeword i.i.d N(0, gamma2) against the fixed
    vector (z, ..., z), n |s - shat|^2 / gamma2 is noncentral chi-square
    with n degrees of freedom and noncentrality n z2 / gamma2."""
    if z2 <= 0:
        raise ValueError(f"z2 must be positive, got {z2}")
    from scipy.special import chndtr

    n, g2 = params.n, params.gamma2
    return float(chndtr(n * params.D / g2, n, n * z2 / g2))


def estimate_pU1(params: SparcParams, z2: float, n_samples: int,
                 seed: int = 0, tilted: bool = False) -> ProbabilityEstimate:
    """Monte Carlo estimate of P(one codeword lands within distortion D of
    a power-z2 source). By rotational invariance the codeword coordinates
    are sampled i.i.d N(0, gamma2) against the constant vector (z,...,z);
    no design matrix is built. tilted=True applies importance sampling
    with the optimal exponential tilt t0 for rare events."""
    if z2 <= 0:
        raise ValueError(f"z2 must be positive, got {z2}")
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    n, g2, D = params.n, params.gamma2, params.D
    z = math.sqrt(z2)
    rng = np.random.default_rng(_seed_seq(seed, ESTIMATOR_STREAM, 0))

    if not tilted:
        # a hit depends on its own row alone, so the rows stream through
        # one reused buffer of _DRAW_BLOCK normals
        rows = max(1, _DRAW_BLOCK // n)
        buf = np.empty((min(rows, n_samples), n))
        hits = 0
        for lo in range(0, n_samples, rows):
            x = buf[:min(rows, n_samples - lo)]
            rng.standard_normal(out=x)
            x *= math.sqrt(g2)
            x -= z
            v = np.einsum("ij,ij->i", x, x)
            hits += int(np.count_nonzero(v <= n * D))
        p = hits / n_samples
        se = math.sqrt(p * (1.0 - p) / n_samples)
        return ProbabilityEstimate(p, se, n_samples, "untilted")

    t0 = theory.t0_tilt(z2, g2, D)
    shrink = 1.0 - 2.0 * g2 * t0  # > 1 for t0 < 0
    var_t = g2 / shrink
    mean_t = -2.0 * t0 * z * var_t
    psi = t0 * z2 / shrink - 0.5 * math.log(shrink)  # per-coordinate ln MGF
    sum_w = 0.0
    sum_w2 = 0.0
    hits = 0
    done = 0
    while done < n_samples:
        m = min(_PU1_CHUNK, n_samples - done)
        x = rng.standard_normal((m, n))
        x *= math.sqrt(var_t)
        x += mean_t
        x -= z
        v = np.einsum("ij,ij->i", x, x)
        w = np.where(v <= n * D, np.exp(n * psi - t0 * v), 0.0)
        hits += int(np.count_nonzero(w))
        sum_w += float(w.sum())
        sum_w2 += float((w * w).sum())
        done += m
    if hits == 0:
        raise RuntimeError(
            "zero effective sample size under tilting: no sample hit the "
            "coverage region; increase n_samples")
    p = sum_w / n_samples
    var = max(sum_w2 / n_samples - p * p, 0.0)
    return ProbabilityEstimate(p, math.sqrt(var / n_samples), n_samples, "tilted")


def estimate_pair_prob(params: SparcParams, z2: float, r: int, n_samples: int,
                       seed: int = 0) -> ProbabilityEstimate:
    """Monte Carlo estimate of P(two codewords sharing r sections both land
    within D of a power-z2 source). Coordinate pairs are jointly Gaussian
    with covariance gamma2 [[1, a], [a, 1]], a = r/L, sampled against the
    fixed vector (z, ..., z).

    Draw order: each block of _PAIR_CHUNK samples draws all its x normals,
    then all its y normals, from one Generator. Both pass through a reused
    buffer of _DRAW_BLOCK normals, and only the raw x rows whose first
    codeword lands within D are kept, with their row numbers: a row with
    v1 > n D is never a hit. The second codeword is formed for the kept
    rows alone, by the operations and in the order of the full block, so
    the hit count equals the full block's bit for bit. Memory: the kept
    rows take O(pU1 _PAIR_CHUNK n) floats, at worst the x and y blocks a
    draw of the full block would hold, plus two buffers."""
    if z2 <= 0:
        raise ValueError(f"z2 must be positive, got {z2}")
    if not 0 <= r <= params.L - 1:
        raise ValueError(f"overlap r must lie in [0, L-1], got r={r}, L={params.L}")
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    n, g2, D = params.n, params.gamma2, params.D
    alpha = r / params.L
    g = math.sqrt(g2)
    z = math.sqrt(z2)
    root = math.sqrt(1.0 - alpha * alpha)
    rng = np.random.default_rng(_seed_seq(seed, ESTIMATOR_STREAM, 1 + r))
    rows = max(1, _DRAW_BLOCK // n)
    buf = np.empty((min(rows, _PAIR_CHUNK, n_samples), n))
    s1 = np.empty_like(buf)
    hits = 0
    for done in range(0, n_samples, _PAIR_CHUNK):
        m = min(_PAIR_CHUNK, n_samples - done)
        # s1 = g x - z; keep (row numbers, raw x) where v1 <= n D
        kept = []
        for lo in range(0, m, rows):
            x = buf[:min(rows, m - lo)]
            rng.standard_normal(out=x)
            s = s1[:len(x)]
            np.multiply(x, g, out=s)
            s -= z
            near = np.einsum("ij,ij->i", s, s) <= n * D
            kept.append((np.flatnonzero(near), x[near]))
        # in place on the kept rows, the same operations as
        # s2 = g (alpha x + root y) - z
        for lo, (at, x) in zip(range(0, m, rows), kept):
            y = buf[:min(rows, m - lo)]
            rng.standard_normal(out=y)
            if at.size:
                y = y[at]
                y *= root
                y += alpha * x
                y *= g
                y -= z
                v2 = np.einsum("ij,ij->i", y, y)
                hits += int(np.count_nonzero(v2 <= n * D))
    p = hits / n_samples
    se = math.sqrt(p * (1.0 - p) / n_samples)
    return ProbabilityEstimate(p, se, n_samples, "untilted")


# ---------------------------------------------------------------------------
# bound validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    """Empirical zero-coverage probability vs the two analytic bounds at
    one (params, z2) cell."""

    z2: float
    n_matrices: int
    empirical_p: float
    empirical_se: float
    pU1: ProbabilityEstimate
    pPair: Tuple[ProbabilityEstimate, ...]
    second_moment: float
    suen: theory.SuenTerms
    within_second_moment: bool
    within_suen: bool


def coverage_bounds(params: SparcParams, z2: float, n_samples: int,
                    seed: int) -> tuple:
    """(pU1, pPair, second_moment, suen): the estimates of pU1 and of the
    pair probabilities for r = 1..L-1, n_samples draws each, and the
    second-moment and Suen-type bounds they give."""
    pU1 = estimate_pU1(params, z2, n_samples, seed=seed)
    pPair = tuple(estimate_pair_prob(params, z2, r, n_samples, seed=seed)
                  for r in range(1, params.L))
    pairs = [est.p for est in pPair]
    return (pU1, pPair, theory.second_moment_bound(params, z2, pU1.p, pairs),
            theory.suen_bound(params, z2, pU1.p, pairs))


def validate_bounds(params: SparcParams, z2: float, n_matrices: int,
                    n_prob_samples: int = 200_000,
                    seed: Optional[int] = None) -> BoundCheck:
    """Draw n_matrices dictionaries against the fixed source (z, ..., z),
    measure how often no codeword lands within D, and compare with the
    second-moment and correlation-inequality bounds fed by Monte Carlo
    estimates of the coverage probabilities. Within-bound flags use a
    3-standard-error allowance on the empirical side.

    Matrix i is the one run_experiment would build for trial i, seeded by
    _derive_seeds. The matrices are drawn a block at a time
    (design_columns), at most _COVER_BLOCK codeword entries per block, and
    a matrix covers the source when any codeword's exact distortion
    (all_distortions) is at most D, so the result does not depend on the
    block size. Memory: the n_matrices seeds (8 bytes each), one block of
    matrices and its distortions, and the estimators' reused buffers of
    _DRAW_BLOCK normals plus the pair estimator's kept rows, O(pU1
    _PAIR_CHUNK n) floats; nothing else grows with n_prob_samples."""
    if n_matrices < 1:
        raise ValueError(f"need n_matrices >= 1, got {n_matrices}")
    if n_prob_samples < 1:
        raise ValueError(f"need n_prob_samples >= 1, got {n_prob_samples}")
    if not 0 < z2:
        raise ValueError(f"z2 must be positive, got {z2}")
    if seed is None:
        seed = params.seed

    source = np.full(params.n, math.sqrt(z2))
    block = max(1, _COVER_BLOCK // (params.n_codewords * params.n))
    seeds = _derive_seeds(seed, MATRIX_STREAM, range(n_matrices))
    events = 0
    for lo in range(0, n_matrices, block):
        columns = design_columns(params, seeds[lo:lo + block])
        dists = all_distortions(params, columns, source)
        events += int(np.count_nonzero(~np.any(dists <= params.D, axis=1)))
    p_emp = events / n_matrices
    se_emp = math.sqrt(p_emp * (1.0 - p_emp) / n_matrices)

    pU1, pPair, sm, su = coverage_bounds(params, z2, n_prob_samples, seed)
    return BoundCheck(
        z2=z2, n_matrices=n_matrices, empirical_p=p_emp, empirical_se=se_emp,
        pU1=pU1, pPair=pPair, second_moment=sm, suen=su,
        within_second_moment=p_emp <= sm + 3.0 * se_emp,
        within_suen=p_emp <= su.bound + 3.0 * se_emp,
    )


# ---------------------------------------------------------------------------
# robustness and exponent trends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalRate:
    n_conditioned: int
    rate: float
    se: float


@dataclass(frozen=True)
class RobustnessResult:
    """Per-model reports on a shared matrix seed, plus success rates
    conditioned on the empirical power not exceeding sigma2."""

    baseline: str
    reports: Dict[str, ExperimentReport]
    conditional: Dict[str, ConditionalRate]
    within_band: Dict[str, bool]


def robustness_suite(params: SparcParams, models: Sequence[SourceModel],
                     n_trials: int,
                     seed: Optional[int] = None) -> RobustnessResult:
    """Run the same experiment (same seeds, hence same matrices) for each
    source model and compare conditional success rates given
    |s|^2 <= sigma2 against the first model, with a joint 3-SE band.

    Each model's report is the one run_experiment gives it, but the trials
    run trial-major (_run_trials): each trial's matrix and source seed are
    made once, and every model's source is encoded against that matrix
    through one shared MatrixPlan."""
    if not models:
        raise ValueError("need at least one source model")
    labels = [m.label for m in models]
    if len(set(labels)) < len(labels):
        raise ValueError(f"repeated source model in {labels}")
    for model in models:
        if model.sigma2 > params.sigma2:
            raise ValueError(
                f"model {model.label} has variance {model.sigma2} > "
                f"codebook design variance {params.sigma2}")

    reports = dict(zip(labels, _run_trials(params, models, n_trials, seed,
                                           fresh_matrix=True)))
    conditional: Dict[str, ConditionalRate] = {}
    for key, report in reports.items():
        cond = [r for r in report.trials if r.z2 <= params.sigma2]
        k = sum(r.success for r in cond)
        m = len(cond)
        rate = k / m if m else math.nan
        se = math.sqrt(rate * (1.0 - rate) / m) if m else math.nan
        conditional[key] = ConditionalRate(m, rate, se)

    baseline = models[0].label
    base = conditional[baseline]
    within = {}
    for key, cond in conditional.items():
        band = 3.0 * math.sqrt(base.se ** 2 + cond.se ** 2)
        within[key] = abs(cond.rate - base.rate) <= band
    return RobustnessResult(baseline, reports, conditional, within)


@dataclass(frozen=True)
class TrendEntry:
    n: int
    L: int
    M: int
    n_trials: int
    n_errors: int
    p_error: float
    p_error_ci: Tuple[float, float]
    exponent: Optional[float]        # -ln(p)/n, None when p == 0
    exponent_upper_only: Optional[float]  # -ln(CP upper bound)/n when censored


@dataclass(frozen=True)
class ExponentTrend:
    entries: Tuple[TrendEntry, ...]
    slope: Optional[float]
    intercept: Optional[float]
    r_squared: Optional[float]


def exponent_trend(params_family: Sequence[SparcParams], model: SourceModel,
                   n_trials: int,
                   seed: Optional[int] = None) -> ExponentTrend:
    """Empirical error exponents -ln(P_e)/n across a family of sizes at
    common (R, D), with a linear fit of the exponent against n. Sizes
    with zero observed errors report a one-sided upper bound instead of a
    point estimate and are excluded from the fit."""
    if len(params_family) < 3:
        raise ValueError("need at least 3 sizes for a trend")
    R0, D0 = params_family[0].R, params_family[0].D
    for p in params_family[1:]:
        if abs(p.R - R0) > 1e-9 * max(1.0, abs(R0)) or p.D != D0:
            raise ValueError(
                f"family must share (R, D); got R={p.R} vs {R0}, D={p.D} vs {D0}")

    entries: List[TrendEntry] = []
    for p in params_family:
        report = run_experiment(p, model, n_trials,
                                seed=p.seed if seed is None else seed)
        k_err = report.n_trials - report.n_success
        if k_err == 0:
            upper = clopper_pearson_upper(0, n_trials)
            exponent, upper_only = None, -math.log(upper) / p.n
        else:
            exponent, upper_only = -math.log(report.p_error) / p.n, None
        entries.append(TrendEntry(
            n=p.n, L=p.L, M=p.M, n_trials=n_trials, n_errors=k_err,
            p_error=report.p_error, p_error_ci=report.p_error_ci,
            exponent=exponent, exponent_upper_only=upper_only))

    fitted = [(e.n, e.exponent) for e in entries if e.exponent is not None]
    if len(fitted) >= 2:
        xs = np.array([f[0] for f in fitted], dtype=float)
        ys = np.array([f[1] for f in fitted], dtype=float)
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        total = ys - ys.mean()
        ss_tot = float(total @ total)
        r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
        return ExponentTrend(tuple(entries), float(slope), float(intercept), r2)
    return ExponentTrend(tuple(entries), None, None, None)
