"""Exhaustive minimum-distance encoding.

The encoder first applies the two gates: a source with per-sample power
|s|^2 >= rho2 is declared an error (variance_overflow), and one with
|s|^2 < D is trivially compressed by the all-zero reconstruction
(trivial_zero). Otherwise every one of the M^L codewords is examined and
the global argmin of ||s - A beta|| is returned, ties broken by smallest
mixed-radix rank.

Every codeword is scored by one exact scorer, _exact_sq: the squared norm
of source - synthesize(beta), with the codeword accumulated in section
order. The search finds its argmin in two steps:

1. A tiled kernel. The first k sections are expanded into an inner block
   of M^k column sums x, the remaining sections into outer residuals
   r = s - c * outer. The inner block is augmented with the row c^2 |x|^2
   below -2c x, the residuals with a column of ones, so one matrix product
   per row tile of residuals gives c^2 |x|^2 - 2c r.x for every candidate
   of the tile. Tiles are sized to stay in L2; each row's minimum is taken
   in place and |r|^2 is added to the row minima only.
2. An exact rescore of near-ties. Kernel values differ from _exact_sq by
   at most a rigorous rounding bound tol (_kernel_tol), so every exact
   minimum lies within 2 tol of the kernel minimum. The candidates inside
   that window are rescored with _exact_sq and the smallest rank among
   the exact minima wins. The result therefore does not depend on the
   kernel's rounding or tile size.

A plain per-candidate oracle with the same scorer (encode_oracle)
cross-validates it in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import BetaVector, DesignMatrix, beta_unrank, synthesize

__all__ = [
    "EncodeResult",
    "SEARCH_CAP",
    "ORACLE_CAP",
    "encode_min_distance",
    "encode_oracle",
    "min_distortion_profile",
    "sample_power",
]

SEARCH_CAP = 1 << 26
ORACLE_CAP = 10 ** 6

STATUS_OK = "ok"
STATUS_VARIANCE_OVERFLOW = "variance_overflow"
STATUS_TRIVIAL_ZERO = "trivial_zero"

# Inner sections are expanded while the inner block stays this narrow, so
# the augmented block and one tile of kernel values fit in L2 together.
# At least one section stays outer: the inner block costs n * M^k to build
# and to augment, which must stay small against the scan's (n + 1) * M^L.
_INNER_COLS = 4096
# Bytes of kernel values per row tile: small enough that a tile, the
# augmented block and the residual rows stay in L2 (2 MiB per core on the
# machine this was tuned on, where 256 KiB measured fastest).
_TILE_BYTES = 1 << 18


@dataclass(frozen=True)
class EncodeResult:
    """status ok: beta is the exhaustive argmin and distortion its
    per-sample squared error. variance_overflow (|s|^2 >= rho2): no
    codeword, distortion None. trivial_zero (|s|^2 < D): the all-zero
    reconstruction already achieves distortion |s|^2 < D."""

    status: str
    beta: Optional[BetaVector]
    distortion: Optional[float]


def sample_power(x: np.ndarray) -> float:
    """Per-sample power |x|^2 = ||x||^2 / n."""
    x = np.asarray(x, dtype=float)
    return float(x @ x) / x.size


def _check_source(matrix: DesignMatrix, source) -> np.ndarray:
    source = np.asarray(source, dtype=float)
    if source.shape != (matrix.params.n,):
        raise ValueError(
            f"source shape {source.shape} does not match block length "
            f"({matrix.params.n},)")
    if not np.isfinite(source).all():
        raise ValueError("source holds non-finite samples")
    return source


def _gate(matrix: DesignMatrix, source: np.ndarray,
          D: Optional[float]) -> Tuple[float, Optional[EncodeResult]]:
    p = matrix.params
    D = p.D if D is None else float(D)
    z2 = sample_power(source)
    if z2 >= p.rho2:
        return D, EncodeResult(STATUS_VARIANCE_OVERFLOW, None, None)
    if z2 < D:
        return D, EncodeResult(STATUS_TRIVIAL_ZERO, None, z2)
    return D, None


def _exact_sq(matrix: DesignMatrix, source: np.ndarray, rank: int) -> float:
    """||source - codeword(rank)||^2 with the codeword freshly synthesized:
    the one scorer behind the search's decision, the oracle and the
    reported distortion."""
    p = matrix.params
    e = source - synthesize(matrix, beta_unrank(rank, p.L, p.M))
    return float(e @ e)


def _section_sums(matrix: DesignMatrix, lo: int, hi: int) -> np.ndarray:
    """Column sums over sections lo..hi-1, one column per rank of those
    sections (section lo least significant). Each sum adds its sections in
    increasing order, as synthesize does."""
    M = matrix.params.M
    block = matrix.section(lo)
    for l in range(lo + 1, hi):
        # new rank = old + M^(l-lo) * idx_l -> idx_l varies along the slower axis
        n, width = block.shape
        block = (matrix.section(l)[:, :, None] + block[:, None, :]) \
            .reshape(n, M * width)
    return block


def _kernel_tol(matrix: DesignMatrix, source: np.ndarray) -> float:
    """Uniform bound on |kernel value - _exact_sq| over all codewords.

    Every codeword error s - c sum_l a_l has norm at most
    Lam = ||s|| + c sum_l max_j ||a_lj|| (Cauchy-Schwarz bounds every dot
    product by norms). With unit roundoff u, the section sums, scalings
    and subtractions of either evaluation move the error vector by at most
    (L + 1) u Lam, the length-(n + 1) augmented product, its |x|^2 row and
    the added |r|^2 cost (3n + 5) u Lam^2, and the scorer's dot product
    n u Lam^2: (4n + 4L + 9) u Lam^2 to first order. The returned bound is
    four times that, which covers the higher-order terms and the rounding
    of Lam and of the rescore limit."""
    p = matrix.params
    col_norms = np.sqrt(np.einsum("ij,ij->j", matrix.entries, matrix.entries))
    lam = math.sqrt(float(source @ source)) \
        + p.c * float(col_norms.reshape(p.L, p.M).max(axis=1).sum())
    u = np.finfo(float).eps / 2.0
    return 4.0 * (4 * (p.n + p.L) + 9) * u * lam * lam


def _scan_rows(resid: np.ndarray, aug: np.ndarray) -> np.ndarray:
    """Row minima of resid @ aug, one L2-sized row tile at a time."""
    rows, width = resid.shape[0], aug.shape[1]
    rowmin = np.empty(rows)
    step = max(1, _TILE_BYTES // (8 * width))
    buf = np.empty((min(step, rows), width))
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        tile = buf[:stop - start]
        np.matmul(resid[start:stop], aug, out=tile)
        np.minimum.reduce(tile, axis=1, out=rowmin[start:stop])
    return rowmin


def _search_min(matrix: DesignMatrix, source: np.ndarray) -> Tuple[int, float]:
    """Rank of the distance-minimizing codeword (smallest rank on ties)
    and its exact squared distance _exact_sq (unnormalized)."""
    p = matrix.params
    n, L, M, c = p.n, p.L, p.M, p.c

    k = 1
    while k + 1 < L and M ** (k + 1) <= _INNER_COLS:
        k += 1
    inner = _section_sums(matrix, 0, k)
    width = inner.shape[1]
    aug = np.empty((n + 1, width))
    np.multiply(inner, -2.0 * c, out=aug[:n])
    aug[n] = (c * c) * np.einsum("ij,ij->j", inner, inner)

    # outer ranks over sections k..L-1 as rows; rank = row * width + column
    outer = np.zeros((1, n)) if k == L else _section_sums(matrix, k, L).T
    rows = outer.shape[0]
    resid = np.empty((rows, n + 1))
    np.subtract(source, c * outer, out=resid[:, :n])
    resid[:, n] = 1.0
    resid_sq = np.einsum("ij,ij->i", resid[:, :n], resid[:, :n])

    tol = _kernel_tol(matrix, source)
    if not math.isfinite(tol):
        raise ValueError("design matrix holds non-finite entries")

    rowmin = _scan_rows(resid, aug)
    rowmin += resid_sq

    limit = float(rowmin.min()) + 2.0 * tol
    best_rank, best = -1, math.inf
    # rows, then columns, ascending: ranks are visited in increasing order
    for i in np.flatnonzero(rowmin <= limit):
        values = resid[i] @ aug + resid_sq[i]
        for j in np.flatnonzero(values <= limit):
            rank = int(i) * width + int(j)
            d = _exact_sq(matrix, source, rank)
            if d < best:
                best_rank, best = rank, d
    return best_rank, best


def encode_min_distance(matrix: DesignMatrix, source,
                        D: Optional[float] = None) -> EncodeResult:
    """Encode one source block: gates first, then the exhaustive search.

    The reported distortion is the exact scorer's value at the argmin,
    so kernel rounding cannot leak into the result.
    """
    source = _check_source(matrix, source)
    p = matrix.params
    if p.n_codewords > SEARCH_CAP:
        raise ValueError(
            f"codebook holds {p.n_codewords} candidates > search cap {SEARCH_CAP}")
    D, gated = _gate(matrix, source, D)
    if gated is not None:
        return gated
    rank, sq = _search_min(matrix, source)
    return EncodeResult(STATUS_OK, beta_unrank(rank, p.L, p.M), sq / p.n)


def encode_oracle(matrix: DesignMatrix, source,
                  D: Optional[float] = None) -> EncodeResult:
    """Same contract as encode_min_distance, by scoring every codeword
    with the exact scorer in rank order. Test oracle only."""
    source = _check_source(matrix, source)
    p = matrix.params
    if p.n_codewords > ORACLE_CAP:
        raise ValueError(
            f"codebook holds {p.n_codewords} candidates > oracle cap {ORACLE_CAP}")
    D, gated = _gate(matrix, source, D)
    if gated is not None:
        return gated
    best_rank, best = 0, np.inf
    for rank in range(p.n_codewords):
        d = _exact_sq(matrix, source, rank)
        if d < best:
            best_rank, best = rank, d
    return EncodeResult(STATUS_OK, beta_unrank(best_rank, p.L, p.M), best / p.n)


def all_distortions(matrix: DesignMatrix, source) -> np.ndarray:
    """Per-sample squared distance to every codeword, indexed by rank."""
    source = _check_source(matrix, source)
    p = matrix.params
    if p.n_codewords > ORACLE_CAP:
        raise ValueError(
            f"codebook holds {p.n_codewords} candidates > cap {ORACLE_CAP}")
    block = _section_sums(matrix, 0, p.L)  # n x M^L column sums
    resid = source[:, None] - p.c * block
    return np.einsum("ij,ij->j", resid, resid) / p.n


def min_distortion_profile(matrix: DesignMatrix, source) -> List[Tuple[float, int]]:
    """Exact histogram of per-sample distortion over the whole codebook,
    ascending; counting entries below D gives the number of codewords
    covering the source."""
    dists = all_distortions(matrix, source)
    values, counts = np.unique(dists, return_counts=True)
    return [(float(v), int(c)) for v, c in zip(values, counts)]
