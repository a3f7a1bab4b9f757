"""Exhaustive minimum-distance encoding.

The encoder first applies the two gates: a source with per-sample power
|s|^2 >= rho2 is declared an error (variance_overflow), and one with
|s|^2 < D is trivially compressed by the all-zero reconstruction
(trivial_zero). Otherwise every one of the M^L codewords is examined and
the global argmin of ||s - A beta|| is returned, ties broken by smallest
mixed-radix rank.

Every sum of selected columns comes from one gather, _column_sums: for
each rank over a range of sections, the column that each of its base-M
digits picks, added in increasing section order as synthesize adds them.

Every codeword is scored by one exact scorer, _exact_sq: the squared norm
of source - synthesize(beta), with the codeword built by that gather, for
any number of ranks, of one design or of a stack of designs
(all_distortions, the ensemble side of bound validation). The scorer
works through the ranks _SCORE_CHUNK at a time, so each caller makes one
call per batch of ranks. The search finds its argmin in one pass over
the kernel tiles, in two steps per tile:

1. A float32 tiled kernel. The first k sections are gathered into an
   inner block of M^k column sums x; the remaining sections form the
   outer ranks, whose residual rows r = s - c * outer are built a chunk
   at a time inside the tile loop, from the outer section sums kept as
   two gathered factors. The inner block is augmented with the rows
   c^2 |x|^2 and ones below -2c x, the residual rows with the columns 1
   and |r|^2 (computed in float64), so one float32 matrix product per row
   tile gives the whole distance |r|^2 - 2c r.x + c^2 |x|^2 of every
   candidate of the tile, and one contiguous minimum per tile is all the
   scan needs to decide whether the tile is rescored. Before the cast to float32, every input is scaled by a
   power of two near 1 / Lam, where Lam bounds every codeword error norm;
   the scaling is exact, and float32 then neither overflows nor loses the
   bound to underflow. Tiles are sized to stay in L2 and in the BLAS
   small-matrix path, and the inner block and the tile start on a cache
   line.
2. An exact rescore of the window, during the same pass. Kernel values
   differ from the scaled _exact_sq by at most a rigorous rounding bound
   tol (_kernel_tol, at the float32 unit roundoff), so every exact
   minimum lies within 2 tol of the kernel minimum. As each tile comes
   out of the product, its candidates within 2 tol of the kernel minimum
   so far are rescored with _exact_sq, one call per tile, and a tile
   whose minimum lies above that limit is skipped; the smallest rank
   among the exact minima wins. The result therefore does not depend on
   the kernel's rounding, precision or tile size.

A plain oracle that scores every rank with the same scorer
(encode_oracle) cross-validates it in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import BetaVector, DesignMatrix, SparcParams, beta_unrank, synthesize

__all__ = [
    "EncodeResult",
    "SEARCH_CAP",
    "ORACLE_CAP",
    "encode_min_distance",
    "encode_oracle",
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
# and to augment, which must stay small against the scan's (n + 2) * M^L.
_INNER_COLS = 4096
# Bytes of float32 kernel values per row tile: small enough that a tile,
# the augmented block and the residual rows stay in L2 (2 MiB per core on
# the machine this was tuned on, where 256 KiB measured fastest).
_TILE_BYTES = 1 << 18
# Multiply-adds per tile product. OpenBLAS runs products of at most 10^6
# through its unpacked single-thread small-matrix kernel; on the machine
# this was tuned on that was 2x faster per candidate for a 229 x 17 x 256
# tile than the packed, threaded path took for 256 x 17 x 256.
_TILE_MACS = 10 ** 6
# Codewords per batch of the exact scorer: bounds its memory to
# _SCORE_CHUNK * n float64 per design however many ranks it scores.
_SCORE_CHUNK = 1 << 12
# Byte alignment of the float32 GEMM operand and output buffers (one cache
# line). OpenBLAS's float32 kernels ran 10-40% slower per tile when the
# inner block or the tile started 16, 32 or 48 bytes past a line, and
# malloc's offset for a given buffer changes from process to process.
_ALIGN = 64


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


def _check_source(params: SparcParams, source) -> np.ndarray:
    source = np.asarray(source, dtype=float)
    if source.shape != (params.n,):
        raise ValueError(
            f"source shape {source.shape} does not match block length "
            f"({params.n},)")
    if not np.isfinite(source).all():
        raise ValueError("source holds non-finite samples")
    return source


def _gate(matrix: DesignMatrix, source: np.ndarray) -> Optional[EncodeResult]:
    p = matrix.params
    z2 = sample_power(source)
    if z2 >= p.rho2:
        return EncodeResult(STATUS_VARIANCE_OVERFLOW, None, None)
    if z2 < p.D:
        return EncodeResult(STATUS_TRIVIAL_ZERO, None, z2)
    return None


def _aligned_empty(shape: Tuple[int, int]) -> np.ndarray:
    """Uninitialized C-order float32 array starting on an _ALIGN boundary."""
    size = shape[0] * shape[1] * 4
    buf = np.empty(size + _ALIGN, dtype=np.uint8)
    start = -buf.ctypes.data % _ALIGN
    return buf[start:start + size].view(np.float32).reshape(shape)


def _column_sums(columns: np.ndarray, M: int, ranks: np.ndarray,
                 lo: int, hi: int) -> np.ndarray:
    """Sum of the columns that each rank selects in sections lo..hi-1,
    (..., len(ranks), n) for columns (..., M*L, n). Base-M digit l - lo of
    a rank (least significant first) picks the column of section l, and
    the columns are added in increasing section order, as synthesize adds
    them. An empty range gives zero sums."""
    if lo == hi:
        return np.zeros(columns.shape[:-2] + (len(ranks), columns.shape[-1]))
    total = np.take(columns, lo * M + ranks % M, axis=-2)
    for l in range(lo + 1, hi):
        total += np.take(columns, l * M + ranks // M ** (l - lo) % M, axis=-2)
    return total


def _exact_sq(params: SparcParams, columns: np.ndarray, source: np.ndarray,
              ranks: np.ndarray) -> np.ndarray:
    """||source - codeword(rank)||^2 for each rank, the one scorer behind
    the search's decision, the oracle, the reported distortion and
    all_distortions.

    columns holds the design's columns, (..., M*L, n), with any leading
    matrix axes; the result is (..., len(ranks)). Ranks are scored
    _SCORE_CHUNK at a time, so memory stays bounded however many are
    asked for. Each codeword is accumulated as synthesize does: the
    selected columns added elementwise in section order (_column_sums),
    then scaled by c. Each error vector's squared norm is a stacked
    (1, n) @ (n, 1) product, which numpy evaluates with the same dot
    product as e @ e, so every value equals float(e @ e) on
    source - synthesize(beta_unrank(rank)) bit for bit (tests check
    this)."""
    columns = np.ascontiguousarray(columns)
    ranks = np.asarray(ranks, dtype=np.int64)
    out = np.empty(columns.shape[:-2] + ranks.shape)
    for lo in range(0, len(ranks), _SCORE_CHUNK):
        cw = _column_sums(columns, params.M, ranks[lo:lo + _SCORE_CHUNK],
                          0, params.L)
        cw *= params.c
        e = np.subtract(source, cw, out=cw)
        out[..., lo:lo + _SCORE_CHUNK] = \
            (e[..., None, :] @ e[..., :, None])[..., 0, 0]
    return out


def _kernel_tol(matrix: DesignMatrix, source: np.ndarray) -> Tuple[float, float]:
    """Power-of-two scale for the kernel's inputs, and a uniform bound on
    |kernel value - scale^2 _exact_sq| over all codewords, in scaled units.

    Every codeword error s - c sum_l a_l has norm at most
    Lam = ||s|| + c sum_l max_j ||a_lj|| (Cauchy-Schwarz bounds every dot
    product by norms). The scale is the power of two 2^-e with
    Lam = m 2^e, m in [1/2, 1), so the scaled Lam' = m: multiplying by it
    is exact in float64 (bar float64 underflow, whose error is far below
    tau below), and every scaled quantity the kernel forms (the
    residual rows, -2c x, c^2 |x|^2 and their product, all bounded by
    4 Lam'^2 < 4) can neither overflow float32 nor fall below it except
    where its contribution is absolutely tiny.

    Let u = 2^-24 bound the unit roundoff of every operation, float64
    included, and tau = 2^-126 (the smallest normal float32) the absolute
    error of any float32 operation or cast whose result underflows, with
    or without flush to zero. To first order in u:
    - the float64 section sums, scalings and subtractions round L + 2
      times on the kernel's way to r - c x (the outer terms s - c slow
      and c fast are formed apart) and L + 1 times in the scorer, each
      moving an error vector of norm at most Lam' by at most u Lam', and
      its square by 2 u Lam'^2: 4L + 6;
    - the scorer's dot product: n;
    - |r|^2, computed in float64 and rounded to float32: n + 1;
    - rounding r and c x to float32 moves the cross term 2c r.x by
      4 u Lam'^2, and c^2 |x|^2, computed in float64 and rounded to
      float32, moves by (n + 2) u Lam'^2: n + 6;
    - the length-(n + 2) float32 product sums terms whose magnitudes total
      at most 4 Lam'^2 (2 Lam'^2 for the cross term, Lam'^2 each for
      |r|^2 and c^2 |x|^2): 4 (n + 2).
    That is (7n + 4L + 21) u Lam'^2. Underflow adds at most tau per
    float32 cast of the 2n + 2 inputs that reach a kernel value (times a
    factor below 2, the other factor's bound) and per operation of the
    product, n multiplications and n + 1 additions: (6n + 5) tau. The
    returned bound is four times the sum, which covers the higher-order
    terms and the rounding of Lam and of the rescore limit."""
    p = matrix.params
    col_norms = np.sqrt(np.einsum("ij,ij->j", matrix.entries, matrix.entries))
    lam = math.sqrt(float(source @ source)) \
        + p.c * float(col_norms.reshape(p.L, p.M).max(axis=1).sum())
    if not math.isfinite(lam):
        raise ValueError("design matrix holds non-finite entries")
    mant, exp = math.frexp(lam)
    u, tau = 2.0 ** -24, 2.0 ** -126
    tol = 4.0 * ((7 * p.n + 4 * p.L + 21) * u * mant * mant
                 + (6 * p.n + 5) * tau)
    return math.ldexp(1.0, -exp), tol


class _Plan:
    """One search's float32 kernel inputs, scaled by the power of two from
    _kernel_tol.

    The first k sections form the inner block of M^k column sums x, the
    rest the outer ranks, rank = outer * width + inner. The outer section
    sums are kept as two factors: fast, over sections k..L-2 (or none),
    and slow, over the last section, so outer rank j * len(fast) + i has
    the residual row r = (s - c slow[j]) - c fast[i]. The plan stores
    those two scaled terms, and _tiles builds the residual rows from them
    a chunk at a time."""

    def __init__(self, matrix: DesignMatrix, source: np.ndarray):
        p = matrix.params
        n, L, M = p.n, p.L, p.M
        self.scale, self.tol = _kernel_tol(matrix, source)
        cs = p.c * self.scale
        k = 1
        while k + 1 < L and M ** (k + 1) <= _INNER_COLS:
            k += 1
        columns = matrix.entries.T
        cx = _column_sums(columns, M, np.arange(M ** k), 0, k) * cs
        self.width = len(cx)
        # augmented inner block: -2c x above c^2 |x|^2 and ones, so that
        # the row [r, 1, |r|^2] times it gives |r|^2 - 2c r.x + c^2 |x|^2
        self.aug = _aligned_empty((n + 2, self.width))
        np.multiply(cx.T, -2.0, out=self.aug[:n])
        self.aug[n] = np.einsum("ij,ij->i", cx, cx)
        self.aug[n + 1] = 1.0
        h = max(k, L - 1)
        # one row per rank, so each residual row is contiguous
        self.fast = _column_sums(columns, M, np.arange(M ** (h - k)), k, h) * cs
        self.slow = source * self.scale \
            - _column_sums(columns, M, np.arange(M ** (L - h)), h, L) * cs
        self.rows = len(self.fast) * len(self.slow)
        # kernel rows per tile, and residual rows per chunk built at once,
        # within _TILE_BYTES of float64
        self.step = max(1, min(_TILE_BYTES // (4 * self.width),
                               _TILE_MACS // ((n + 2) * self.width)))
        self.chunk = max(1, _TILE_BYTES // (8 * n))


def _augmented(resid: np.ndarray) -> np.ndarray:
    """The float32 rows [r, 1, |r|^2] of residual rows r, with |r|^2
    computed in float64."""
    n = resid.shape[1]
    lhs = np.empty((resid.shape[0], n + 2), dtype=np.float32)
    lhs[:, :n] = resid
    lhs[:, n] = 1.0
    lhs[:, n + 1] = np.einsum("ij,ij->i", resid, resid)
    return lhs


def _tiles(plan: _Plan):
    """Every row tile of float32 kernel values |r|^2 - 2c r.x + c^2 |x|^2,
    as (first outer rank, tile), in increasing rank order; the tiles' rows
    partition [0, plan.rows). Each tile is a view of one buffer that the
    next tile overwrites.

    Residual rows are built a chunk of consecutive outer ranks at a time:
    part of one block of the last section, or whole blocks."""
    fast_rows, slow_rows = len(plan.fast), len(plan.slow)
    part = min(fast_rows, plan.chunk)
    blocks = max(1, plan.chunk // fast_rows)
    out = _aligned_empty((min(plan.step, plan.rows), plan.width))
    for j in range(0, slow_rows, blocks):
        for i in range(0, fast_rows, part):
            resid = plan.slow[j:j + blocks, None] - plan.fast[None, i:i + part]
            lhs = _augmented(resid.reshape(-1, plan.fast.shape[1]))
            for start in range(0, len(lhs), plan.step):
                tile = out[:min(plan.step, len(lhs) - start)]
                np.matmul(lhs[start:start + plan.step], plan.aug, out=tile)
                yield j * fast_rows + i + start, tile


def _search_min(matrix: DesignMatrix, source: np.ndarray) -> Tuple[int, float]:
    """Rank of the distance-minimizing codeword (smallest rank on ties)
    and its exact squared distance _exact_sq (unnormalized).

    One pass over the kernel tiles keeps limit = low + 2 tol, where low is
    the running kernel minimum. A tile whose minimum exceeds limit is
    skipped; otherwise low takes in the tile's minimum, each of its
    candidates with a kernel value <= limit is rescored with _exact_sq,
    one call per tile, and a result replaces the best only when its exact
    score is strictly smaller. This is the exact argmin:
    - every exact minimum lies within 2 tol of the final kernel minimum
      K, since kernel values are within tol of the scaled exact scores;
      low never falls below K, so limit never falls below K + 2 tol, and
      every candidate of that final window was rescored when its tile was
      scanned;
    - tiles come in rank order, each one's values in row-major order,
      which is rank order, and only a strictly smaller exact score wins, so
      ties go to the smallest rank.
    Memory stays bounded by one tile's candidates."""
    plan = _Plan(matrix, source)
    best_rank, best, limit = -1, math.inf, math.inf
    for lo, tile in _tiles(plan):
        tile_min = float(tile.min())
        if tile_min > limit:
            continue
        # rounding is monotonic, so this is low + 2 tol for the new low
        limit = min(limit, tile_min + 2.0 * plan.tol)
        # a float32 value is <= limit exactly when it is <= limit rounded to
        # float32, so comparing in float32 keeps the whole window
        ranks = lo * plan.width + np.flatnonzero(tile <= limit)
        scores = _exact_sq(matrix.params, matrix.entries.T, source, ranks)
        at = int(np.argmin(scores))
        if scores[at] < best:
            best_rank, best = int(ranks[at]), float(scores[at])
    return best_rank, best


def encode_min_distance(matrix: DesignMatrix, source) -> EncodeResult:
    """Encode one source block: gates first, then the exhaustive search.

    The reported distortion is the exact scorer's value at the argmin,
    so kernel rounding cannot leak into the result.
    """
    source = _check_source(matrix.params, source)
    p = matrix.params
    if p.n_codewords > SEARCH_CAP:
        raise ValueError(
            f"codebook holds {p.n_codewords} candidates > search cap {SEARCH_CAP}")
    gated = _gate(matrix, source)
    if gated is not None:
        return gated
    rank, sq = _search_min(matrix, source)
    return EncodeResult(STATUS_OK, beta_unrank(rank, p.L, p.M), sq / p.n)


def encode_oracle(matrix: DesignMatrix, source) -> EncodeResult:
    """Same contract as encode_min_distance, by scoring every codeword
    with the exact scorer and taking the first minimum. Test oracle only."""
    source = _check_source(matrix.params, source)
    p = matrix.params
    if p.n_codewords > ORACLE_CAP:
        raise ValueError(
            f"codebook holds {p.n_codewords} candidates > oracle cap {ORACLE_CAP}")
    gated = _gate(matrix, source)
    if gated is not None:
        return gated
    scores = _exact_sq(p, matrix.entries.T, source, np.arange(p.n_codewords))
    rank = int(np.argmin(scores))
    return EncodeResult(STATUS_OK, beta_unrank(rank, p.L, p.M),
                        float(scores[rank]) / p.n)


def all_distortions(params: SparcParams, columns: np.ndarray,
                    source) -> np.ndarray:
    """Per-sample squared distance from source to every codeword of each
    design in columns, (..., M*L, n) as _exact_sq takes them: the result
    is (..., M^L), indexed by rank, and equals _exact_sq / n bit for bit."""
    source = _check_source(params, source)
    count = params.n_codewords
    if count > ORACLE_CAP:
        raise ValueError(f"codebook holds {count} candidates > cap {ORACLE_CAP}")
    return _exact_sq(params, columns, source, np.arange(count)) / params.n
