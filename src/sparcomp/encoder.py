"""Exhaustive minimum-distance encoding.

The encoder first applies the two gates: a source with per-sample power
|s|^2 >= rho2 is declared an error (variance_overflow), and one with
|s|^2 < D is trivially compressed by the all-zero reconstruction
(trivial_zero). Otherwise every one of the M^L codewords is examined and
the global argmin of ||s - A beta|| is returned, ties broken by smallest
mixed-radix rank.

Every sum of selected columns is the column that each base-M digit of
a rank picks, added in increasing section order as synthesize adds them.
One gather, _column_sums, forms it for any ranks; the search's inner
block, which holds every rank of its sections, is the same sums built by
broadcasting (_block_sums), bit for bit.

Every codeword is scored by one exact scorer, _exact_sq: the squared norm
of source - synthesize(beta), with the codeword built by that gather, for
any number of ranks, of one design or of a stack of designs
(all_distortions, the ensemble side of bound validation). The scorer
works through the ranks _SCORE_CHUNK at a time, so each caller makes one
call per batch of ranks. The search finds its argmin in one pass over
the kernel tiles and one rescore:

1. A float32 tiled kernel. The first k sections are summed into an
   inner block of M^k column sums x; the remaining sections form the
   outer ranks, whose residual rows r = s - c * outer are built a chunk
   at a time inside the tile loop, from the outer section sums kept as
   two gathered factors. The inner block is augmented with the rows
   c^2 |x|^2 and ones below -2c x, the residual rows with the columns 1
   and |r|^2 (computed in float64), so one float32 matrix product per
   tile gives the whole distance |r|^2 - 2c r.x + c^2 |x|^2 of every
   candidate of the tile, and one contiguous minimum per tile is all the
   scan needs to decide whether the tile joins the rescore window. Before
   the cast to float32, every input is scaled by a power of two near
   1 / Lam, where Lam bounds every codeword error norm; the scaling is
   exact, and float32 then neither overflows nor loses the bound to
   underflow. Tiles are sized to stay in L2 and in the BLAS small-matrix
   path, the inner block and the tile start on a cache line, and each row
   of the inner block is padded by one line (_padded). These buffers and
   the residual chunks are views of per-thread workspace buffers
   (_aligned_empty), reused from one search to the next.
   The outer rows come in one order, chosen by the plan, and are built
   a chunk at a time. When the outer rows fill at least _PRUNE_TILES
   full-width tiles, the search also skips candidates by their
   projection on u = s / |s|: the error of a candidate is at least
   |u.r - u.(c x)|. The inner block's columns are ordered by u.(c x) and
   the rows by u.r (separable over the two factors, so no row is built
   to find it). The first chunk is the first tile, multiplied whole;
   after it, each chunk is clipped to the rows whose projection lies
   within rho of some column's, and each tile multiplies only the
   contiguous columns whose projection lies within rho of its rows',
   where rho comes from the kernel minimum so far; rows left out by the
   clip are never built. Smaller plans take the rows in rank order and
   multiply every row by the whole inner block.
2. An exact rescore of the window. Kernel values differ from the scaled
   _exact_sq by at most a rigorous rounding bound tol (_kernel_tol, at
   the float32 unit roundoff), so every exact minimum lies within 2 tol
   of the kernel minimum, and rho keeps every exact minimum among the
   multiplied candidates (_search_min). As each tile comes out of the
   product, its candidates within 2 tol of the kernel minimum so far stay
   pending, and those above a lower limit are dropped; the pending ones
   are rescored with _exact_sq once, at the end of the scan (or early,
   keeping only the best, when more than a tile's worth pile up), and the
   smallest (exact score, rank) wins. The result therefore does not
   depend on the kernel's rounding, precision, tile size or the order
   of the rows.

A plain oracle that scores every rank with the same scorer
(encode_oracle) cross-validates it in tests.
"""

from __future__ import annotations

import math
import threading
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
# Bytes of float64 residual rows built at once. The chunk's arrays are
# workspace buffers (_aligned_empty), kept from one search to the next:
# blocks this large, allocated and freed per search, were unmapped and
# faulted back in by every search in a process whose glibc mmap threshold
# was still at its initial 128 KiB. Smaller chunks cost 16-3-256 time: its
# column slices are about 14 wide, so its tiles are as tall as a chunk
# (64 KiB chunks made that search about 20% slower).
_CHUNK_BYTES = 3 << 16
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


class _Workspace(threading.local):
    """The calling thread's search buffers: one byte buffer per slot name."""

    def __init__(self):
        self.slots = {}


_WORKSPACE = _Workspace()


def _aligned_empty(slot: str, shape: Tuple[int, ...],
                   dtype=np.float32) -> np.ndarray:
    """Uninitialized C-order array starting on an _ALIGN boundary, a view
    of the calling thread's buffer for slot. The buffer grows to the
    largest size asked for so far and is kept, so the array is valid only
    until the next request for the same slot in the same thread. The slot
    keeps the buffer's aligned part, so a request reads no address
    (ctypes.data costs about as much as the rest of the request)."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    buf = _WORKSPACE.slots.get(slot)
    if buf is None or len(buf) < size:
        raw = np.empty(size + _ALIGN, dtype=np.uint8)
        buf = _WORKSPACE.slots[slot] = raw[-raw.ctypes.data % _ALIGN:]
    return buf[:size].view(dtype).reshape(shape)


def _column_sums(columns: np.ndarray, M: int, ranks: np.ndarray,
                 lo: int, hi: int) -> np.ndarray:
    """Sum of the columns that each rank selects in sections lo..hi-1,
    (..., len(ranks), n) for columns (..., M*L, n). Base-M digit l - lo of
    a rank (least significant first) picks the column of section l, and
    the columns are added in increasing section order, as synthesize adds
    them. An empty range gives zero sums."""
    if lo == hi:
        return np.zeros(columns.shape[:-2] + (len(ranks), columns.shape[-1]))
    rest, digit = np.divmod(ranks, M)
    total = np.take(columns, lo * M + digit, axis=-2)
    for l in range(lo + 1, hi):
        rest, digit = np.divmod(rest, M)
        total += np.take(columns, l * M + digit, axis=-2)
    return total


def _padded(cols: int) -> int:
    """Row length, in float32, of a block that holds cols columns: whole
    cache lines plus one. Rows of 4096 float32 (16 KiB) would all start at
    the same offset within a 4 KiB page, so the 16 rows of a tile's inner
    block would fall in the same L1 sets, more than its ways hold; the
    tile product then also ran up to a third slower or faster with the
    page offsets of the residual rows and the tile buffer, which differ
    from process to process. One extra line starts each row one set
    further."""
    line = _ALIGN // 4
    return -(-cols // line) * line + line


def _block_sums(entries: np.ndarray, M: int, k: int) -> np.ndarray:
    """The inner block transposed, (n, M^k): column q is the sum of the
    columns that rank q selects in sections 0..k-1, for entries (n, M*L).
    It equals _column_sums over np.arange(M^k), transposed, bit for bit:
    the same columns are added in the same section order. Broadcasting
    one section at a time instead of gathering leaves the result as the
    only block-sized array, written once and contiguous into the slot
    "inner" (_aligned_empty); the partial sums alternate with it."""
    n = entries.shape[0]
    if k == 1:
        total = _aligned_empty("inner", (n, M), np.float64)
        np.copyto(total, entries[:, :M])
        return total
    total = entries[:, :M]
    for l in range(1, k):
        out = _aligned_empty("inner" if (k - l) % 2 else "inner_part",
                             (n, M ** (l + 1)), np.float64)
        np.add(total[:, None, :], entries[:, l * M:(l + 1) * M, None],
               out=out.reshape(n, M, -1))
        total = out
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


# Plans whose outer rows fill at least this many full-width tiles order
# their candidates by projection on the source and skip by the projection
# bound (_search_min). In a smaller plan the first tiles are multiplied in
# full before the bound can skip anything, and sorting the inner block and
# the rows costs more than the few tiles left could save.
_PRUNE_TILES = 8


def _unit(v: np.ndarray) -> np.ndarray:
    """v / |v| in float64, or the first axis vector for v = 0. The norm is
    taken of v / max|v|, so it can neither overflow nor underflow."""
    peak = float(np.abs(v).max())
    if peak == 0.0:
        u = np.zeros_like(v)
        u[0] = 1.0
        return u
    w = v / peak
    return w / math.sqrt(float(w @ w))


class _Plan:
    """One search's float32 kernel inputs, scaled by the power of two from
    _kernel_tol.

    The first k sections form the inner block of M^k column sums x, the
    rest the outer ranks, rank = outer * width + inner. The outer section
    sums are kept as two factors: fast, over sections k..L-2 (or none),
    and slow, over the last section, so outer rank j * len(fast) + i has
    the residual row r = (s - c slow[j]) - c fast[i]. The plan stores
    those two scaled terms, and _rows builds the rows from them.

    order lists the outer ranks in the order _tiles takes them. A plan
    whose rows fill at least _PRUNE_TILES full-width tiles projects onto
    the unit vector u along the source: perm orders the columns of the
    augmented inner block by increasing px = u.(c x), and order the rows
    by increasing pr = u.slow[j] - u.fast[i], found without forming the
    rows; px and pr are kept in those orders. A smaller plan keeps both
    in rank order (perm and order are the identity), and px and pr are
    None.

    The inner and augmented blocks live in the thread's workspace
    (_aligned_empty), as do the buffers of _tiles, and the next search
    reuses them: a plan's arrays are valid until the next plan is built in
    the same thread."""

    def __init__(self, matrix: DesignMatrix, source: np.ndarray):
        p = matrix.params
        n, L, M = p.n, p.L, p.M
        self.scale, self.tol = _kernel_tol(matrix, source)
        cs = p.c * self.scale
        k = 1
        while k + 1 < L and M ** (k + 1) <= _INNER_COLS:
            k += 1
        self.width = M ** k
        h = max(k, L - 1)
        columns = matrix.entries.T
        # one row per rank, so each residual row is contiguous
        self.fast = _column_sums(columns, M, np.arange(M ** (h - k)), k, h) * cs
        self.slow = source * self.scale \
            - _column_sums(columns, M, np.arange(M ** (L - h)), h, L) * cs
        self.rows = len(self.fast) * len(self.slow)
        # kernel values per tile, within _TILE_BYTES of float32 and
        # _TILE_MACS multiply-adds (step rows of the whole inner block), and
        # residual rows per chunk built at once, within _CHUNK_BYTES of float64
        self.cap = min(_TILE_BYTES // 4, _TILE_MACS // (n + 2))
        self.step = max(1, self.cap // self.width)
        self.chunk = max(1, _CHUNK_BYTES // (8 * n))
        xt = _block_sums(matrix.entries, M, k)
        xt *= cs
        # augmented inner block: -2c x above c^2 |x|^2 and ones, so that
        # the row [r, 1, |r|^2] times it gives |r|^2 - 2c r.x + c^2 |x|^2;
        # a view of the first width columns of a padded block (_padded)
        block = _aligned_empty("aug", (n + 2, _padded(self.width)))
        self.aug = block[:, :self.width]
        np.multiply(xt, -2.0, out=self.aug[:n])
        self.aug[n] = np.einsum("ij,ij->j", xt, xt)
        self.aug[n + 1] = 1.0
        self.perm = np.arange(self.width)
        self.order = np.arange(self.rows)
        self.px = self.pr = None
        if self.rows >= _PRUNE_TILES * self.step:
            u = _unit(source)
            # einsum, not a BLAS product: no BLAS thread wakes per search
            px = np.einsum("i,ij->j", u, xt)
            del xt
            self.perm = np.argsort(px)
            self.px = px[self.perm]
            # one take permutes the columns into a second padded block, whose
            # padding columns copy column 0 and are never read; mode "clip"
            # (a no-op for these indices) writes straight into it, where the
            # default mode would buffer a block-sized copy
            cols = np.zeros(block.shape[1], dtype=np.intp)
            cols[:self.width] = self.perm
            self.aug = np.take(block, cols, axis=1, mode="clip",
                               out=_aligned_empty("aug_sorted", block.shape)
                               )[:, :self.width]
            pr = ((self.slow @ u)[:, None] - self.fast @ u).reshape(-1)
            self.order = np.argsort(pr)
            self.pr = pr[self.order]


def _rows(plan: _Plan, outer: np.ndarray) -> np.ndarray:
    """The float32 rows [r, 1, |r|^2] of the given outer ranks' residual
    rows r, computed in float64, in the workspace slot "lhs"
    (_aligned_empty). Mode "clip" (a no-op for these indices) lets np.take
    write into its out array unbuffered."""
    j, i = np.divmod(outer, len(plan.fast))
    n = plan.fast.shape[1]
    resid = np.take(plan.slow, j, axis=0, mode="clip",
                    out=_aligned_empty("resid", (len(outer), n), np.float64))
    resid -= np.take(plan.fast, i, axis=0, mode="clip",
                     out=_aligned_empty("resid_fast", resid.shape, np.float64))
    lhs = _aligned_empty("lhs", (len(outer), n + 2))
    lhs[:, :n] = resid
    lhs[:, n] = 1.0
    lhs[:, n + 1] = np.einsum("ij,ij->i", resid, resid)
    return lhs


def _tiles(plan: _Plan, radius=lambda: math.inf):
    """Every multiplied tile of float32 kernel values
    |r|^2 - 2c r.x + c^2 |x|^2, as (outer, lo, tile): tile[a, b] belongs to
    outer rank outer[a] and inner rank plan.perm[lo + b]. Each tile is a
    view of one workspace buffer that the next tile overwrites.

    One loop takes the outer ranks in plan.order and builds their rows
    (_rows) a chunk at a time, cutting each chunk into tiles. Without
    projections (plan.px is None), each tile is step rows by the whole
    inner block, and the tiles partition all candidates in rank order.

    With projections, the first chunk is the first tile: step rows at
    full width, while rho is still infinite. Then radius() gives the
    current rho before each chunk and each tile:
    - each later chunk is clipped to the rows whose pr lies in
      [px[0] - rho, px[-1] + rho] (two searchsorted calls on the sorted
      pr); the rows outside are never built;
    - a tile of rows with pr in [a, b] multiplies only the columns with px
      in [a - rho, b + rho), at most a cap's worth of candidates.
    So no candidate is multiplied twice, and every candidate left out had
    |pr - px| >= rho, up to the rounding of a - rho and b + rho, for the
    rho of the moment it was left out."""
    width, px, pr = plan.width, plan.px, plan.pr
    buf = _aligned_empty("tile", (min(plan.rows * width, max(plan.cap, width)),))
    start, stop = 0, plan.rows
    size = plan.chunk if px is None else plan.step
    while start < stop:
        outer = plan.order[start:min(start + size, stop)]
        lhs = _rows(plan, outer)
        at = 0
        while at < len(lhs):
            rows, lo, hi = min(plan.step, len(lhs) - at), 0, width
            if px is not None:
                rho = radius()
                lo, hi = np.searchsorted(px, (pr[start + at] - rho,
                                              pr[start + at] + rho))
                rows = min(len(lhs) - at, max(1, plan.cap // max(1, hi - lo)))
                hi = np.searchsorted(px, pr[start + at + rows - 1] + rho)
                if rows * (hi - lo) > plan.cap:
                    rows = max(1, plan.cap // (hi - lo))
                    hi = np.searchsorted(px, pr[start + at + rows - 1] + rho)
            if hi > lo:
                tile = buf[:rows * (hi - lo)].reshape(rows, hi - lo)
                np.matmul(lhs[at:at + rows], plan.aug[:, lo:hi], out=tile)
                yield outer[at:at + rows], int(lo), tile
            at += rows
        start, size = start + len(outer), plan.chunk
        if px is not None:
            rho = radius()
            start = max(start, int(np.searchsorted(pr, px[0] - rho)))
            stop = int(np.searchsorted(pr, px[-1] + rho, side="right"))


def _rescored(params: SparcParams, columns: np.ndarray, source: np.ndarray,
              pending: list, best: Tuple[float, int]) -> Tuple[float, int]:
    """The smallest (exact score, rank) among best and the ranks of the
    pending (ranks, kernel values) pairs, with one _exact_sq call."""
    if not pending:
        return best
    ranks = np.concatenate([r for r, _ in pending])
    scores = _exact_sq(params, columns, source, ranks)
    at = np.lexsort((ranks, scores))[0]
    return min(best, (float(scores[at]), int(ranks[at])))


def _search_min(matrix: DesignMatrix, source: np.ndarray) -> Tuple[int, float]:
    """Rank of the distance-minimizing codeword (smallest rank on ties)
    and its exact squared distance _exact_sq (unnormalized).

    One pass over the kernel tiles keeps limit = low + 2 tol, where low is
    the running kernel minimum over the candidates multiplied so far. A
    tile whose minimum exceeds limit is passed over; otherwise low takes
    in the tile's minimum, and the tile's candidates with a kernel value
    <= limit join the pending window as (rank, kernel value) pairs. When
    limit falls, the pending pairs above it are dropped. The pending ranks
    are rescored with _exact_sq once, at the end of the scan, or earlier,
    keeping only the best, whenever more than plan.cap are pending; the
    result is the smallest (exact score, rank).

    A plan with projections, onto the computed unit vector u along the
    source, also gives _tiles the radius
        rho = sqrt(limit) (1 + 2 (n + 8) eps) + 2 (3n + 8) eps
    in scaled units, with eps = 2^-24 the roundoff bound of _kernel_tol,
    and _tiles leaves out only candidates whose projected error |pr - px|
    reaches rho: the columns outside a tile's slice, and every column of
    a row that the clip of its chunk leaves out, whose pr lies outside
    [px[0] - rho, px[-1] + rho] and so more than rho from every px. Each
    candidate q left out has a scaled exact score E(q) strictly above
    that of a multiplied candidate:
    - Let v = slow[j] - fast[i] - c x, in exact arithmetic on the plan's
      float64 values. As in _kernel_tol, the plan's path to v and the
      scorer's codeword round L + 2 and L + 1 times and the scorer's dot
      product n times, so |E(q) - |v|^2| <= (4L + 6 + n) eps Lam'^2 < tol.
    - px = u.(c x), u.slow[j] and u.fast[i] are length-n dot products of
      u, |u| <= 1 + (n + 3) eps, with vectors of norm at most Lam' < 1, so
      each errs by at most n eps to first order, and pr = u.slow[j] -
      u.fast[i] rounds once more, by at most 2 eps. Rounding a - rho and
      b + rho moves the slice ends by at most (2 + rho) eps, as
      |pr| <= 2 |u| Lam'. So |u.v| >= rho (1 - eps) - (3n + 4) eps, and
      |v| >= |u.v| / |u|. The margins in rho are at least twice these
      terms, which leaves room for the higher-order terms and for the
      rounding of limit, of its square root and of rho itself:
      |v|^2 > low + 2 tol.
    - Hence E(q) > |v|^2 - tol > low + tol >= E(q*), where q* is the
      multiplied candidate whose kernel value is low at the moment q was
      left out (low only falls).
    So every exact minimum is multiplied. Its kernel value is at most its
    exact score plus tol, so at most the final kernel minimum plus 2 tol;
    limit never falls below that, so the exact minimum joined the window
    when its tile was scanned and was never dropped. Comparing
    (score, rank) then gives the smallest rank among the exact minima,
    whatever order the tiles came in. Memory stays bounded by one tile,
    at most two tiles' worth of pending candidates and the plan's O(rows)
    arrays: the order of the outer ranks and their sorted pr."""
    plan = _Plan(matrix, source)
    p = matrix.params
    columns = matrix.entries.T
    eps = 2.0 ** -24
    best, pending, held = (math.inf, -1), [], 0
    limit = rho = math.inf
    for outer, lo, tile in _tiles(plan, lambda: rho):
        tile_min = float(tile.min())
        if tile_min > limit:
            continue
        if tile_min + 2.0 * plan.tol < limit:
            # rounding is monotonic, so this is low + 2 tol for the new low
            limit = tile_min + 2.0 * plan.tol
            rho = math.sqrt(limit) * (1.0 + 2 * (p.n + 8) * eps) \
                + 2 * (3 * p.n + 8) * eps
            pending = [(r[v <= limit], v[v <= limit]) for r, v in pending]
            held = sum(len(r) for r, _ in pending)
        # a float32 value is <= limit exactly when it is <= limit rounded to
        # float32, so comparing in float32 keeps the whole window
        at = np.flatnonzero(tile <= limit)
        rows, cols = np.divmod(at, tile.shape[1])
        ranks = outer[rows] * plan.width + plan.perm[lo:][cols]
        pending.append((ranks, tile.reshape(-1)[at]))
        held += len(at)
        if held > plan.cap:
            best, pending, held = _rescored(p, columns, source, pending, best), [], 0
    score, rank = _rescored(p, columns, source, pending, best)
    return rank, score


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
