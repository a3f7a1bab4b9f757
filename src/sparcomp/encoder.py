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
   two factors rounded to float32: the factors' rows are gathered and
   subtracted in float32 straight into the product's operand. The inner
   block is augmented with the rows c^2 |x|^2 and ones below -2c x, the
   residual rows with the columns 1 and |r|^2 (taken of the float32 r,
   in float32), so one float32 matrix product per tile gives the whole
   distance |r|^2 - 2c r.x + c^2 |x|^2 of every candidate of the tile,
   and one contiguous minimum per tile is all the scan needs to decide
   whether the tile joins the rescore window. Before the cast to
   float32, every input is scaled by a power of two near
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
   to find it), each by one in-place sort of int64 keys that pack a
   projection, rounded down in its low bits, with its rank
   (_sorted_differences), in workspace buffers; the augmented block,
   built once per matrix and scale in rank order, is copied in that
   column order, row by row. Each tile multiplies only the contiguous
   columns whose projection lies within rho of its rows', and each chunk
   after the first is clipped to the rows whose projection lies within
   rho of some column's, where rho comes from the kernel minimum so far
   (infinite for the first tile, which is multiplied whole); rows left
   out by the clip are never built. Smaller plans take the rows in rank
   order and multiply every row by the whole inner block.
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

A search plan has two parts. The per-matrix part (MatrixPlan) holds what
every source searched against one matrix shares: the source-free term of
Lam, the outer section sums, the inner block and its augmented block in
rank order, the last three scaled for one scale exponent and rebuilt when
a source brings another. The per-source part (_Plan) holds the scale and
tol, the slow factor, both projections with their sorts, and the
augmented block's columns in projection order. encode_min_distance takes
a MatrixPlan in place of its matrix, so the trial loop of sim makes one
per trial and its source models share it. Both parts live in per-thread
workspace slots: the per-source slots are rewritten by every plan, the
per-matrix slots only when another MatrixPlan, or another scale, needs
them, so a MatrixPlan stays usable whatever searches ran in between.

A plain oracle that scores every rank with the same scorer
(encode_oracle) cross-validates it in tests. The search, the oracle and
all_distortions reject a design whose error bound Lam overflows float64
through one check (_error_bound).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import BetaVector, DesignMatrix, SparcParams, beta_unrank, synthesize

__all__ = [
    "EncodeResult",
    "MatrixPlan",
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
# Bytes of the float32 tile operand [r, 1, |r|^2] built at once: 2,730
# residual rows at n = 16. The chunk's arrays are workspace buffers
# (_aligned_empty), kept from one search to the next: blocks this large,
# allocated and freed per search, were unmapped and faulted back in by
# every search in a process whose glibc mmap threshold was still at its
# initial 128 KiB. Smaller chunks cost 16-3-256 time: its column slices
# are about 14 wide, so its tiles are as tall as a chunk (64 KiB chunks
# of float64 rows made that search about 20% slower); two and four times
# this budget were no faster per search at 16-3-256 and 14-6-16 together.
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


def _gate(p: SparcParams, source: np.ndarray) -> Optional[EncodeResult]:
    z2 = sample_power(source)
    if z2 >= p.rho2:
        return EncodeResult(STATUS_VARIANCE_OVERFLOW, None, None)
    if z2 < p.D:
        return EncodeResult(STATUS_TRIVIAL_ZERO, None, z2)
    return None


class _Workspace(threading.local):
    """The calling thread's search buffers: one byte buffer per slot name;
    the ranks 0, 1, 2, ... (_ranks); and which MatrixPlan, at which scale,
    the per-matrix slots hold, with their arrays (MatrixPlan.scaled)."""

    def __init__(self):
        self.slots = {}
        self.ranks = np.arange(0)
        self.held = None


_WORKSPACE = _Workspace()


def _aligned_empty(slot: str, shape: Tuple[int, ...],
                   dtype=np.float32) -> np.ndarray:
    """Uninitialized C-order array starting on an _ALIGN boundary, a view
    of the calling thread's buffer for slot. The buffer grows to the
    largest size asked for so far and is kept, so the array is valid only
    until the next request for the same slot in the same thread. The slot
    keeps the buffer's aligned part, so a request reads no address
    (ctypes.data costs about as much as the rest of the request), and the
    array is made over it in one np.ndarray call, half the cost of a
    slice, a view and a reshape."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    buf = _WORKSPACE.slots.get(slot)
    if buf is None or len(buf) < size:
        raw = np.empty(size + _ALIGN, dtype=np.uint8)
        buf = _WORKSPACE.slots[slot] = raw[-raw.ctypes.data % _ALIGN:]
    return np.ndarray(shape, dtype, buf)


def _ranks(count: int) -> np.ndarray:
    """np.arange(count) as int64, a read-only view of the calling thread's
    rank buffer, which holds 0, 1, 2, ... and, like a slot, grows to the
    largest count asked for so far and is kept, so no search fills one."""
    ranks = _WORKSPACE.ranks
    if len(ranks) < count:
        ranks = _WORKSPACE.ranks = np.arange(count, dtype=np.int64)
        ranks.setflags(write=False)
    return ranks[:count]


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
    "inner" (_aligned_empty); the partial sums alternate with it. Both are
    per-matrix slots (MatrixPlan.scaled), which then hold no plan's arrays."""
    _WORKSPACE.held = None
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


def _codeword_reach(params: SparcParams, columns: np.ndarray):
    """c sum_l max_j ||a_lj||, the source-free part of the codeword error
    bound (_error_bound), for each design of columns (..., M*L, n)."""
    norms = np.sqrt(np.einsum("...ji,...ji->...j", columns, columns))
    norms = norms.reshape(norms.shape[:-1] + (params.L, params.M))
    return params.c * norms.max(axis=-1).sum(axis=-1)


def _error_bound(reach, source: np.ndarray):
    """Lam = ||s|| + reach, which bounds the norm of every codeword error
    s - c sum_l a_l (Cauchy-Schwarz bounds every dot product by norms),
    for the reach of one design or of each of a stack (_codeword_reach).
    The one check behind the search, the oracle and all_distortions: a
    finite design whose Lam overflows float64 is rejected, since its
    errors can overflow in the scorer and leave the kernel no scale."""
    lam = math.sqrt(float(source @ source)) + reach
    if not np.isfinite(lam).all():
        # DesignMatrix holds only finite entries, but their norms can overflow
        raise ValueError("design matrix entries too large: the codeword "
                         "error bound overflows float64")
    return lam


def _kernel_tol(part: MatrixPlan, source: np.ndarray) -> Tuple[float, float]:
    """Power-of-two scale for the kernel's inputs, and a uniform bound on
    |kernel value - scale^2 _exact_sq| over all codewords, in scaled units,
    for a source searched against part's design.

    Every codeword error s - c sum_l a_l has norm at most
    Lam = ||s|| + c sum_l max_j ||a_lj|| (_error_bound, with the second
    term kept by the part as its reach). The scale is the power of two 2^-e with
    Lam = m 2^e, m in [1/2, 1), so the scaled Lam' = m: multiplying by it
    is exact in float64 (bar float64 underflow, whose error is far below
    tau below), and every scaled quantity the kernel forms (the
    residual rows, -2c x, c^2 |x|^2 and their product, all bounded by
    4 Lam'^2 < 4) can neither overflow float32 nor fall below it except
    where its contribution is absolutely tiny.

    Let u = 2^-24 bound the unit roundoff of every operation, float64
    included, and tau = 2^-126 (the smallest normal float32) the absolute
    error of any float32 operation or cast whose result underflows, with
    or without flush to zero. The kernel forms r = slow[j] - fast[i] in
    float32 from the float64 factors (_Plan, _rows), so its path to the
    error vector r - c x, as the scorer's, is:
    - float64 section sums and scalings: L + 1 roundings to slow, fast
      and c x (the outer terms s - c sums and c fast are formed apart);
    - float32: the casts of slow and of fast, and their subtraction.
    Each of these L + 4 roundings, and each of the scorer's L + 1, moves
    an error vector of norm at most Lam' by at most u Lam' (slow and fast
    sum disjoint parts of Lam', so |slow| + |fast|, and with it |r|, is at
    most Lam'), and its square by 2 u Lam'^2. To first order in u:
    - the two paths: 2 (2L + 5) = 4L + 10;
    - the scorer's dot product: n;
    - |r|^2, taken of the float32 r in float32: n;
    - rounding c x to float32 moves the cross term 2c r.x by 2 u Lam'^2,
      and c^2 |x|^2, computed in float64 and rounded to float32, moves by
      (n + 2) u Lam'^2: n + 4;
    - the length-(n + 2) float32 product sums terms whose magnitudes total
      at most 4 Lam'^2 (2 Lam'^2 for the cross term, Lam'^2 each for
      |r|^2 and c^2 |x|^2): 4 (n + 2).
    That is (7n + 4L + 22) u Lam'^2. Underflow adds at most tau per
    float32 cast or operation whose result underflows, times the factor
    by which its error reaches the kernel value, each below 2:
    - the 2n casts of the factors and the n subtractions move each entry
      of r - c x by at most 3 tau, and its square by at most 6 tau: 6n;
    - the n casts of c x move the cross term by at most 2 tau each: 2n;
    - the cast of c^2 |x|^2 and the 2n - 1 operations of |r|^2: 2n;
    - the product's n multiplications and n + 1 additions: 2n + 1.
    That is (12n + 1) tau. The returned bound is four times the sum, which
    covers the higher-order terms and the rounding of Lam and of the
    rescore limit."""
    p = part.params
    mant, exp = math.frexp(_error_bound(part.reach, source))
    u, tau = 2.0 ** -24, 2.0 ** -126
    tol = 4.0 * ((7 * p.n + 4 * p.L + 22) * u * mant * mant
                 + (12 * p.n + 1) * tau)
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


# The magnitude bits of a float64 viewed as int64. XOR-ing them into the
# negative values maps every float64 to an int64 in the same order.
_MAGNITUDE = (1 << 63) - 1


def _sorted_differences(a: np.ndarray, b: np.ndarray,
                        slot: str) -> Tuple[np.ndarray, np.ndarray]:
    """The differences a[j] - b[i], sorted, and their ranks j * len(b) + i
    in that order, ties going to the smaller rank: (order, values), both
    of length len(a) * len(b), views of the workspace slots slot + "_order"
    and slot + "_key" (_aligned_empty).

    One in-place sort of packed int64 keys orders them. Each float64
    difference is written into the key slot and mapped to an int64 in the
    same order (the magnitude bits of negative values flipped); its low
    bits = (rows - 1).bit_length() bits are cleared and the rank is added
    into them, which for the flat key is one add of the ranks 0, 1, 2, ...
    (_ranks). After the sort, order is the low bits, and values are the
    high bits mapped back to float64, in place. A value is therefore the
    difference with the low bits of its float64 bit pattern cleared
    towards -inf: it never exceeds the difference, by less than
    2^(bits - 52) |value| for normal values and by less than 2^(bits - 1074)
    below them (a difference of -0.0 becomes a tiny negative value)."""
    rows = len(a) * len(b)
    low = (1 << (rows - 1).bit_length()) - 1
    grid = _aligned_empty(slot + "_key", (len(a), len(b)), np.int64)
    order = _aligned_empty(slot + "_order", (rows,), np.int64)
    key = grid.reshape(-1)
    np.subtract(a[:, None], b, out=grid.view(np.float64))
    # order is scratch until the sort: the magnitude mask of each negative key
    np.right_shift(key, 63, out=order)
    order &= _MAGNITUDE
    key ^= order
    key &= ~low
    key += _ranks(rows)
    key.sort()
    np.bitwise_and(key, low, out=order)
    key &= ~low
    # sorted, the negative keys come first
    key[:np.searchsorted(key, 0)] ^= _MAGNITUDE
    return order, key.view(np.float64)


class MatrixPlan:
    """The per-matrix part of a search plan: everything a search shares
    with every other search against the same design matrix.
    encode_min_distance takes it in place of the matrix, so the sources of
    one matrix share it: the source models of one trial of
    sim.robustness_suite, or every trial of a fixed-matrix run.

    Made from the matrix alone, it holds the plan's shape and the reach
    c sum_l max_j ||a_lj|| of the codeword error bound (_kernel_tol). The
    first k sections form the inner block of M^k column sums x, the rest
    the outer ranks, rank = outer * width + inner. The outer section sums
    are kept as two factors: fast, over sections k..L-2 (or none), and the
    sums over the last section, from which each source forms its slow
    factor (_Plan). The rows = len(fast) * len(slow) outer ranks are cut
    into tiles of at most cap kernel values, step rows of the whole inner
    block, and built chunk rows at a time; the plan projects (_Plan) when
    its rows fill at least _PRUNE_TILES full-width tiles.

    Its arrays depend on the source only through the kernel's scale, a
    power of two (_kernel_tol), and scaled(scale) gives them. They live in
    the calling thread's per-matrix workspace slots, which only scaled
    writes (and _block_sums, which it calls), and stay there for that one
    scale: a source with another scale, or a search against another
    MatrixPlan in between, rebuilds them, with the same values, since they
    depend only on the matrix and the scale. So a MatrixPlan stays valid
    in any thread, for any number of searches, whatever ran in between;
    the arrays scaled returns are valid until the next plan in the same
    thread, like the rest of a plan."""

    def __init__(self, matrix: DesignMatrix):
        p = self.params = matrix.params
        self.matrix = matrix
        self.reach = _codeword_reach(p, matrix.entries.T)
        k = 1
        while k + 1 < p.L and p.M ** (k + 1) <= _INNER_COLS:
            k += 1
        self.k, self.width, self.h = k, p.M ** k, max(k, p.L - 1)
        self.rows = p.M ** (p.L - k)
        # kernel values per tile, within _TILE_BYTES of float32 and
        # _TILE_MACS multiply-adds (step rows of the whole inner block), and
        # residual rows per chunk built at once, within _CHUNK_BYTES of the
        # float32 tile operand [r, 1, |r|^2]
        self.cap = min(_TILE_BYTES // 4, _TILE_MACS // (p.n + 2))
        self.step = max(1, self.cap // self.width)
        self.chunk = max(1, _CHUNK_BYTES // (4 * (p.n + 2)))
        self.projects = self.rows >= _PRUNE_TILES * self.step

    def scaled(self, scale: float) -> Tuple[np.ndarray, ...]:
        """(fast, fast64, sums, xt, aug) for the kernel scale: the fast
        factor and the last section's sums, one row per rank (so each
        residual row is contiguous), and the inner block xt, (n, width),
        each times c * scale in float64. fast holds the fast factor's
        rows rounded to float32 and padded with two zeros, [c fast, 0, 0],
        so that _rows subtracts whole operand rows; only a part that
        projects also keeps the factor in float64 (fast64, else None).
        aug is the float32 augmented block, -2c x above c^2 |x|^2 and
        ones, so that the row [r, 1, |r|^2] times it gives
        |r|^2 - 2c r.x + c^2 |x|^2: a view of the first width columns of a
        padded block (_padded). All are in rank order, in the per-matrix
        slots "fast", "fast64", "sums", "inner" and "aug_ranked"
        (_aligned_empty; "inner_part" is scratch of _block_sums)."""
        held = _WORKSPACE.held
        if held is not None and held[0] is self and held[1] == scale:
            return held[2]
        p = self.params
        n, L, M, k, h = p.n, p.L, p.M, self.k, self.h
        cs = p.c * scale
        columns = self.matrix.entries.T
        xt = _block_sums(self.matrix.entries, M, k)
        xt *= cs
        fast = _column_sums(columns, M, _ranks(M ** (h - k)), k, h)
        fast64 = None
        if self.projects:
            fast64 = np.multiply(fast, cs, out=_aligned_empty(
                "fast64", fast.shape, np.float64))
        fast32 = _aligned_empty("fast", (len(fast), n + 2))
        np.multiply(fast, cs, out=fast32[:, :n])
        fast32[:, n:] = 0.0
        sums = _column_sums(columns, M, _ranks(M ** (L - h)), h, L)
        sums = np.multiply(sums, cs, out=_aligned_empty("sums", sums.shape,
                                                        np.float64))
        aug = _aligned_empty("aug_ranked", (n + 2, _padded(self.width)))
        aug = aug[:, :self.width]
        np.multiply(xt, -2.0, out=aug[:n])
        aug[n] = np.einsum("ij,ij->j", xt, xt)
        aug[n + 1] = 1.0
        arrays = fast32, fast64, sums, xt, aug
        _WORKSPACE.held = (self, scale, arrays)
        return arrays


class _Plan:
    """One search's float32 kernel inputs: the per-source part of a search
    plan, over the per-matrix part of its matrix (MatrixPlan, made afresh
    when the search is given a DesignMatrix), scaled by the power of two
    from _kernel_tol (scale, with the rounding bound tol).

    fast is the part's; slow[j] = s - c (sums over the last section)[j],
    so outer rank j * len(fast) + i has the residual row
    r = slow[j] - c fast[i], all scaled. Both factors are computed in
    float64 and kept rounded to float32, as operand rows: slow as
    [slow, 1, 0] and the part's fast as [c fast, 0, 0]. _rows gathers
    the slow rows straight into lhs, one chunk of the product's operand,
    and the fast rows into gathered, and one float32 subtraction leaves
    [r, 1, 0]. Only a projecting plan keeps the factors in float64 too,
    for the projections (slots "slow64" and the part's "fast64").
    The part keeps its scaled arrays for one scale exponent and rebuilds
    them when a source brings another (MatrixPlan.scaled), so every array
    of a plan is the one a fresh part gives, bit for bit, and _kernel_tol's
    bound holds unchanged.

    order lists the outer ranks in the order _tiles takes them. A plan
    whose rows fill at least _PRUNE_TILES full-width tiles projects onto
    the unit vector u along the source: perm orders the columns of the
    inner block by increasing px = u.(c x), and order the rows by
    increasing pr = u.slow[j] - u.fast[i], found without forming the
    rows; ties go to the smaller rank. Both orders come from
    _sorted_differences (the columns as a one-column grid, b = [0]), so
    px and pr, kept in those orders, are the computed projections with
    the low bits of their keys cleared: each lies at or below its
    projection, within the key rounding that _search_min allows for. Its
    augmented block aug is the part's, with the columns taken in perm
    order. A smaller plan keeps both in rank order (perm and order are
    the identity, _ranks), px and pr are None, and aug is the part's.

    slow, lhs, gathered, order, pr, perm and px, the augmented block and
    the tile buffer of _tiles are views of the thread's workspace
    (_aligned_empty), and the next search reuses them; the part's arrays
    are too (MatrixPlan). So a plan's arrays are valid until the next
    plan is built in the same thread."""

    def __init__(self, matrix: Union[DesignMatrix, MatrixPlan],
                 source: np.ndarray):
        part = matrix if isinstance(matrix, MatrixPlan) else MatrixPlan(matrix)
        self.part = part
        self.width, self.rows = part.width, part.rows
        self.cap, self.step, self.chunk = part.cap, part.step, part.chunk
        self.scale, self.tol = _kernel_tol(part, source)
        self.fast, fast64, sums, xt, aug = part.scaled(self.scale)
        shifted = source * self.scale
        n, count = len(source), min(self.chunk, self.rows)
        self.slow = _aligned_empty("slow", (len(sums), n + 2))
        np.subtract(shifted, sums, out=self.slow[:, :n])
        self.slow[:, n:] = (1.0, 0.0)
        self.lhs = _aligned_empty("lhs", (count, n + 2))
        self.gathered = _aligned_empty("gathered", (count, n + 2))
        if not part.projects:
            self.perm, self.order = _ranks(self.width), _ranks(self.rows)
            self.px = self.pr = None
            self.aug = aug
            return
        slow64 = np.subtract(shifted, sums, out=_aligned_empty(
            "slow64", sums.shape, np.float64))
        u = _unit(source)
        # einsum, not a BLAS product: no BLAS thread wakes per search
        self.perm, self.px = _sorted_differences(
            np.einsum("i,ij->j", u, xt), np.zeros(1), "cols")
        self.order, self.pr = _sorted_differences(
            slow64 @ u, fast64 @ u, "rows")
        # row by row, so mode "clip" (a no-op for these indices) lets np.take
        # write straight into the row; a take along axis 1 would buffer the
        # whole block
        self.aug = _aligned_empty("aug", (len(aug), _padded(self.width)))
        self.aug = self.aug[:, :self.width]
        for row, out in zip(aug, self.aug):
            np.take(row, self.perm, mode="clip", out=out)


def _rows(plan: _Plan, outer: np.ndarray) -> np.ndarray:
    """The float32 rows [r, 1, |r|^2] of the given outer ranks' residual
    rows r = slow[j] - fast[i], a view of the plan's lhs. The slow rows
    [slow, 1, 0] are gathered straight into lhs and the fast rows
    [fast, 0, 0] into the plan's gather rows (mode "clip", a no-op for
    these indices, lets np.take write into its out array unbuffered), and
    one contiguous float32 subtraction leaves [r, 1, 0]; |r|^2 is then
    taken of the float32 r. Floor division and a product find j and i
    (np.divmod takes three times as long)."""
    j = outer // len(plan.fast)
    i = outer - j * len(plan.fast)
    lhs = np.take(plan.slow, j, axis=0, mode="clip", out=plan.lhs[:len(outer)])
    lhs -= np.take(plan.fast, i, axis=0, mode="clip",
                   out=plan.gathered[:len(outer)])
    n = lhs.shape[1] - 2
    np.einsum("ij,ij->i", lhs[:, :n], lhs[:, :n], out=lhs[:, n + 1])
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

    With projections, radius() gives the current rho before each tile and
    each chunk after the first. rho is infinite until the first tile has
    been scanned, so the first tile is step rows at full width. Then:
    - each chunk after the first is clipped to the rows whose pr lies in
      [px[0] - rho, px[-1] + rho] (two searchsorted calls on the sorted
      pr); the rows outside are never built;
    - a tile of rows with pr in [a, b] multiplies only the columns with px
      in [a - rho, b + rho), at most a cap's worth of candidates.
    So no candidate is multiplied twice, and every candidate left out had
    |pr - px| >= rho, up to the rounding of a - rho and b + rho, for the
    rho of the moment it was left out.

    The loop's own work is a few scalar calls per tile: it reads the
    plan's attributes and each chunk's band of pr once, and finds a
    slice's two ends with one ndarray.searchsorted call (the method; the
    np.searchsorted function costs about three times as much per call)."""
    width, step, cap, chunk = plan.width, plan.step, plan.cap, plan.chunk
    order, aug, px, pr = plan.order, plan.aug, plan.px, plan.pr
    buf = _aligned_empty("tile", (min(plan.rows * width, max(cap, width)),))
    start, stop = 0, plan.rows
    while start < stop:
        outer = order[start:min(start + chunk, stop)]
        lhs = _rows(plan, outer)
        count, at = len(outer), 0
        if px is not None:
            band = pr[start:start + count]
        while at < count:
            rows, lo, hi = min(step, count - at), 0, width
            if px is not None:
                rho = radius()
                first = band[at]
                lo, hi = px.searchsorted((first - rho, first + rho)).tolist()
                rows = min(count - at, max(1, cap // max(1, hi - lo)))
                hi = int(px.searchsorted(band[at + rows - 1] + rho))
                if rows * (hi - lo) > cap:
                    rows = max(1, cap // (hi - lo))
                    hi = int(px.searchsorted(band[at + rows - 1] + rho))
            if hi > lo:
                tile = buf[:rows * (hi - lo)].reshape(rows, hi - lo)
                np.matmul(lhs[at:at + rows], aug[:, lo:hi], out=tile)
                yield outer[at:at + rows], lo, tile
            at += rows
        start += count
        if px is not None:
            rho = radius()
            start = max(start, int(pr.searchsorted(px[0] - rho)))
            stop = int(pr.searchsorted(px[-1] + rho, side="right"))


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


def _search_min(matrix: Union[DesignMatrix, MatrixPlan],
                source: np.ndarray) -> Tuple[int, float]:
    """Rank of the distance-minimizing codeword (smallest rank on ties)
    and its exact squared distance _exact_sq (unnormalized), for a design
    matrix or its MatrixPlan.

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
    - Let v = slow[j] - fast[i] - c x, in exact arithmetic on the float64
      factors from which the plan projects (before their rounding to
      float32) and c x. As in _kernel_tol, their path to v and the
      scorer's codeword round at most L + 2 and L + 1 times and the
      scorer's dot product n times, so
      |E(q) - |v|^2| <= (4L + 6 + n) eps Lam'^2 < tol.
    - px = u.(c x), u.slow[j] and u.fast[i] are length-n dot products of
      u, |u| <= 1 + (n + 3) eps, with vectors of norm at most Lam' < 1, so
      each errs by at most n eps to first order, and pr = u.slow[j] -
      u.fast[i] rounds once more, by at most 2 eps. The sort's packed
      keys (_sorted_differences) round pr and px down, by less than
      2^(bits - 52) |value| + 2^(bits - 1074) for bits the bit length of
      the largest rank: bits <= 25 for pr (rows <= SEARCH_CAP / width,
      width >= 2) with |pr| <= 2 |u| Lam', and bits <= 26 for px with
      |px| <= |u| Lam', so each moves by at most 2^-26 = eps / 4 to first
      order (the absolute term is below 2^-1048). Rounding a - rho and b + rho moves the slice ends by at most
      (2 + rho) eps, as |pr| <= 2 |u| Lam'. So
      |u.v| >= rho (1 - eps) - (3n + 4.5) eps, and |v| >= |u.v| / |u|.
      The margins in rho, (2n + 16) eps relative and (6n + 16) eps
      absolute, are at least twice these terms, which leaves room for the
      higher-order terms and for the rounding of limit, of its square root
      and of rho itself: |v|^2 > low + 2 tol.
    - Hence E(q) > |v|^2 - tol > low + tol >= E(q*), where q* is the
      multiplied candidate whose kernel value is low at the moment q was
      left out (low only falls).
    So every exact minimum is multiplied. Its kernel value is at most its
    exact score plus tol, so at most the final kernel minimum plus 2 tol;
    limit never falls below that, so the exact minimum joined the window
    when its tile was scanned and was never dropped. Comparing
    (score, rank) then gives the smallest rank among the exact minima,
    whatever order the tiles came in. Memory stays bounded by one tile,
    at most two tiles' worth of pending candidates, the plan's two
    O(rows) workspace slots, which hold the order of the outer ranks and
    their sorted pr, and the thread's O(rows) rank buffer (_ranks), all
    reused by the next search in the thread."""
    plan = _Plan(matrix, source)
    p = plan.part.params
    columns = plan.part.matrix.entries.T
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


def encode_min_distance(matrix: Union[DesignMatrix, MatrixPlan],
                        source) -> EncodeResult:
    """Encode one source block: gates first, then the exhaustive search.

    matrix is the design matrix, or a MatrixPlan of it, which every
    search given that MatrixPlan shares (the result is the same). The
    reported distortion is the exact scorer's value at the argmin, so
    kernel rounding cannot leak into the result.
    """
    source = _check_source(matrix.params, source)
    p = matrix.params
    if p.n_codewords > SEARCH_CAP:
        raise ValueError(
            f"codebook holds {p.n_codewords} candidates > search cap {SEARCH_CAP}")
    gated = _gate(p, source)
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
    gated = _gate(p, source)
    if gated is not None:
        return gated
    _error_bound(_codeword_reach(p, matrix.entries.T), source)
    scores = _exact_sq(p, matrix.entries.T, source, np.arange(p.n_codewords))
    rank = int(np.argmin(scores))
    return EncodeResult(STATUS_OK, beta_unrank(rank, p.L, p.M),
                        float(scores[rank]) / p.n)


def all_distortions(params: SparcParams, columns: np.ndarray,
                    source) -> np.ndarray:
    """Per-sample squared distance from source to every codeword of each
    design in columns, (..., M*L, n) as _exact_sq takes them: the result
    is (..., M^L), indexed by rank, and equals _exact_sq / n bit for bit.
    Like the search, it rejects a design whose error bound overflows
    (_error_bound)."""
    source = _check_source(params, source)
    count = params.n_codewords
    if count > ORACLE_CAP:
        raise ValueError(f"codebook holds {count} candidates > cap {ORACLE_CAP}")
    _error_bound(_codeword_reach(params, columns), source)
    return _exact_sq(params, columns, source, np.arange(count)) / params.n
