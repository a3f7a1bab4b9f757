"""Codebook geometry, design-matrix generation, and the sparse coefficient
representation.

A codebook is an n x (M*L) matrix of i.i.d N(0,1) entries split into L
sections of M columns; a codeword picks one column per section and scales
the sum by c = sqrt(gamma2 / L), so every codeword has expected per-sample
power gamma2. The matrix is a pure function of a 64-bit seed: raw words
come from the Philox counter-based generator and are mapped to normals by
an in-package Box-Muller transform, filled column by column (column 0 rows
0..n-1, then column 1, ...), so the bytes do not depend on any library's
Gaussian sampler. Every matrix is drawn by design_columns, alone or in a
block: each seed's words are drawn apart and the block's concatenated
words are mapped by the same elementwise Box-Muller code, so a matrix does
not depend on the block it is drawn in.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import Philox

from . import theory

__all__ = [
    "LowRateError",
    "SparcParams",
    "BetaVector",
    "DesignMatrix",
    "make_params",
    "build_design_matrix",
    "synthesize",
    "beta_rank",
    "beta_unrank",
    "save_matrix",
    "load_matrix",
    "read_matrix_header",
    "pack_beta_bits",
    "unpack_beta_bits",
]

MAX_MATRIX_ENTRIES = 2 ** 31

# binary matrix container: magic, version u16, n u32, L u32, M u32, seed u64,
# 6 pad bytes (32-byte header), then n*M*L little-endian f64, column-major
_MATRIX_MAGIC = b"SPRC"
_MATRIX_VERSION = 1
_HEADER_FMT = "<4sHIIIQ6x"
assert struct.calcsize(_HEADER_FMT) == 32


class LowRateError(ValueError):
    """R <= covering rate: the threshold window (sigma2, a^2) is empty and
    the coverage guarantees do not apply. Construction is still possible
    with allow_low_rate=True plus an explicit rho2."""


@dataclass(frozen=True)
class SparcParams:
    """Full code geometry; the single source of truth for a codebook.

    n: block length; L: sections; M: columns per section;
    b = ln M / ln L (nan at L = 1); R = L ln M / n nats/sample;
    sigma2: source variance; D: target distortion; rho2: encoder variance
    threshold; gamma2 = rho2 - D: codeword power; c = sqrt(gamma2 / L):
    the common non-zero coefficient; seed: matrix seed.
    """

    n: int
    L: int
    M: int
    b: float
    R: float
    sigma2: float
    D: float
    rho2: float
    gamma2: float
    c: float
    seed: int

    @property
    def n_codewords(self) -> int:
        return self.M ** self.L

    @property
    def n_columns(self) -> int:
        return self.M * self.L


def make_params(n: int, L: int, M: int, sigma2: float, D: float,
                rho2: Optional[float] = None, seed: int = 0,
                allow_low_rate: bool = False) -> SparcParams:
    """Validate and derive a full parameter set.

    R and b are derived from (n, L, M); gamma2 and c from rho2. When rho2
    is omitted it defaults to the midpoint (sigma2 + a^2)/2 of the
    admissible window, which requires R above the covering rate. With
    allow_low_rate=True, sub-threshold rates are accepted but rho2 must
    then be given explicitly (any value > sigma2).
    """
    if n < 1 or L < 1:
        raise ValueError(f"need n >= 1 and L >= 1, got n={n}, L={L}")
    if M < 2:
        raise ValueError(f"need M >= 2, got M={M}")
    given = (sigma2, D) if rho2 is None else (sigma2, D, rho2)
    if not all(math.isfinite(v) for v in given):
        raise ValueError(
            f"sigma2, D and rho2 must be finite, got sigma2={sigma2}, D={D}, "
            f"rho2={rho2}")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not 0 < D < sigma2:
        raise ValueError(f"need 0 < D < sigma2, got D={D}, sigma2={sigma2}")
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")

    R = L * math.log(M) / n
    b = math.log(M) / math.log(L) if L >= 2 else math.nan
    a2 = theory.a_squared(R, D)
    r_cover = theory.sparc_rate(sigma2, D)

    if R <= r_cover:
        if not allow_low_rate:
            raise LowRateError(
                f"R = {R:.6g} <= covering rate {r_cover:.6g}; coverage is not "
                "guaranteed (pass allow_low_rate=True and an explicit rho2 to "
                "simulate anyway)")
        if rho2 is None:
            raise LowRateError(
                "below the covering rate the window (sigma2, a^2) is empty; "
                "rho2 must be given explicitly")
        if rho2 <= sigma2:
            raise ValueError(f"need rho2 > sigma2, got rho2={rho2}, sigma2={sigma2}")
    else:
        if rho2 is None:
            rho2 = 0.5 * (sigma2 + a2)
        if not sigma2 < rho2 < a2:
            raise ValueError(
                f"rho2 must lie in (sigma2, a^2) = ({sigma2:.6g}, {a2:.6g}), "
                f"got {rho2}")

    gamma2 = rho2 - D
    assert gamma2 > 0  # follows from rho2 > sigma2 > D
    return SparcParams(
        n=int(n), L=int(L), M=int(M), b=b, R=R,
        sigma2=float(sigma2), D=float(D), rho2=float(rho2),
        gamma2=float(gamma2), c=math.sqrt(gamma2 / L), seed=int(seed),
    )


# ---------------------------------------------------------------------------
# beta representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaVector:
    """Per-section column choices: indices[l] in [0, M) selects the single
    non-zero coefficient of section l; the dense vector has exactly L
    non-zeros, all equal to c."""

    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


def _check_beta(beta: BetaVector, params: SparcParams) -> None:
    if len(beta.indices) != params.L:
        raise ValueError(f"beta has {len(beta.indices)} sections, expected {params.L}")
    for l, idx in enumerate(beta.indices):
        if not 0 <= idx < params.M:
            raise ValueError(f"section {l}: index {idx} outside [0, {params.M})")


def beta_rank(beta: BetaVector, M: int) -> int:
    """Mixed-radix rank in [0, M^L): section 0 is the least-significant
    digit, rank = sum_l indices[l] * M^l."""
    rank = 0
    for idx in reversed(beta.indices):
        if not 0 <= idx < M:
            raise ValueError(f"index {idx} outside [0, {M})")
        rank = rank * M + idx
    return rank


def beta_unrank(rank: int, L: int, M: int) -> BetaVector:
    """Inverse of beta_rank."""
    if not 0 <= rank < M ** L:
        raise ValueError(f"rank {rank} outside [0, {M}^{L})")
    idx = []
    for _ in range(L):
        rank, r = divmod(rank, M)
        idx.append(r)
    return BetaVector(tuple(idx))


def _bit_width(M: int) -> int:
    width = M.bit_length() - 1
    if M != 1 << width:
        raise ValueError(f"packed format needs a power-of-two M, got {M}")
    return width


def pack_beta_bits(beta: BetaVector, M: int) -> bytes:
    """The L * log2(M)-bit payload the rate counts: one log2(M)-bit group
    per section, section 0 first, big-endian within each group, zero-padded
    at the end to whole bytes. Requires M to be a power of two; beta_rank
    is the mixed-radix form for any M."""
    width = _bit_width(M)
    value = 0
    for idx in beta.indices:
        if not 0 <= idx < M:
            raise ValueError(f"index {idx} outside [0, {M})")
        value = (value << width) | idx
    nbits = len(beta.indices) * width
    pad = -nbits % 8
    return (value << pad).to_bytes((nbits + pad) // 8, "big")


def unpack_beta_bits(data: bytes, L: int, M: int) -> BetaVector:
    """Inverse of pack_beta_bits for L sections of M columns. The payload
    must hold exactly ceil(L * log2(M) / 8) bytes with zero pad bits."""
    width = _bit_width(M)
    nbits = L * width
    pad = -nbits % 8
    size = (nbits + pad) // 8
    if len(data) != size:
        raise ValueError(f"payload holds {len(data)} bytes, expected {size}")
    value = int.from_bytes(data, "big")
    if value & ((1 << pad) - 1):
        raise ValueError("payload has non-zero pad bits")
    value >>= pad
    return BetaVector(tuple((value >> (width * (L - 1 - l))) & (M - 1)
                            for l in range(L)))


# ---------------------------------------------------------------------------
# design matrix
# ---------------------------------------------------------------------------

def _box_muller(raw: np.ndarray) -> np.ndarray:
    """Normals from an even number of raw 64-bit words. Words are mapped to
    uniforms u = (w >> 11) * 2^-53 in [0, 1), and consecutive pairs
    (u1, u2) to normals by Box-Muller: r = sqrt(-2 ln(1 - u1)),
    z = (r cos(2 pi u2), r sin(2 pi u2)). Every operation is elementwise,
    so a pair's normals do not depend on the words around it."""
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = (2.0 * np.pi) * u2
    z = np.empty(len(raw))
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z


def _check_entries(params: SparcParams) -> int:
    total = params.n * params.n_columns
    if total > MAX_MATRIX_ENTRIES:
        raise ValueError(
            f"matrix would hold {total} entries > cap {MAX_MATRIX_ENTRIES}")
    return total


def design_columns(params: SparcParams, seeds: Sequence[int]) -> np.ndarray:
    """The columns of the design matrices seeded by `seeds`, drawn as one
    block of shape (len(seeds), M*L, n) in C order: entry [i, j, t] is row
    t of column j of the matrix seeded by seeds[i]. Each seed draws the
    Philox words of whole Box-Muller pairs, so an odd n*M*L drops the last
    normal of its final pair; Box-Muller then maps the block's
    concatenated words in one pass.

    One Philox serves the whole block: Philox(key=seeds[0]) draws the
    first matrix, and before each later seed it is given the fresh state of
    that construction re-keyed to [seed, 0] (a zero counter and an empty
    buffer), the state Philox(key=seed) starts from for a 64-bit seed, which
    costs a fraction of a construction."""
    total = _check_entries(params)
    words = 2 * ((total + 1) // 2)
    raw = np.empty((len(seeds), words), dtype=np.uint64)
    for i, seed in enumerate(seeds):
        if i == 0:
            bitgen = Philox(key=int(seed))
            fresh = bitgen.state if len(seeds) > 1 else None
        else:
            fresh["state"]["key"][:] = (int(seed), 0)
            bitgen.state = fresh
        raw[i] = bitgen.random_raw(words)
    z = _box_muller(raw.reshape(-1)).reshape(len(seeds), words)
    return np.ascontiguousarray(
        z[:, :total].reshape(len(seeds), params.n_columns, params.n))


@dataclass(frozen=True)
class DesignMatrix:
    """Immutable n x (M*L) dictionary; section l owns columns
    [l*M, (l+1)*M). entries is finite, read-only and column-major."""

    params: SparcParams
    entries: np.ndarray

    def __post_init__(self):
        p = self.params
        if self.entries.shape != (p.n, p.n_columns):
            raise ValueError(
                f"entries shape {self.entries.shape} != {(p.n, p.n_columns)}")
        if not np.isfinite(self.entries).all():
            raise ValueError("design matrix holds non-finite entries")
        self.entries.setflags(write=False)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(_pack_header(self.params))
        h.update(np.asfortranarray(self.entries).tobytes(order="F"))
        return h.hexdigest()


def build_design_matrix(params: SparcParams) -> DesignMatrix:
    """Generate the dictionary for params: i.i.d N(0,1) entries in
    column-major order from the documented seeded stream, drawn as a block
    of one matrix (design_columns)."""
    return DesignMatrix(params, design_columns(params, [params.seed])[0].T)


def synthesize(matrix: DesignMatrix, beta: BetaVector) -> np.ndarray:
    """Codeword c * sum of the selected columns, accumulated in section
    order (section 0 first) for a reproducible floating-point sum."""
    p = matrix.params
    _check_beta(beta, p)
    out = matrix.entries[:, beta.indices[0]].copy()
    for l in range(1, p.L):
        out += matrix.entries[:, l * p.M + beta.indices[l]]
    out *= p.c
    return out


# ---------------------------------------------------------------------------
# matrix container
# ---------------------------------------------------------------------------

def _pack_header(params: SparcParams) -> bytes:
    return struct.pack(_HEADER_FMT, _MATRIX_MAGIC, _MATRIX_VERSION,
                       params.n, params.L, params.M, params.seed)


def read_matrix_header(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read(32)
    if len(raw) != 32:
        raise ValueError("matrix file truncated before header end")
    magic, version, n, L, M, seed = struct.unpack(_HEADER_FMT, raw)
    if magic != _MATRIX_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {_MATRIX_MAGIC!r}")
    if version != _MATRIX_VERSION:
        raise ValueError(f"unsupported container version {version}")
    return {"version": version, "n": n, "L": L, "M": M, "seed": seed}


def save_matrix(matrix: DesignMatrix, path) -> None:
    """32-byte header then n*M*L little-endian f64, column-major."""
    with open(path, "wb") as fh:
        fh.write(_pack_header(matrix.params))
        fh.write(matrix.entries.astype("<f8", copy=False).tobytes(order="F"))


def load_matrix(path, params: SparcParams) -> DesignMatrix:
    """Read a matrix container and bind it to params; the header only
    carries (n, L, M, seed), so the full parameter set must be supplied
    and is checked against it."""
    head = read_matrix_header(path)
    for key in ("n", "L", "M", "seed"):
        if head[key] != getattr(params, key):
            raise ValueError(
                f"header {key}={head[key]} does not match params.{key}="
                f"{getattr(params, key)}")
    count = head["n"] * head["L"] * head["M"]
    with open(path, "rb") as fh:
        fh.seek(32)
        flat = np.fromfile(fh, dtype="<f8", count=count)
        if flat.size != count or fh.read(1):
            raise ValueError("matrix payload size does not match header")
    entries = flat.reshape((head["n"], head["L"] * head["M"]), order="F")
    return DesignMatrix(params, entries)
