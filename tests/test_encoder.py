"""Exhaustive nearest-codeword search: gating, optimality against a fresh
brute-force oracle, tie-break determinism, codebook monotonicity, the
float32 tiled kernel, the projection bound and the batched exact scorer."""

import json
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparcomp import encoder
from sparcomp.core import (
    BetaVector, DesignMatrix, beta_unrank, build_design_matrix, make_params,
    synthesize,
)
from sparcomp.encoder import (
    STATUS_OK, STATUS_TRIVIAL_ZERO, STATUS_VARIANCE_OVERFLOW, all_distortions,
    encode_min_distance, encode_oracle, sample_power,
)
from sparcomp.sim import SOURCE_KINDS, SourceModel, draw_source


@pytest.fixture(scope="module")
def inst():
    p = make_params(8, 3, 4, 1.0, 0.5, seed=42)
    return p, build_design_matrix(p)


def _rng(seed):
    return np.random.default_rng(seed)


def _tile_budget(mp, nbytes):
    """Set the tile budget and the residual chunk budget together, so the
    plan's chunk is nbytes of float64 rows, as the small-shape tests below
    are laid out."""
    mp.setattr(encoder, "_TILE_BYTES", nbytes)
    mp.setattr(encoder, "_CHUNK_BYTES", nbytes)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def test_variance_overflow_gate(inst):
    p, mt = inst
    source = np.full(p.n, np.sqrt(p.rho2) * 1.01)
    res = encode_min_distance(mt, source)
    assert res.status == STATUS_VARIANCE_OVERFLOW
    assert res.beta is None and res.distortion is None


def test_trivial_zero_gate(inst):
    p, mt = inst
    source = np.full(p.n, np.sqrt(p.D) * 0.5)
    res = encode_min_distance(mt, source)
    assert res.status == STATUS_TRIVIAL_ZERO
    assert res.beta is None
    # the zero reproduction incurs exactly the source power
    assert res.distortion == pytest.approx(sample_power(source), abs=0)


def test_gate_thresholds_are_strict(inst):
    p, mt = inst
    at_rho = np.full(p.n, np.sqrt(p.rho2))
    if sample_power(at_rho) >= p.rho2:
        assert encode_min_distance(mt, at_rho).status == STATUS_VARIANCE_OVERFLOW
    ok_source = np.full(p.n, np.sqrt((p.D + p.rho2) / 2))
    assert encode_min_distance(mt, ok_source).status == STATUS_OK


def test_explicit_D_overrides_params(inst):
    # the gate reads the threshold from matrix.params.D
    p, mt = inst
    source = np.full(p.n, np.sqrt(p.D) * 0.9)     # below params.D
    assert encode_min_distance(mt, source).status == STATUS_TRIVIAL_ZERO
    lower = DesignMatrix(replace(p, D=p.D * 0.5), mt.entries)
    for encode in (encode_min_distance, encode_oracle):
        assert encode(lower, source).status == STATUS_OK


def test_source_shape_checked(inst):
    _, mt = inst
    with pytest.raises(ValueError):
        encode_min_distance(mt, np.zeros(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_source_rejected(inst, bad):
    p, mt = inst
    source = np.full(p.n, 0.8)
    source[3] = bad
    for encode in (encode_min_distance, encode_oracle):
        with pytest.raises(ValueError, match="non-finite"):
            encode(mt, source)


# ---------------------------------------------------------------------------
# optimality vs the oracle
# ---------------------------------------------------------------------------

def test_encoder_matches_oracle_200_instances(inst):
    p, mt = inst
    rng = _rng(123)
    statuses = set()
    for trial in range(200):
        matrix = mt if trial % 2 == 0 else build_design_matrix(
            make_params(8, 3, 4, 1.0, 0.5, seed=1000 + trial))
        source = rng.normal(size=p.n)
        fast = encode_min_distance(matrix, source)
        slow = encode_oracle(matrix, source)
        statuses.add(fast.status)
        assert fast.status == slow.status
        assert fast.beta == slow.beta
        if fast.distortion is None:
            assert slow.distortion is None
        else:
            assert fast.distortion == pytest.approx(slow.distortion, abs=1e-9)
    assert statuses == {STATUS_OK, STATUS_TRIVIAL_ZERO, STATUS_VARIANCE_OVERFLOW}


def _scaled_source(rng, p):
    v = rng.normal(size=p.n)
    return v * np.sqrt((p.D + p.rho2) / 2 / sample_power(v))


def test_encoder_beats_random_betas(inst):
    p, mt = inst
    rng = _rng(5)
    source = _scaled_source(rng, p)
    res = encode_min_distance(mt, source)
    assert res.status == STATUS_OK
    for _ in range(1000):
        beta = BetaVector(tuple(rng.integers(0, p.M, size=p.L)))
        competitor = sample_power(source - synthesize(mt, beta))
        assert res.distortion <= competitor + 1e-12


def test_self_encoding_recovers_codeword(inst):
    p, mt = inst
    beta = beta_unrank(2, p.L, p.M)
    word = synthesize(mt, beta)
    assert p.D < sample_power(word) < p.rho2
    res = encode_min_distance(mt, word)
    assert res.status == STATUS_OK
    assert res.beta == beta
    assert res.distortion == pytest.approx(0.0, abs=1e-25)


def test_distortion_matches_fresh_recomputation(inst):
    p, mt = inst
    rng = _rng(17)
    for _ in range(50):
        source = rng.normal(size=p.n) * 0.85
        res = encode_min_distance(mt, source)
        if res.status != STATUS_OK:
            continue
        fresh = sample_power(source - synthesize(mt, res.beta))
        assert res.distortion == pytest.approx(fresh, rel=1e-9)


# ---------------------------------------------------------------------------
# determinism and tie-breaking
# ---------------------------------------------------------------------------

def test_repeat_encodes_identical(inst):
    p, mt = inst
    source = _rng(9).normal(size=p.n) * 0.8
    first = encode_min_distance(mt, source)
    for _ in range(3):
        again = encode_min_distance(mt, source)
        assert again.beta == first.beta
        assert again.distortion == first.distortion


def test_exact_ties_break_to_smallest_rank():
    # a degenerate design with every column identical makes all codewords
    # equal, so every rank ties; the contract picks rank 0
    p = make_params(8, 3, 4, 1.0, 0.5, seed=0)
    col = np.linspace(-1.0, 1.0, p.n)
    entries = np.tile(col[:, None], (1, p.n_columns))
    mt = DesignMatrix(p, entries)
    source = col * 0.9
    if not p.D < sample_power(source) < p.rho2:
        source = col * np.sqrt((p.D + p.rho2) / 2 / sample_power(col))
    res = encode_min_distance(mt, source)
    assert res.status == STATUS_OK
    assert res.beta == BetaVector((0, 0, 0))


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 63),
       st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_midpoint_ties_match_oracle(seed, r1, r2):
    # a source halfway between two codewords is at equal exact distance
    # from both; only the exact scorer, not kernel rounding, may decide
    p = make_params(6, 3, 4, 1.0, 0.5, seed=seed)
    mt = build_design_matrix(p)
    source = 0.5 * (synthesize(mt, beta_unrank(r1, p.L, p.M))
                    + synthesize(mt, beta_unrank(r2, p.L, p.M)))
    mt = DesignMatrix(replace(p, D=0.0), mt.entries)
    fast = encode_min_distance(mt, source)
    slow = encode_oracle(mt, source)
    assert fast.beta == slow.beta
    assert fast.distortion == slow.distortion


@given(st.integers(min_value=0, max_value=2**32),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_duplicated_columns_match_oracle(seed, copies):
    # copied columns make whole families of codewords exactly equal, so
    # the exact minimum is shared and must go to the smallest rank
    p = make_params(6, 3, 4, 1.0, 0.5, seed=seed)
    entries = build_design_matrix(p).entries.copy()
    for src, dst in copies:
        entries[:, dst] = entries[:, src]
    mt = DesignMatrix(p, entries)
    source = _scaled_source(_rng(seed), p)
    fast = encode_min_distance(mt, source)
    slow = encode_oracle(mt, source)
    assert fast.beta == slow.beta
    assert fast.distortion == slow.distortion


def test_tiled_search_matches_oracle_across_tiles(monkeypatch):
    # a one-section inner block and a 64-byte tile budget build the 16
    # residual rows of the (8, 3, 4) search one at a time (plan.chunk is 1),
    # so it runs 16 one-row tiles
    monkeypatch.setattr(encoder, "_INNER_COLS", 4)
    _tile_budget(monkeypatch, 2 * 4 * 8)
    rng = _rng(101)
    for trial in range(40):
        p = make_params(8, 3, 4, 1.0, 0.5, seed=300 + trial)
        mt = build_design_matrix(p)
        source = _scaled_source(rng, p)
        fast = encode_min_distance(mt, source)
        assert fast == encode_oracle(mt, source)


# ---------------------------------------------------------------------------
# monotonicity in codebook size
# ---------------------------------------------------------------------------

def test_min_distortion_nonincreasing_in_M():
    # growing M extends each section with new columns under one seed, so the
    # smaller codebook is a subset of the larger and the optimum cannot rise
    rng = _rng(77)
    base = make_params(10, 3, 16, 1.0, 0.7, rho2=1.1, seed=3)
    big = build_design_matrix(base)
    source = rng.normal(size=base.n) * 0.8
    prev = np.inf
    for M in (4, 8, 16):
        p = make_params(10, 3, M, 1.0, 0.7, rho2=1.1, seed=3)
        cols = np.concatenate([
            big.entries[:, sec * base.M: sec * base.M + M]
            for sec in range(base.L)], axis=1)
        mt = DesignMatrix(replace(p, D=1e-12), cols)
        res = encode_min_distance(mt, source)
        assert res.status == STATUS_OK
        assert res.distortion <= prev + 1e-15
        prev = res.distortion


# ---------------------------------------------------------------------------
# caps and exhaustive distortion views
# ---------------------------------------------------------------------------

def test_search_cap_enforced(inst, monkeypatch):
    p, mt = inst
    monkeypatch.setattr(encoder, "SEARCH_CAP", 10)
    with pytest.raises(ValueError, match="search cap"):
        encode_min_distance(mt, np.zeros(p.n) + 0.8)


def test_oracle_cap_enforced():
    p = make_params(24, 5, 24, 1.0, 0.5, seed=0)   # 24^5 ~ 8e6 > 1e6
    mt = build_design_matrix(p)
    with pytest.raises(ValueError):
        encode_oracle(mt, np.zeros(p.n) + 0.8)


def test_all_distortions_agrees_with_search(inst):
    p, mt = inst
    source = _rng(41).normal(size=p.n) * 0.85
    dists = all_distortions(p, mt.entries.T, source)
    assert dists.shape == (p.n_codewords,)
    # one scorer: every value is _exact_sq / n bit for bit
    exact = encoder._exact_sq(p, mt.entries.T, source, np.arange(p.n_codewords))
    assert np.array_equal(dists, exact / p.n)
    strict = DesignMatrix(replace(p, D=1e-12), mt.entries)
    res = encode_min_distance(strict, source)
    assert res.status == STATUS_OK
    assert float(dists.min()) == res.distortion
    # rank indexing: entry at the argmin rank equals the reported distortion
    from sparcomp.core import beta_rank
    assert dists[beta_rank(res.beta, p.M)] == res.distortion


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_encode_beats_arbitrary_rank(inst_seed):
    # property: the search result is at least as good as any single codeword
    p = make_params(8, 3, 4, 1.0, 0.5, seed=42)
    mt = build_design_matrix(p)
    rng = _rng(inst_seed)
    source = _scaled_source(rng, p)
    res = encode_min_distance(mt, source)
    assert res.status == STATUS_OK
    rank = int(rng.integers(0, p.n_codewords))
    other = sample_power(source - synthesize(mt, beta_unrank(rank, p.L, p.M)))
    assert res.distortion <= other + 1e-12


# ---------------------------------------------------------------------------
# float32 kernel window, streamed tiles and the batched exact scorer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 14, 16, 33])
def test_batched_scorer_equals_per_codeword_dot(n):
    p = make_params(n, 3, 8, 1.0, 0.5, rho2=2.0, seed=n, allow_low_rate=True)
    mt = build_design_matrix(p)
    rng = _rng(n)
    source = rng.normal(size=n)
    ranks = rng.integers(0, p.n_codewords, size=2000)
    scores = encoder._exact_sq(mt.params, mt.entries.T, source, ranks)
    for rank, score in zip(ranks, scores):
        e = source - synthesize(mt, beta_unrank(int(rank), p.L, p.M))
        assert score == float(e @ e)


@pytest.mark.parametrize("chunk", [1, 7, encoder._SCORE_CHUNK])
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
def test_scorer_batch_size_does_not_change_its_values(monkeypatch, chunk, lead):
    p = make_params(6, 3, 5, 1.0, 0.5, seed=3)
    rng = _rng(7)
    columns = rng.normal(size=lead + (p.n_columns, p.n))
    source = rng.normal(size=p.n)
    ranks = rng.integers(0, p.n_codewords, size=300)
    want = np.empty(lead + ranks.shape)
    for at in np.ndindex(lead):
        mt = DesignMatrix(p, columns[at].T)
        for i, rank in enumerate(ranks):
            e = source - synthesize(mt, beta_unrank(int(rank), p.L, p.M))
            want[at + (i,)] = e @ e
    monkeypatch.setattr(encoder, "_SCORE_CHUNK", chunk)
    got = encoder._exact_sq(p, columns, source, ranks)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_identical_columns_tie_en_masse_quickly():
    # every one of the 262,144 codewords ties, so all of them fall in the
    # rescore window; the batched rescore keeps that well under a second
    p = make_params(12, 3, 64, 1.0, 0.5, seed=0)
    col = np.linspace(-1.0, 1.0, p.n)
    mt = DesignMatrix(p, np.tile(col[:, None], (1, p.n_columns)))
    source = col * np.sqrt((p.D + p.rho2) / 2 / sample_power(col))
    start = time.perf_counter()
    res = encode_min_distance(mt, source)
    assert time.perf_counter() - start < 1.0
    assert res.beta == BetaVector((0, 0, 0))
    assert res == encode_oracle(mt, source)


def test_identical_columns_window_spans_tiles(monkeypatch):
    # every codeword ties, so every one of the six 3-row tiles of this
    # 8-3-16 search lies in the window; rank 0 sits in the first tile and
    # must survive the comparisons with the later tiles
    _tile_budget(monkeypatch, 4 * 256 * 3)
    p = make_params(8, 3, 16, 1.0, 0.5, seed=0)
    col = np.linspace(-1.0, 1.0, p.n)
    mt = DesignMatrix(p, np.tile(col[:, None], (1, p.n_columns)))
    source = col * np.sqrt((p.D + p.rho2) / 2 / sample_power(col))
    plan = encoder._Plan(mt, source)
    mins = np.array([tile.min() for _, _, tile in encoder._tiles(plan)])
    assert len(mins) == 6
    assert (mins <= float(mins.min()) + 2.0 * plan.tol).all()
    res = encode_min_distance(mt, source)
    assert res.beta == BetaVector((0, 0, 0))
    assert res == encode_oracle(mt, source)


def test_all_ties_build_each_residual_row_once(monkeypatch):
    # every tile lies in the window, and the window is rescored during the
    # scan, so no residual row is built a second time: neither in rank
    # order, nor in projection order once _PRUNE_TILES at 2 lets the plan of
    # six 3-row tiles project
    _tile_budget(monkeypatch, 4 * 256 * 3)
    p = make_params(8, 3, 16, 1.0, 0.5, seed=0)
    col = np.linspace(-1.0, 1.0, p.n)
    mt = DesignMatrix(p, np.tile(col[:, None], (1, p.n_columns)))
    source = col * np.sqrt((p.D + p.rho2) / 2 / sample_power(col))
    rows = encoder._rows
    for prune_tiles, projects in [(8, False), (2, True)]:
        monkeypatch.setattr(encoder, "_PRUNE_TILES", prune_tiles)
        plan = encoder._Plan(mt, source)
        assert (plan.px is not None) == projects and plan.step == 3
        built = []

        def counted(plan, outer):
            built.append(len(outer))
            return rows(plan, outer)

        monkeypatch.setattr(encoder, "_rows", counted)
        res = encode_min_distance(mt, source)
        monkeypatch.setattr(encoder, "_rows", rows)
        assert res.beta == BetaVector((0, 0, 0))
        assert sum(built) == plan.rows


def _unscaled_tol(matrix, source):
    scale, tol = encoder._kernel_tol(matrix, source)
    return tol / scale ** 2


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 63),
       st.integers(0, 63), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_float32_near_ties_match_oracle(seed, r1, r2, k):
    # shift the midpoint of two codewords towards one of them so that their
    # exact distances differ by 2^-k of the float32 window: distinct in
    # float64, but no float32 kernel value can tell them apart
    assume(r1 != r2)
    p = make_params(6, 3, 4, 1.0, 0.5, seed=seed)
    mt = DesignMatrix(replace(p, D=0.0), build_design_matrix(p).entries)
    w1 = synthesize(mt, beta_unrank(r1, p.L, p.M))
    w2 = synthesize(mt, beta_unrank(r2, p.L, p.M))
    delta = w2 - w1
    gap = _unscaled_tol(mt, 0.5 * (w1 + w2)) * 2.0 ** -k
    source = 0.5 * (w1 + w2) + gap / (2.0 * float(delta @ delta)) * delta
    d1, d2 = encoder._exact_sq(mt.params, mt.entries.T, source,
                               np.array([r1, r2]))
    assert 0.0 < abs(d1 - d2) < _unscaled_tol(mt, source)
    fast = encode_min_distance(mt, source)
    slow = encode_oracle(mt, source)
    assert fast.beta == slow.beta
    assert fast.distortion == slow.distortion
    # one-row tiles, as in test_tiled_search_matches_oracle_across_tiles,
    # put the pair in different tiles unless r1 // 4 == r2 // 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encoder, "_INNER_COLS", 4)
        _tile_budget(mp, 2 * 4 * 8)
        assert encode_min_distance(mt, source) == slow


@given(st.integers(min_value=0, max_value=2**32),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                min_size=1, max_size=6),
       st.integers(12, 45))
@settings(max_examples=100, deadline=None)
def test_near_duplicate_columns_match_oracle(seed, copies, k):
    # columns copied with a relative perturbation of 2^-k make families of
    # codewords closer than the float32 window yet distinct in float64
    p = make_params(6, 3, 4, 1.0, 0.5, seed=seed)
    entries = build_design_matrix(p).entries.copy()
    rng = _rng(seed)
    for src, dst in copies:
        entries[:, dst] = entries[:, src] * (1.0 + 2.0 ** -k * rng.normal(size=p.n))
    mt = DesignMatrix(p, entries)
    word = synthesize(mt, beta_unrank(int(rng.integers(0, p.n_codewords)), p.L, p.M))
    source = word + 0.1 * rng.normal(size=p.n)
    if not p.D <= sample_power(source) < p.rho2:
        source = _scaled_source(rng, p)
    fast = encode_min_distance(mt, source)
    slow = encode_oracle(mt, source)
    assert fast.beta == slow.beta
    assert fast.distortion == slow.distortion


@pytest.mark.parametrize("scale", [2.0 ** 100, 2.0 ** -100])
def test_extreme_scales_match_oracle(scale):
    # squared distances near 2^+-200 would overflow or underflow float32
    # without the kernel's power-of-two scaling; scaling the design and the
    # source by a power of two scales every exact distance exactly, so the
    # answer is the unscaled one
    rng = _rng(7)
    for trial in range(10):
        p = replace(make_params(8, 3, 4, 1.0, 0.5, seed=500 + trial),
                    D=0.0, rho2=np.inf)
        base = build_design_matrix(p)
        source = rng.normal(size=p.n)
        mt = DesignMatrix(p, base.entries * scale)
        fast = encode_min_distance(mt, source * scale)
        assert fast == encode_oracle(mt, source * scale)
        plain = encode_oracle(base, source)
        assert fast.beta == plain.beta
        assert fast.distortion == plain.distortion * scale ** 2


def _tile_hits(plan, tiles):
    """How often each candidate, by rank, is multiplied by the given tiles
    of the plan, each tile checked to be its own augmented residual rows
    times its slice of the augmented inner block."""
    hits = np.zeros(plan.rows * plan.width, dtype=int)
    for outer, lo, tile in tiles:
        cols = slice(lo, lo + tile.shape[1])
        assert np.array_equal(tile, encoder._rows(plan, outer) @ plan.aug[:, cols])
        np.add.at(hits, (outer[:, None] * plan.width + plan.perm[cols]).ravel(), 1)
    return hits


def _kernel_values(plan):
    """Every kernel value of the plan, (outer rank, inner rank)."""
    kernel = np.full((plan.rows, plan.width), np.nan, dtype=np.float32)
    for outer, lo, tile in encoder._tiles(plan):
        kernel[outer[:, None], plan.perm[lo:lo + tile.shape[1]]] = tile
    return kernel


@pytest.mark.parametrize("n, L, M, inner_cols, tile_rows", [
    (4, 1, 64, 4096, 1),     # L = 1, so k == L: one zero outer row
    (6, 2, 16, 4096, 3),     # k == L - 1: chunks of 4 one-row blocks, tiles 3 + 1
    (6, 3, 16, 256, 3),      # k == L - 1: one 16-row chunk, six tiles
    (6, 4, 4, 4, 9),         # 3 outer sections: 3-row chunks across 16-row blocks
    (3, 4, 16, 16, 2),       # 3 outer sections, 256 rows: projected, 5-row chunks
    (3, 4, 4, 4, 48),        # 3 outer sections: chunks of two 16-row blocks
])
@pytest.mark.parametrize("bound", ["bytes", "macs"])
def test_streamed_tiles_match_oracle(monkeypatch, n, L, M, inner_cols,
                                     tile_rows, bound):
    # the tile rows are set either by the bytes of kernel values or by
    # the multiply-adds of the tile's product; the comments above give
    # the chunks of the bytes case, the macs case has chunks 8 times larger
    monkeypatch.setattr(encoder, "_INNER_COLS", inner_cols)
    width = M ** max(1, min(L - 1, int(np.log(inner_cols) / np.log(M))))
    _tile_budget(monkeypatch, 4 * width * tile_rows)
    if bound == "macs":
        monkeypatch.setattr(encoder, "_TILE_MACS", (n + 2) * width * tile_rows)
        _tile_budget(monkeypatch, 4 * width * tile_rows * 8)
    fast_rows = M ** (L - 1) // width if L > 1 else 1
    chunk = encoder._CHUNK_BYTES // (8 * n)
    rng = _rng(n * 100 + L)
    for trial in range(12):
        p = make_params(n, L, M, 1.0, 0.5, seed=700 + trial)
        mt = build_design_matrix(p)
        source = _scaled_source(rng, p)
        plan = encoder._Plan(mt, source)
        assert (plan.width, plan.step) == (width, tile_rows)
        assert (len(plan.fast), plan.chunk) == (fast_rows, chunk)
        # without a radius every candidate is multiplied once, each tile
        # the kernel values of its own residual rows and columns; a plan
        # without projections tiles the outer ranks in order, at most
        # plan.step rows of the whole inner block per tile
        at = 0
        hits = _tile_hits(plan, encoder._tiles(plan))
        for outer, lo, tile in encoder._tiles(plan):
            if plan.px is None:
                assert lo == 0 and tile.shape[1] == plan.width
                assert 0 < len(tile) <= plan.step
                assert np.array_equal(outer, np.arange(at, at + len(tile)))
                at += len(tile)
        assert (hits == 1).all()
        assert encode_min_distance(mt, source) == encode_oracle(mt, source)


@pytest.mark.parametrize("n, L, M", [(8, 3, 4), (6, 3, 16), (14, 2, 64),
                                     (12, 3, 16)])
def test_kernel_error_within_tolerance(n, L, M):
    rng = _rng(n + L + M)
    for trial in range(5):
        p = make_params(n, L, M, 1.0, 0.5, seed=trial)
        mt = build_design_matrix(p)
        source = rng.normal(size=n)
        plan = encoder._Plan(mt, source)
        kernel = _kernel_values(plan)
        exact = encoder._exact_sq(mt.params, mt.entries.T, source,
                                  np.arange(p.n_codewords))
        exact = exact.reshape(plan.rows, plan.width) * plan.scale ** 2
        assert np.abs(kernel - exact).max() <= plan.tol


def test_kernel_buffers_start_on_a_cache_line():
    for shape in [(1, 1), (3, 5), (15, 4096), (17, 256)]:
        for dtype in (np.float32, np.float64):
            buf = encoder._aligned_empty("test", shape, dtype)
            assert buf.shape == shape and buf.dtype == dtype
            assert buf.flags.c_contiguous and buf.flags.writeable
            assert buf.ctypes.data % encoder._ALIGN == 0
    p = make_params(6, 3, 16, 1.0, 0.5, seed=1)
    plan = encoder._Plan(build_design_matrix(p), np.zeros(p.n))
    assert plan.aug.ctypes.data % encoder._ALIGN == 0


def test_workspace_slots_grow_and_are_reused():
    # a slot keeps its buffer for any request that fits and replaces it by
    # a larger one when one does not; other slots are separate buffers
    big = encoder._aligned_empty("test_slot", (15, 4096))
    small = encoder._aligned_empty("test_slot", (3, 5), np.float64)
    assert np.shares_memory(big, small)
    assert not np.shares_memory(big, encoder._aligned_empty("test_other", (3, 5)))
    bigger = encoder._aligned_empty("test_slot", (16, 4096))
    assert not np.shares_memory(big, bigger)
    assert np.shares_memory(bigger, encoder._aligned_empty("test_slot", (15, 4096)))


_STEADY_SEARCHES = """
import json, resource, sys
import numpy as np
from sparcomp.core import build_design_matrix, make_params
from sparcomp.encoder import encode_min_distance, sample_power
p = make_params(14, 6, 16, 1.0, 0.3, seed=7)
mt = build_design_matrix(p)
sources = [s * (0.9 / sample_power(s)) ** 0.5
           for s in np.random.default_rng(7).normal(size=(41, p.n))]
statuses = [encode_min_distance(mt, sources[0]).status]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
statuses += [encode_min_distance(mt, s).status for s in sources[1:]]
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps([faults, statuses, [m for m in sys.modules if m.startswith("scipy")]]))
"""


def test_searches_fault_in_no_new_memory():
    # after one warm 14-6-16 search, 40 more fault in fewer than 5 pages
    # each: the large buffers stay in the thread's workspace. The process
    # imports no scipy, so glibc's mmap threshold starts at 128 KiB and
    # every freed block above it would be unmapped and faulted back in
    res = subprocess.run([sys.executable, "-c", _STEADY_SEARCHES],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    faults, statuses, scipy_modules = json.loads(res.stdout)
    assert scipy_modules == [] and statuses == [STATUS_OK] * 41
    assert faults < 5 * 40


def test_concurrent_searches_keep_their_own_buffers(monkeypatch):
    # two threads search different 14-6-16 sources at the same time, each
    # in its own workspace, and both find the oracle's codeword and
    # distortion every time
    p = make_params(14, 6, 16, 1.0, 0.3, seed=7)
    mt = build_design_matrix(p)
    sources = [_in_gate(p, draw_source(SourceModel("gaussian_iid", 1.0), p.n, t))
               for t in (1, 2)]
    monkeypatch.setattr(encoder, "ORACLE_CAP", p.n_codewords)
    want = [encode_oracle(mt, s) for s in sources]
    assert want[0].beta != want[1].beta
    start = threading.Barrier(2)
    got = [[], []]

    def search(t):
        start.wait()
        for _ in range(20):
            got[t].append(encode_min_distance(mt, sources[t]))

    threads = [threading.Thread(target=search, args=(t,)) for t in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, mid-search
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[want[0]] * 20, [want[1]] * 20]


@pytest.mark.parametrize("n, L, M", [(8, 3, 16), (12, 3, 64), (14, 6, 16),
                                     (16, 3, 256)])
def test_inner_block_rows_start_a_line_apart(n, L, M):
    # each row of the augmented inner block starts on a cache line, one line
    # past the end of the previous row, with and without projections
    p = make_params(n, L, M, 1.0, 0.3, seed=2)
    source = draw_source(SourceModel("gaussian_iid", 1.0), n, 2)
    plan = encoder._Plan(build_design_matrix(p), source)
    assert (plan.px is not None) == ((n, L, M) in [(14, 6, 16), (16, 3, 256)])
    line = encoder._ALIGN
    assert plan.aug.ctypes.data % line == 0
    assert plan.aug.strides == (4 * plan.width + line, 4)


# ---------------------------------------------------------------------------
# projection bound
# ---------------------------------------------------------------------------

# (n, L, M, _INNER_COLS, _TILE_BYTES) of small searches whose plans project:
# 64 outer rows of 2-row tiles in 8-row blocks; 32 one-row blocks of 2-row
# tiles; 64 rows over two fast sections, 3-row tiles
PROJECTED = [(10, 4, 8, 64, 4 * 64 * 2), (12, 3, 32, 4096, 4 * 1024 * 2),
             (6, 5, 4, 16, 4 * 16 * 3)]


def _search_tiles(monkeypatch, mt, source):
    """encode_min_distance, the search's plan and a copy of every tile it
    multiplied, recorded as the search's own radius shaped them."""
    tiles, seen = encoder._tiles, {"tiles": []}

    def recording(plan, radius=lambda: np.inf):
        seen["plan"] = plan
        for outer, lo, tile in tiles(plan, radius):
            seen["tiles"].append((outer.copy(), lo, tile.copy()))
            yield outer, lo, tile

    with monkeypatch.context() as mp:
        mp.setattr(encoder, "_tiles", recording)
        res = encode_min_distance(mt, source)
    return res, seen["plan"], seen["tiles"]


def _in_gate(p, source):
    """source, scaled into the gates' open interval when it lies outside."""
    if p.D <= sample_power(source) < p.rho2:
        return source
    return source * np.sqrt((p.D + p.rho2) / 2 / sample_power(source))


@pytest.mark.parametrize("n, L, M, inner_cols, tile_bytes", PROJECTED)
def test_pruned_search_skips_only_worse_candidates(monkeypatch, n, L, M,
                                                   inner_cols, tile_bytes):
    # the multiplied tiles cover no candidate twice, and every candidate
    # they leave out has an exact score strictly above the oracle's minimum
    monkeypatch.setattr(encoder, "_INNER_COLS", inner_cols)
    _tile_budget(monkeypatch, tile_bytes)
    rng = _rng(n * L * M)
    skipped = 0
    for trial in range(8):
        p = make_params(n, L, M, 1.0, 0.5, seed=900 + trial)
        mt = build_design_matrix(p)
        source = _scaled_source(rng, p)
        res, plan, tiles = _search_tiles(monkeypatch, mt, source)
        assert plan.px is not None
        hits = _tile_hits(plan, tiles)
        assert hits.max() == 1
        scores = encoder._exact_sq(p, mt.entries.T, source,
                                   np.arange(p.n_codewords))
        assert (scores[hits == 0] > scores.min()).all()
        assert res == encode_oracle(mt, source)
        skipped += int((hits == 0).sum())
    assert skipped > 0


def test_projection_bound_prunes_most_candidates(monkeypatch):
    # a fixed seeded draw at the criterion 8 shape 14-6-16: fewer than 10% of
    # its 16,777,216 candidates are multiplied, and the same search in rank
    # order over every candidate (_PRUNE_TILES past the plan's 273 tiles)
    # finds the same codeword and distortion
    p = make_params(14, 6, 16, 1.0, 0.3, seed=8)
    mt = build_design_matrix(p)
    source = _in_gate(p, draw_source(SourceModel("gaussian_iid", 1.0), p.n, 8))
    res, plan, tiles = _search_tiles(monkeypatch, mt, source)
    assert res.status == STATUS_OK and plan.px is not None
    assert sum(tile.size for _, _, tile in tiles) < 0.1 * p.n_codewords
    monkeypatch.setattr(encoder, "_PRUNE_TILES", plan.rows)
    full, plan, tiles = _search_tiles(monkeypatch, mt, source)
    assert plan.px is None
    assert sum(tile.size for _, _, tile in tiles) == p.n_codewords
    assert full == res


@pytest.mark.parametrize("n, L, M, D, rho2", [(14, 6, 16, 0.3, None),
                                              (16, 3, 256, 0.278193, 2.0)])
def test_one_exact_rescore_per_search(monkeypatch, n, L, M, D, rho2):
    # the window is rescored once, at the end of the scan, on seeded draws
    # at the two shapes whose plans project
    calls = []
    exact = encoder._exact_sq

    def counted(params, columns, source, ranks):
        calls.append(len(ranks))
        return exact(params, columns, source, ranks)

    monkeypatch.setattr(encoder, "_exact_sq", counted)
    for trial in range(3):
        p = make_params(n, L, M, 1.0, D, rho2=rho2, seed=40 + trial)
        source = _in_gate(p, draw_source(SourceModel("gaussian_iid", 1.0),
                                         n, 40 + trial))
        calls.clear()
        assert encode_min_distance(build_design_matrix(p), source).status == STATUS_OK
        assert len(calls) == 1


@pytest.mark.parametrize("n, L, M, D, rho2", [(14, 6, 16, 0.3, None),
                                              (16, 3, 256, 0.278193, 2.0)])
def test_tile_loop_builds_each_row_once_in_projection_order(monkeypatch, n, L,
                                                             M, D, rho2):
    # on seeded draws at the two shapes whose plans project: no outer rank
    # reaches _rows twice, the first tile is step rows at full width, and
    # the projection of each tile's first row never decreases
    built = []
    rows = encoder._rows

    def recorded(plan, outer):
        built.append(outer.copy())
        return rows(plan, outer)

    monkeypatch.setattr(encoder, "_rows", recorded)
    for trial in range(3):
        p = make_params(n, L, M, 1.0, D, rho2=rho2, seed=40 + trial)
        source = _in_gate(p, draw_source(SourceModel("gaussian_iid", 1.0),
                                         n, 40 + trial))
        built.clear()
        res, plan, tiles = _search_tiles(monkeypatch, build_design_matrix(p), source)
        assert res.status == STATUS_OK and plan.px is not None
        ranks = np.concatenate(built)
        assert len(np.unique(ranks)) == len(ranks) < plan.rows
        _, first_lo, first = tiles[0]
        assert first.shape == (plan.step, plan.width) and first_lo == 0
        pr = np.empty(plan.rows)
        pr[plan.order] = plan.pr
        firsts = pr[[outer[0] for outer, _, _ in tiles]]
        assert (np.diff(firsts) >= 0).all()


@pytest.mark.parametrize("n, L, M, inner_cols, tile_bytes", PROJECTED)
def test_pruned_search_degenerate_inputs_match_oracle(monkeypatch, n, L, M,
                                                      inner_cols, tile_bytes):
    # identical columns put every px at one value, all-zero columns make
    # every codeword zero, a source along one column projects onto itself,
    # a zero source (with D = 0) has no direction; and one source of each
    # robustness model. Ties en masse rescore the window early, whenever
    # more than plan.cap candidates are pending, and no more often
    monkeypatch.setattr(encoder, "_INNER_COLS", inner_cols)
    _tile_budget(monkeypatch, tile_bytes)
    p = make_params(n, L, M, 1.0, 0.5, seed=77)
    col = np.linspace(-1.0, 1.0, n)
    design = build_design_matrix(p).entries
    cases = [(np.tile(col[:, None], (1, p.n_columns)), col),
             (np.zeros((n, p.n_columns)), _rng(1).normal(size=n)),
             (design, design[:, p.M + 1] * 1.5),
             (design, np.zeros(n))]
    cases += [(design, draw_source(SourceModel(kind, 1.0, 0.7 * (kind == "gauss_markov")),
                                   n, 5))
              for kind in SOURCE_KINDS]
    calls = []
    exact = encoder._exact_sq

    def counted(params, columns, source, ranks):
        calls.append(len(ranks))
        return exact(params, columns, source, ranks)

    for entries, source in cases:
        if source.any():
            mt = DesignMatrix(p, entries)
            source = _in_gate(p, source)
        else:
            mt = DesignMatrix(replace(p, D=0.0), entries)
        plan = encoder._Plan(mt, source)
        assert plan.px is not None
        calls.clear()
        monkeypatch.setattr(encoder, "_exact_sq", counted)
        res = encode_min_distance(mt, source)
        monkeypatch.setattr(encoder, "_exact_sq", exact)
        assert res.status == STATUS_OK
        assert res == encode_oracle(mt, source)
        assert 1 <= len(calls) <= p.n_codewords // plan.cap + 1
        assert max(calls) <= plan.cap + max(plan.cap, plan.width)


def test_plans_project_when_their_rows_fill_enough_tiles(monkeypatch):
    # one rule, from the plan's shape: the plan projects when its outer rows
    # fill at least _PRUNE_TILES full-width tiles. At the default constants
    # 8-3-16 (16 rows, 256 per tile) and 12-3-64 (64 rows, 16 per tile) do
    # not, 14-6-16 (4096 rows, 15 per tile) and 16-3-256 (65,536 rows, 217
    # per tile) do; 12-3-64 projects from _PRUNE_TILES = 4 down
    for (n, L, M), rows, step, projects in [((8, 3, 16), 16, 256, False),
                                            ((12, 3, 64), 64, 16, False),
                                            ((14, 6, 16), 4096, 15, True),
                                            ((16, 3, 256), 65536, 217, True)]:
        p = make_params(n, L, M, 1.0, 0.3, rho2=2.0, seed=n)
        plan = encoder._Plan(build_design_matrix(p), _scaled_source(_rng(n), p))
        assert (plan.rows, plan.step) == (rows, step)
        assert (plan.px is not None) == projects
    p = make_params(12, 3, 64, 1.0, 0.3, rho2=2.0, seed=3)
    mt = build_design_matrix(p)
    source = _scaled_source(_rng(3), p)
    for prune_tiles, projects in [(4, True), (5, False)]:
        monkeypatch.setattr(encoder, "_PRUNE_TILES", prune_tiles)
        assert (encoder._Plan(mt, source).px is not None) == projects
        assert encode_min_distance(mt, source) == encode_oracle(mt, source)
