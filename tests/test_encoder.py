"""Exhaustive nearest-codeword search: gating, optimality against a fresh
brute-force oracle, tie-break determinism, codebook monotonicity, the
float32 tiled kernel and the batched exact scorer."""

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


@pytest.fixture(scope="module")
def inst():
    p = make_params(8, 3, 4, 1.0, 0.5, seed=42)
    return p, build_design_matrix(p)


def _rng(seed):
    return np.random.default_rng(seed)


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
    monkeypatch.setattr(encoder, "_TILE_BYTES", 2 * 4 * 8)
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
    monkeypatch.setattr(encoder, "_TILE_BYTES", 4 * 256 * 3)
    p = make_params(8, 3, 16, 1.0, 0.5, seed=0)
    col = np.linspace(-1.0, 1.0, p.n)
    mt = DesignMatrix(p, np.tile(col[:, None], (1, p.n_columns)))
    source = col * np.sqrt((p.D + p.rho2) / 2 / sample_power(col))
    plan = encoder._Plan(mt, source)
    mins = np.array([tile.min() for _, tile in encoder._tiles(plan)])
    assert len(mins) == 6
    assert (mins <= float(mins.min()) + 2.0 * plan.tol).all()
    res = encode_min_distance(mt, source)
    assert res.beta == BetaVector((0, 0, 0))
    assert res == encode_oracle(mt, source)


def test_all_ties_build_each_residual_row_once(monkeypatch):
    # every tile lies in the window, and the window is rescored during the
    # scan, so no residual row is built a second time
    monkeypatch.setattr(encoder, "_TILE_BYTES", 4 * 256 * 3)
    p = make_params(8, 3, 16, 1.0, 0.5, seed=0)
    col = np.linspace(-1.0, 1.0, p.n)
    mt = DesignMatrix(p, np.tile(col[:, None], (1, p.n_columns)))
    source = col * np.sqrt((p.D + p.rho2) / 2 / sample_power(col))
    built = []
    augmented = encoder._augmented

    def counted(resid):
        built.append(len(resid))
        return augmented(resid)

    monkeypatch.setattr(encoder, "_augmented", counted)
    res = encode_min_distance(mt, source)
    assert res.beta == BetaVector((0, 0, 0))
    assert sum(built) == encoder._Plan(mt, source).rows


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
        mp.setattr(encoder, "_TILE_BYTES", 2 * 4 * 8)
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


@pytest.mark.parametrize("n, L, M, inner_cols, tile_rows", [
    (4, 1, 64, 4096, 1),     # L = 1, so k == L: one zero outer row
    (6, 2, 16, 4096, 3),     # k == L - 1: chunks of 4 one-row blocks, tiles 3 + 1
    (6, 3, 16, 256, 3),      # k == L - 1: one 16-row chunk, six tiles
    (6, 4, 4, 4, 9),         # 3 outer sections: 3-row chunks inside 16-row blocks
    (3, 4, 16, 16, 2),       # 3 outer sections: 5-row chunks, tiles 2 + 2 + 1
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
    monkeypatch.setattr(encoder, "_TILE_BYTES", 4 * width * tile_rows)
    if bound == "macs":
        monkeypatch.setattr(encoder, "_TILE_MACS", (n + 2) * width * tile_rows)
        monkeypatch.setattr(encoder, "_TILE_BYTES", 4 * width * tile_rows * 8)
    fast_rows = M ** (L - 1) // width if L > 1 else 1
    chunk = encoder._TILE_BYTES // (8 * n)
    rng = _rng(n * 100 + L)
    for trial in range(12):
        p = make_params(n, L, M, 1.0, 0.5, seed=700 + trial)
        mt = build_design_matrix(p)
        source = _scaled_source(rng, p)
        plan = encoder._Plan(mt, source)
        assert (plan.width, plan.step) == (width, tile_rows)
        assert (len(plan.fast), plan.chunk) == (fast_rows, chunk)
        # the tiles partition the outer ranks in order, each tile at most
        # plan.step rows of the kernel values of its own residual rows
        at = 0
        for lo, tile in encoder._tiles(plan):
            assert lo == at and 0 < len(tile) <= plan.step
            at += len(tile)
            outer = np.arange(lo, at)
            resid = plan.slow[outer // fast_rows] - plan.fast[outer % fast_rows]
            assert np.array_equal(tile, encoder._augmented(resid) @ plan.aug)
        assert at == plan.rows
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
        kernel = np.concatenate([tile.copy() for _, tile in encoder._tiles(plan)])
        exact = encoder._exact_sq(mt.params, mt.entries.T, source,
                                  np.arange(p.n_codewords))
        exact = exact.reshape(plan.rows, plan.width) * plan.scale ** 2
        assert np.abs(kernel - exact).max() <= plan.tol


def test_kernel_buffers_start_on_a_cache_line():
    for shape in [(1, 1), (3, 5), (15, 4096), (17, 256)]:
        buf = encoder._aligned_empty(shape)
        assert buf.shape == shape and buf.dtype == np.float32
        assert buf.flags.c_contiguous and buf.flags.writeable
        assert buf.ctypes.data % encoder._ALIGN == 0
    p = make_params(6, 3, 16, 1.0, 0.5, seed=1)
    plan = encoder._Plan(build_design_matrix(p), np.zeros(p.n))
    assert plan.aug.ctypes.data % encoder._ALIGN == 0
