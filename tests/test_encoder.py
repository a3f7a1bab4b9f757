"""Exhaustive nearest-codeword search: gating, optimality against a fresh
brute-force oracle, tie-break determinism, codebook monotonicity and the
tiled kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparcomp import encoder
from sparcomp.core import (
    BetaVector, DesignMatrix, beta_unrank, build_design_matrix, make_params,
    synthesize,
)
from sparcomp.encoder import (
    STATUS_OK, STATUS_TRIVIAL_ZERO, STATUS_VARIANCE_OVERFLOW, all_distortions,
    encode_min_distance, encode_oracle, min_distortion_profile, sample_power,
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
    p, mt = inst
    source = np.full(p.n, np.sqrt(p.D) * 0.9)     # below params.D
    res = encode_min_distance(mt, source, D=p.D * 0.5)
    assert res.status == STATUS_OK                 # no longer under threshold


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
    fast = encode_min_distance(mt, source, D=0.0)
    slow = encode_oracle(mt, source, D=0.0)
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
    # a one-section inner block and two-row tiles make the (8, 3, 4)
    # search span 8 tiles
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
        mt = DesignMatrix(p, cols)
        res = encode_min_distance(mt, source, D=1e-12)
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
    dists = all_distortions(mt, source)
    assert dists.shape == (p.n_codewords,)
    res = encode_min_distance(mt, source, D=1e-12)
    assert res.status == STATUS_OK
    assert float(dists.min()) == pytest.approx(res.distortion, rel=1e-12)
    # rank indexing: entry at the argmin rank equals the reported distortion
    from sparcomp.core import beta_rank
    assert dists[beta_rank(res.beta, p.M)] == pytest.approx(
        res.distortion, rel=1e-12)


def test_min_distortion_profile_sorted_and_total(inst):
    p, mt = inst
    source = _rng(43).normal(size=p.n) * 0.85
    prof = min_distortion_profile(mt, source)
    values = [v for v, _ in prof]
    assert values == sorted(values)
    assert sum(c for _, c in prof) == p.n_codewords


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
