"""Parameter derivation, index/bit serialization round trips, the seeded
Gaussian stream, design-matrix construction and file containers."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparcomp as sp
from sparcomp import core
import sparcomp.theory as th
from sparcomp.core import (
    BetaVector, LowRateError, beta_rank, beta_to_bits, beta_unrank,
    bits_to_beta, build_design_matrix, gaussian_stream, load_beta,
    load_matrix, make_params, pack_beta_bits, read_matrix_header, save_beta,
    save_matrix, synthesize, unpack_beta_bits,
)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_make_params_derived_fields():
    p = make_params(8, 3, 4, 1.0, 0.5, seed=42)
    assert p.R == pytest.approx(3 * math.log(4) / 8, abs=1e-15)
    assert p.b == pytest.approx(math.log(4) / math.log(3), abs=1e-15)
    # default variance threshold is the midpoint of the admissible window
    assert p.rho2 == pytest.approx((1.0 + th.a_squared(p.R, p.D)) / 2, abs=1e-15)
    assert p.gamma2 == pytest.approx(p.rho2 - p.D, abs=1e-15)
    assert p.c == pytest.approx(math.sqrt(p.gamma2 / p.L), abs=1e-15)
    assert p.n_codewords == 64
    assert p.n_columns == 12


def test_make_params_rejects_low_rate():
    with pytest.raises(LowRateError):
        make_params(10, 3, 4, 1.0, 0.5)


def test_make_params_low_rate_override_needs_rho2():
    with pytest.raises(LowRateError):
        make_params(10, 3, 4, 1.0, 0.5, allow_low_rate=True)
    p = make_params(10, 3, 4, 1.0, 0.5, rho2=1.2, allow_low_rate=True)
    assert p.rho2 == 1.2


def test_make_params_validation():
    with pytest.raises(ValueError):
        make_params(0, 3, 4, 1.0, 0.5)
    with pytest.raises(ValueError):
        make_params(8, 3, 1, 1.0, 0.5)
    with pytest.raises(ValueError):
        make_params(8, 3, 4, 1.0, 1.5)       # D >= sigma2
    with pytest.raises(ValueError):
        make_params(8, 3, 4, 1.0, 0.5, rho2=0.4)   # rho2 <= sigma2
    with pytest.raises(ValueError):
        make_params(8, 3, 4, 1.0, 0.5, seed=-1)


@pytest.mark.parametrize("kwargs", [
    {"sigma2": math.inf}, {"sigma2": math.nan}, {"D": math.nan},
    {"D": math.inf}, {"rho2": math.inf}, {"rho2": math.nan},
])
def test_make_params_rejects_non_finite_before_rate_check(kwargs):
    args = {"sigma2": 1.0, "D": 0.5, "rho2": 1.5, "allow_low_rate": True}
    args.update(kwargs)
    with pytest.raises(ValueError, match="finite") as err:
        make_params(8, 3, 4, **args)
    assert not isinstance(err.value, LowRateError)


def test_params_frozen():
    p = make_params(8, 3, 4, 1.0, 0.5, seed=42)
    with pytest.raises(AttributeError):
        p.n = 9


# ---------------------------------------------------------------------------
# beta indexing and serialization
# ---------------------------------------------------------------------------

def test_beta_rank_known_value():
    # section 0 is the least-significant digit
    assert beta_rank(BetaVector((3, 1, 0)), 4) == 3 + 1 * 4 + 0 * 16


def test_beta_bits_known_value():
    # section 0 first, big-endian within a section
    assert beta_to_bits(BetaVector((3, 1)), 4) == "1101"


def test_bits_requires_power_of_two_M():
    with pytest.raises(ValueError):
        beta_to_bits(BetaVector((0, 1)), 3)


def test_rank_unrank_exhaustive_small():
    for L, M in [(3, 17), (5, 10)]:
        for k in range(M ** L):
            assert beta_rank(beta_unrank(k, L, M), M) == k


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=2, max_value=300),
       st.data())
@settings(max_examples=150, deadline=None)
def test_rank_unrank_bijection(L, M, data):
    k = data.draw(st.integers(min_value=0, max_value=M ** L - 1))
    beta = beta_unrank(k, L, M)
    assert len(beta.indices) == L
    assert all(0 <= i < M for i in beta.indices)
    assert beta_rank(beta, M) == k


@given(st.integers(min_value=1, max_value=10),
       st.sampled_from([2, 4, 8, 16, 32]),
       st.data())
@settings(max_examples=120, deadline=None)
def test_bits_round_trip(L, M, data):
    idx = tuple(data.draw(st.integers(min_value=0, max_value=M - 1))
                for _ in range(L))
    beta = BetaVector(idx)
    bits = beta_to_bits(beta, M)
    assert len(bits) == L * int(math.log2(M))
    n = max(8, L * int(math.log2(M)))  # block length irrelevant here
    p = make_params(n, L, M, 1.0, 0.5, rho2=1.5, allow_low_rate=True, seed=0) \
        if L * math.log(M) / n <= th.sparc_rate(1.0, 0.5) else \
        make_params(n, L, M, 1.0, 0.5, seed=0)
    assert bits_to_beta(bits, p) == beta
    packed = pack_beta_bits(beta, M)
    assert unpack_beta_bits(packed, p) == beta


def test_beta_file_round_trip(tmp_path):
    beta = BetaVector((3, 0, 2, 1))
    path = tmp_path / "beta.bin"
    save_beta(beta, path)
    assert load_beta(path) == beta


def test_beta_indices_validated():
    p = make_params(8, 3, 4, 1.0, 0.5, seed=0)
    with pytest.raises(ValueError):
        bits_to_beta("11", p)            # wrong length
    with pytest.raises(ValueError):
        beta_unrank(-1, 3, 4)
    with pytest.raises(ValueError):
        beta_unrank(64, 3, 4)


# ---------------------------------------------------------------------------
# seeded Gaussian stream
# ---------------------------------------------------------------------------

FROZEN_STREAM_0 = [
    0.008088695404117373, 0.15219212994898557, -0.4468097514740505,
    -0.1914038077379988, -0.20389847870052627, 1.1637271633786284,
]


def test_gaussian_stream_frozen_prefix():
    got = gaussian_stream(0, 6)
    assert np.allclose(got, FROZEN_STREAM_0, rtol=0, atol=0)


def test_gaussian_stream_prefix_stability():
    # extending the stream must not change earlier values
    a = gaussian_stream(7, 10)
    b = gaussian_stream(7, 1000)
    assert np.array_equal(a, b[:10])


def test_gaussian_stream_moments():
    x = gaussian_stream(3, 200_000)
    assert abs(float(x.mean())) < 0.01
    assert float(x.std()) == pytest.approx(1.0, abs=0.01)


def test_gaussian_stream_seed_sensitivity():
    assert not np.array_equal(gaussian_stream(0, 8), gaussian_stream(1, 8))


# ---------------------------------------------------------------------------
# design matrix
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small():
    p = make_params(8, 3, 4, 1.0, 0.5, seed=42)
    return p, build_design_matrix(p)


def test_matrix_shape_and_sections(small):
    p, mt = small
    assert mt.entries.shape == (p.n, p.n_columns)
    assert mt.section(0).shape == (p.n, p.M)
    assert np.array_equal(mt.section(2), mt.entries[:, 8:12])
    with pytest.raises(ValueError):
        mt.section(3)


def test_matrix_entries_read_only(small):
    _, mt = small
    with pytest.raises(ValueError):
        mt.entries[0, 0] = 1.0


def test_matrix_column_major_fill(small):
    # entries come from one documented stream, column-major
    p, mt = small
    flat = gaussian_stream(p.seed, p.n * p.n_columns)
    assert np.array_equal(mt.entries, flat.reshape((p.n, p.n_columns), order="F"))


def test_matrix_hash_frozen(small):
    _, mt = small
    assert mt.content_hash() == (
        "350d989dbb8683c7413c56e62cd9c6221ba0d49f0604eeed381d8a610e7bf769")


def test_matrix_determinism(small):
    p, mt = small
    again = build_design_matrix(p)
    assert mt.content_hash() == again.content_hash()


def test_matrix_size_guard(monkeypatch):
    p = make_params(64, 8, 256, 1.0, 0.5, seed=0)
    monkeypatch.setattr(core, "MAX_MATRIX_ENTRIES", 10_000)
    with pytest.raises(ValueError, match="cap"):
        build_design_matrix(p)


def test_synthesize_is_linear(small):
    p, mt = small
    beta = BetaVector((2, 0, 3))
    word = synthesize(mt, beta)
    manual = p.c * (mt.section(0)[:, 2] + mt.section(1)[:, 0]
                    + mt.section(2)[:, 3])
    # identical accumulation order -> bit-exact
    assert np.array_equal(word, manual)


def test_synthesize_dense_support(small):
    # the implied dense coefficient vector: L non-zeros, one per section, all c
    p, mt = small
    beta = BetaVector((1, 3, 0))
    dense = np.zeros(p.n_columns)
    for sec, idx in enumerate(beta.indices):
        dense[sec * p.M + idx] = p.c
    assert np.count_nonzero(dense) == p.L
    assert np.allclose(mt.entries @ dense, synthesize(mt, beta), atol=1e-12)


def test_synthesize_reproducible(small):
    _, mt = small
    beta = BetaVector((0, 1, 2))
    assert np.array_equal(synthesize(mt, beta), synthesize(mt, beta))


# ---------------------------------------------------------------------------
# matrix container
# ---------------------------------------------------------------------------

def test_matrix_file_round_trip(tmp_path, small):
    p, mt = small
    path = tmp_path / "matrix.bin"
    save_matrix(mt, path)
    back = load_matrix(path, p)
    assert np.array_equal(back.entries, mt.entries)
    hdr = read_matrix_header(path)
    assert (hdr["n"], hdr["L"], hdr["M"], hdr["seed"]) == (8, 3, 4, 42)
    assert hdr["version"] == 1


def test_matrix_file_header_is_32_bytes(tmp_path, small):
    p, mt = small
    path = tmp_path / "matrix.bin"
    save_matrix(mt, path)
    assert path.stat().st_size == 32 + 8 * p.n * p.n_columns


def test_load_matrix_rejects_mismatched_params(tmp_path, small):
    p, mt = small
    path = tmp_path / "matrix.bin"
    save_matrix(mt, path)
    other = make_params(8, 3, 4, 1.0, 0.5, seed=43)
    with pytest.raises(ValueError):
        load_matrix(path, other)


def test_load_matrix_rejects_bad_magic(tmp_path, small):
    p, _ = small
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"XXXX" + bytes(60))
    with pytest.raises(ValueError):
        read_matrix_header(path)
