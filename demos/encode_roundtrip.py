"""
One complete compression round trip on a single source block.

Builds the seeded Gaussian dictionary, encodes a block by exhaustive
minimum-distance search, shows the selection as its codeword rank and as
the packed L*log2(M)-bit payload, reconstructs the block, and decodes it
again from the matrix and payload files.
"""
import tempfile
from pathlib import Path

import numpy as np

from sparcomp import (
    beta_rank, build_design_matrix, encode_min_distance, load_matrix,
    make_params, save_matrix, synthesize,
)
from sparcomp.core import pack_beta_bits, unpack_beta_bits
from sparcomp.encoder import sample_power
from sparcomp.sim import SourceModel, draw_source


def main():
    params = make_params(12, 5, 16, 1.0, 0.5, seed=2024)
    nbits = params.L * (params.M.bit_length() - 1)
    print(f"codebook: L={params.L} sections x M={params.M} columns, "
          f"n={params.n}, rate {params.R:.4f} nats/sample "
          f"({nbits} bits per block)")
    matrix = build_design_matrix(params)
    print(f"dictionary hash: {matrix.content_hash()[:16]}...\n")

    source = draw_source(SourceModel("gaussian_iid", 1.0), params.n, 5)
    print("source block power:", round(sample_power(source), 4))

    result = encode_min_distance(matrix, source)
    print("encode status:", result.status)
    print("selected columns per section:", result.beta.indices)
    print("distortion:", round(result.distortion, 4), "target D:", params.D)

    rank = beta_rank(result.beta, params.M)
    payload = pack_beta_bits(result.beta, params.M)
    bits = "".join(f"{byte:08b}" for byte in payload)[:nbits]
    print(f"\ncodeword rank {rank} of {params.n_codewords}")
    print(f"payload: {payload.hex()} ({len(payload)} bytes); "
          f"its {nbits} bits: {bits}")
    assert unpack_beta_bits(payload, params.L, params.M) == result.beta

    reconstruction = synthesize(matrix, result.beta)
    err = sample_power(source - reconstruction)
    print("reconstruction error (per sample):", round(err, 6))

    with tempfile.TemporaryDirectory() as tmp:
        mpath, bpath = Path(tmp) / "dict.bin", Path(tmp) / "beta.bin"
        save_matrix(matrix, mpath)
        bpath.write_bytes(payload)
        beta = unpack_beta_bits(bpath.read_bytes(), params.L, params.M)
        again = synthesize(load_matrix(mpath, params), beta)
        print("decode-from-files identical:",
              bool(np.array_equal(again, reconstruction)))


if __name__ == "__main__":
    main()
