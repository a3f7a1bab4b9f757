"""Sparse regression codes for lossy compression.

Codebooks are sums of one column per section of a seeded Gaussian
dictionary; encoding is exhaustive minimum-distance search. The package
computes the closed-form rate curves, error exponents, large-deviation
rate functions and covering-probability bounds for this ensemble, and
validates them against independent numerical oracles and Monte Carlo
simulation at desk scale.
"""

from .core import (
    beta_rank,
    build_design_matrix,
    load_matrix,
    make_params,
    save_matrix,
    synthesize,
)
from .encoder import encode_min_distance
from .sim import SourceModel, draw_source

__version__ = "0.1.0"
