"""The matrix operators drawn by the one-SVD budget test and the image-map
tests: one shape of each kind, with the rank it is drawn at."""

import numpy as np

MATRIX_SHAPES = {"square": ((6, 6), 6), "square-deficient": ((6, 6), 4), "wide": ((4, 7), 4),
                 "tall": ((7, 4), 4)}


def rank_matrix(rng, shape, rank):
    """A complex matrix of the given shape and rank."""
    return ((rng.standard_normal((shape[0], rank)) + 1j * rng.standard_normal((shape[0], rank)))
            @ rng.standard_normal((rank, shape[1])))
