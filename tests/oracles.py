"""Reference routes that the package no longer runs, kept to check it."""

import numpy as np

from freeconv import transforms


def grid_cauchy_reference(mu, z, derivative=False):
    """(G, G') of a grid spec by complex division, with G' = 0 without
    derivative: the trapezoid sum of w_k d_k/(z - x_k) and of its square,
    512 points at a time, as transforms._grid_cauchy computed it before it
    ran in real arithmetic. It has no near-axis guard."""
    xs = np.asarray(mu.xs)
    dens = np.asarray(mu.densities)
    weights = np.zeros_like(xs)
    weights[:-1] += np.diff(xs) / 2
    weights[1:] += np.diff(xs) / 2
    wd = weights * dens
    flat = z.ravel()
    out = np.zeros((2, flat.size), dtype=complex)
    for start in range(0, flat.size, 512):
        gaps = flat[start : start + 512, None] - xs
        terms = wd / gaps
        out[0, start : start + 512] = terms.sum(axis=-1)
        if derivative:
            out[1, start : start + 512] = -np.divide(terms, gaps, out=terms).sum(axis=-1)
    return out.reshape(2, *z.shape) + transforms._atomic_cauchy(mu.atoms, z, derivative)
