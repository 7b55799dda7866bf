"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from oracle import complex_normal

from covstruct.estimators import Approach, Dataset
from covstruct.structures import Hypothesis, project

FD_STEP = 1e-5
# The four-point second-difference stencil divides by 4 h^2; at h = 1e-5 the
# float64 roundoff of the stacked likelihood values dominates, so Hessian
# stencils use a larger step sitting at the truncation/roundoff optimum.
FD_HESS_STEP = 5e-4


def fd_gradient(f, p0):
    """Central finite-difference gradient with per-coordinate steps."""
    g = np.zeros_like(p0)
    for i in range(p0.size):
        h = FD_STEP * max(1.0, abs(p0[i]))
        up = p0.copy()
        up[i] += h
        down = p0.copy()
        down[i] -= h
        g[i] = (f(up) - f(down)) / (2 * h)
    return g


def fd_hessian(f, p0):
    """Central four-point second-difference Hessian.

    The stencil is symmetric in (i, j), so only j >= i is evaluated and the
    upper triangle is mirrored.
    """
    n = p0.size
    hess = np.zeros((n, n))
    steps = [FD_HESS_STEP * max(1.0, abs(p0[i])) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            hi, hj = steps[i], steps[j]
            pp = p0.copy(); pp[i] += hi; pp[j] += hj
            pm = p0.copy(); pm[i] += hi; pm[j] -= hj
            mp = p0.copy(); mp[i] -= hi; mp[j] += hj
            mm = p0.copy(); mm[i] -= hi; mm[j] -= hj
            hess[i, j] = hess[j, i] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * hi * hj)
    return hess


def random_pd_matrix(rng, n, hypothesis=Hypothesis.H1, diag_boost=None):
    """Random positive definite matrix with the requested structure."""
    base = complex_normal(rng, (n, n))
    m = base @ base.conj().T
    m = 0.5 * (m + m.conj().T)
    if diag_boost is None:
        diag_boost = 2.0 * n
    m = project(hypothesis, m) + diag_boost * np.eye(n)
    return m


def gaussian_snapshots(rng, covariance, k):
    """K zero-mean circular Gaussian snapshots with the given covariance."""
    low = np.linalg.cholesky(covariance)
    return low @ complex_normal(rng, (covariance.shape[0], k))


def random_dataset(rng, n, k, with_cut=True):
    """Dataset with white secondary snapshots and an optional CUT."""
    secondary = complex_normal(rng, (n, k))
    if not with_cut:
        return Dataset(secondary=secondary)
    cut = complex_normal(rng, (n,))
    steering = complex_normal(rng, (n,))
    steering = steering / np.linalg.norm(steering)
    return Dataset(secondary=secondary, cut=cut, steering=steering)


def with_singular_schur(real_info, hypothesis, trial):
    """information_terms, except that ``hypothesis`` gets a singular 2 x 2
    Schur complement at ``trial`` of each stack under approach A."""

    def patched(estimate, stack, approaches):
        infos = real_info(estimate, stack, approaches)
        if estimate.hypothesis is not hypothesis or Approach.A not in infos:
            return infos
        info = infos[Approach.A]
        observed = info.schur[0].copy()
        observed[trial] = [[1.0, 1.0], [1.0, 1.0]]
        return {**infos, Approach.A: dataclasses.replace(info, schur=(observed, info.schur[1]))}

    return patched


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
