"""Shared fixtures: small HODLR-compressible test matrices and operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterTree, build_hodlr


def hodlr_friendly_matrix(n: int, seed: int = 0, decay: float = 50.0, shift: float = None):
    """A dense matrix whose off-diagonal blocks have rapidly decaying ranks.

    ``A[i, j] = 1 / (1 + decay * |x_i - x_j|) + shift * I`` over sorted 1-D
    points: smooth off the diagonal (low rank), diagonally dominant (well
    conditioned), and nonsymmetric after the random perturbation below.
    """
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    A = 1.0 / (1.0 + decay * np.abs(x[:, None] - x[None, :]))
    # small smooth nonsymmetric part so the two off-diagonal blocks differ
    A = A + 0.05 * np.outer(np.sin(3 * np.pi * x), np.cos(2 * np.pi * x))
    if shift is None:
        shift = float(n)
    return A + shift * np.eye(n)


def spd_kernel_matrix(n: int, seed: int = 0, lengthscale: float = 0.2, nugget: float = 1e-2):
    """A symmetric positive definite Gaussian-kernel matrix over sorted 1-D points."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    d = np.abs(x[:, None] - x[None, :])
    return np.exp(-0.5 * (d / lengthscale) ** 2) + nugget * np.eye(n)


def complex_test_matrix(n: int, seed: int = 0, kappa: float = 10.0):
    """A complex symmetric matrix with low-rank off-diagonal blocks (Helmholtz-like)."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, n))
    d = np.abs(x[:, None] - x[None, :])
    A = np.exp(1j * kappa * d) / (1.0 + 10.0 * d)
    return A + (2.0 + 0.5j) * np.sqrt(n) * np.eye(n)


@pytest.fixture
def small_dense():
    return hodlr_friendly_matrix(256, seed=1)


@pytest.fixture
def small_tree():
    return ClusterTree.balanced(256, leaf_size=32)


@pytest.fixture
def small_hodlr(small_dense, small_tree):
    return build_hodlr(small_dense, small_tree, tol=1e-12, method="svd")


@pytest.fixture
def spd_dense():
    return spd_kernel_matrix(256, seed=2)


@pytest.fixture
def spd_hodlr(spd_dense):
    tree = ClusterTree.balanced(256, leaf_size=32)
    return build_hodlr(spd_dense, tree, tol=1e-12, method="svd")


@pytest.fixture
def complex_dense():
    return complex_test_matrix(192, seed=3)


@pytest.fixture
def complex_hodlr(complex_dense):
    tree = ClusterTree.balanced(192, leaf_size=24)
    return build_hodlr(complex_dense, tree, tol=1e-12, method="svd")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def lu_paths(monkeypatch):
    """Count which side of the LU dispatch crossovers the NumPy backend runs.

    Keys: ``factor_vectorised`` / ``factor_loop`` (per-problem LAPACK) and
    ``solve_vectorised`` / ``solve_loop``, each the number of backend calls
    made since the fixture was set up (``clear()`` it to restart).
    """
    from collections import Counter

    from repro.backends.dispatch import NumpyBackend

    counts = Counter()

    def spy(name, key):
        original = getattr(NumpyBackend, name)

        def counted(self, *args, **kwargs):
            counts[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(NumpyBackend, name, counted)

    spy("lu_factor_batch", "factor_vectorised")
    spy("lu_factor", "factor_loop")
    spy("lu_solve_batch", "solve_vectorised")
    spy("lu_solve_many", "solve_loop")
    return counts
