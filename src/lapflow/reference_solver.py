"""Centralized solvers: direct oracle, inverse-chain solve, preconditioned Richardson."""

import math

import numpy as np

from .spectral import sparse_lu, validate_sddm

__all__ = [
    "direct_solve",
    "crude_solve",
    "richardson_iterates",
    "richardson_iterations",
]

# ln(1/(2^{1/3}-1)); per-iteration contraction guarantee of the
# chain-preconditioned Richardson scheme
RICHARDSON_RATE = math.log(1.0 / (2.0 ** (1.0 / 3.0) - 1.0))


def richardson_iterations(eps):
    """Fixed iteration count q = ceil(ln(1/eps) / ln(1/(2^{1/3}-1)))."""
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    return math.ceil(math.log(1.0 / eps) / RICHARDSON_RATE)


def _check_rhs(b, n):
    """b as a float vector of length n; ValueError on a wrong length or a non-finite entry."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != n:
        raise ValueError("b has wrong length")
    if not np.all(np.isfinite(b)):
        raise ValueError("b has a non-finite entry")
    return b


def direct_solve(s, b):
    """Ground-truth solve of M x = b by one sparse LU factorization.

    M is factored once by spectral.sparse_lu (minimum-degree ordering of
    M' + M, computed once per sparsity pattern), solved, and refined by one
    step on the same factors; no n x n array is formed.

    Parameters
    ----------
    s : StandardSplitting
        Positive definite SDDM system; ground a Laplacian first
        (graph_core.ground).
    b : array_like

    Returns
    -------
    ndarray
        x with ||M x - b||_2 <= 1e-10 ||b||_2.
    """
    b = _check_rhs(b, s.n)
    if not validate_sddm(s).positive_definite:
        raise ValueError("direct_solve needs positive definite SDDM; ground a Laplacian first")
    M = s.matrix()
    lu = sparse_lu(M)
    x = lu.solve(b)
    x += lu.solve(b - M @ x)  # one refinement step on the same factors
    resid = np.linalg.norm(M @ x - b)
    if resid > 1e-10 * max(np.linalg.norm(b), 1e-300):
        raise RuntimeError("direct solve residual %.3e exceeds tolerance" % resid)
    return x


def crude_solve(b0, D, d, apply_p):
    """Crude solve x0 = Z0 b0 through the inverse chain, given its power applier.

    Forward pass b_i = b_{i-1} + P^{2^{i-1}} b_{i-1} for i = 1..d, top solve
    x_d = b_d / D, backward pass x_i = (b_i/D + x_{i+1} + Q^{2^i} x_{i+1})/2,
    where apply_p(i, v) = P^{2^i} v. The backward pass needs no second
    applier: Q = D^{-1} P D, so Q^{2^i} x = P^{2^i}(D x) / D, and its values
    travel D-scaled. The realized operator Z0 satisfies the e^{±eps_d}
    sandwich against M0^{-1} when d comes from chain_length. Returns x0;
    ValueError if b0 has the wrong length or a non-finite entry.
    """
    b = _check_rhs(b0, D.shape[0])
    levels = [b]
    for i in range(1, d + 1):
        b = b + apply_p(i - 1, b)
        levels.append(b)
    x = levels[d] / D
    for i in range(d - 1, -1, -1):
        x = 0.5 * (levels[i] / D + x + apply_p(i, D * x) / D)
    return x


def richardson_iterates(rsolve, apply_M, b0, eps):
    """Richardson iteration preconditioned with a crude solver.

    Yields chi = rsolve(b0) and then each of the q = richardson_iterations(eps)
    iterates y <- y - rsolve(M y) + chi, where apply_M(y) = M y. The last
    one satisfies ||y - x*||_M <= eps ||x*||_M.
    """
    q = richardson_iterations(eps)
    chi = rsolve(b0)
    y = chi.copy()
    yield y
    for _ in range(q):
        y = y - rsolve(apply_M(y)) + chi
        yield y
