"""Centralized solvers: direct oracle, inverse-chain solve, preconditioned Richardson."""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import sparse_lu, validate_sddm

__all__ = [
    "KeptFactors",
    "direct_solve",
    "crude_solve",
    "richardson_iterates",
    "richardson_iterations",
]

# 2^{1/3}-1, the per-iteration contraction guarantee of the
# chain-preconditioned Richardson scheme, and its rate ln(1/(2^{1/3}-1))
RICHARDSON_CONTRACTION = 2.0 ** (1.0 / 3.0) - 1.0
RICHARDSON_RATE = math.log(1.0 / RICHARDSON_CONTRACTION)


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


# most preconditioned CG iterations a solve on kept factors runs before it
# factors afresh; the later exact_newton steps measured took at most 11
CG_MAX_ITERATIONS = 20


@dataclass
class KeptFactors:
    """The last factors direct_solve made, kept for the later solves of one run.

    pattern is the factored matrix's (shape, indptr, indices) and lu its
    PermutedLU; factored and cg_iterations tell how the last solve went.
    Make one per run and drop it with the run: a holder shared between
    runs would make a run's solves depend on the runs before it.
    """

    pattern: tuple = None
    lu: object = None
    factored: bool = False
    cg_iterations: int = 0


def _preconditioned_cg(M, b, lu):
    """(x, iterations) of CG on M x = b from x = 0, preconditioned by lu.solve.

    x is accepted once the recomputed residual has a normwise backward
    error of at most 8u: ||b - M x||_inf <= 8u (||M||_inf ||x||_inf +
    ||b||_inf). x is None when CG_MAX_ITERATIONS pass first or CG breaks
    down (p'Mp or r'z not positive, or not finite).
    """
    tol = 8.0 * np.finfo(float).eps
    m_norm = float(abs(M).sum(axis=1).max())
    b_norm = float(np.abs(b).max())
    x = np.zeros_like(b)
    r = b.copy()
    z = lu.solve(r)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, CG_MAX_ITERATIONS + 1):
        Mp = M @ p
        pMp = float(p @ Mp)
        if not (0.0 < pMp < math.inf and 0.0 < rz < math.inf):
            return None, k - 1
        a = rz / pMp
        x += a * p
        r -= a * Mp
        if np.abs(b - M @ x).max() <= tol * (m_norm * np.abs(x).max() + b_norm):
            return x, k
        z = lu.solve(r)
        rz, rz_old = float(r @ z), rz
        p = z + (rz / rz_old) * p
    return None, CG_MAX_ITERATIONS


def direct_solve(s, b, kept=None):
    """Ground-truth solve of M x = b: backward stable, by sparse LU factors of M.

    Without factors of M's sparsity pattern in `kept`, M is factored by
    spectral.sparse_lu (minimum-degree ordering of M' + M, computed once
    per sparsity pattern), solved, and refined by one step on the same
    factors; no n x n array is formed. With such factors, kept from an
    earlier matrix of the same pattern, x is preconditioned CG's on them,
    accepted at a normwise backward error of 8 machine epsilons; when CG
    breaks down or runs CG_MAX_ITERATIONS iterations, M is factored as
    above. Factors of another shape or pattern are never used.

    Parameters
    ----------
    s : StandardSplitting
        Positive definite SDDM system; ground a Laplacian first
        (graph_core.ground).
    b : array_like
    kept : KeptFactors, optional
        Holder of one run's factors: read, and given M's factors whenever
        this solve makes them; `factored` and `cg_iterations` record the
        solve.

    Returns
    -------
    ndarray
        x with ||M x - b||_2 <= 1e-10 ||b||_2.
    """
    b = _check_rhs(b, s.n)
    if not validate_sddm(s).positive_definite:
        raise ValueError("direct_solve needs positive definite SDDM; ground a Laplacian first")
    M = s.matrix()
    kept = KeptFactors() if kept is None else kept
    pattern = M.shape, M.indptr.tobytes(), M.indices.tobytes()
    x, kept.cg_iterations = None, 0
    if kept.lu is not None and kept.pattern == pattern:
        x, kept.cg_iterations = _preconditioned_cg(M, b, kept.lu)
    kept.factored = x is None
    if x is None:
        kept.lu = None  # free the old factors before the new ones are made
        kept.pattern, kept.lu = pattern, sparse_lu(M)
        x = kept.lu.solve(b)
        x += kept.lu.solve(b - M @ x)  # one refinement step on the same factors
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
