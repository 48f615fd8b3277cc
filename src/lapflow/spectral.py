"""Condition-number estimate (Lanczos), Laplacian spectrum, chain length, SDDM validation."""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, spilu, splu

from .graph_core import whole

__all__ = [
    "ChainSpec",
    "SDDMReport",
    "ConvergenceError",
    "validate_sddm",
    "estimate_condition",
    "laplacian_spectrum",
    "chain_length",
    "check_chain_length",
    "estimated_chain",
    "sparse_lu",
    "PermutedLU",
]

# constant in d = ceil(log2(c*kappa)); eps_d = ln(e^c/(e^c - 1))
CHAIN_C = 4
EPS_D = math.log(math.exp(CHAIN_C) / (math.exp(CHAIN_C) - 1.0))
# ARPACK's relative tolerance on the Ritz residual in estimate_condition
EIGSH_TOL = 1e-6
# SuperLU supernode settings of sparse_lu's numeric factorization (see sparse_lu)
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 10
# (pattern key, q) of the last sparsity pattern sparse_lu ordered
_last_order = None


@dataclass
class ChainSpec:
    """Length of an inverse approximation chain and the condition number it was sized for.

    Attributes
    ----------
    kappa : float
        Condition number the chain was sized for, finite and at least 1.
    d : int
        Chain length (number of squarings), nonnegative. Every chain's last
        link has the budget EPS_D.
    """

    kappa: float
    d: int

    def __post_init__(self):
        _check_kappa(self.kappa)
        check_chain_length(self.d)


def _check_kappa(kappa):
    """ValueError unless kappa is finite and >= 1 (nan included)."""
    if not 1 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 1, got %r" % (kappa,))


def check_chain_length(d):
    """d, or a ChainSpec's d, as an int >= 0; ValueError if fractional (never truncated) or negative."""
    return whole(getattr(d, "d", d), "chain length", 0)


@dataclass
class SDDMReport:
    """Row-by-row report of validate_sddm. Truthiness follows positive_definite."""

    row_slack: np.ndarray
    diagonally_dominant: bool
    strict_rows: np.ndarray
    positive_definite: bool

    def __bool__(self):
        return self.positive_definite


class ConvergenceError(RuntimeError):
    """Lanczos did not converge at one end of the spectrum; carries the Ritz values reached."""

    def __init__(self, message, rayleigh):
        super().__init__(message)
        self.rayleigh = rayleigh


def validate_sddm(s):
    """Report whether a splitting represents an SDDM (positive definite) matrix.

    Parameters
    ----------
    s : StandardSplitting

    Returns
    -------
    SDDMReport
        ``diagonally_dominant`` is row dominance D >= sum_j A[i][j]; symmetry
        and nonpositive off-diagonals of M hold for every StandardSplitting.
        ``positive_definite`` adds a strictly dominant row in every
        component of the off-diagonal support (an isolated node counts as
        its own component), which is the exact criterion: block-diagonal
        systems can be positive definite without a connected support.
    """
    D, A = s.D, s.A
    scale = float(D.max())  # > 0: the constructor refuses any D <= 0

    rowsum = np.asarray(A.sum(axis=1)).ravel()
    row_slack = D - rowsum
    dominant = bool(np.all(row_slack >= -1e-9 * scale))
    strict_rows = row_slack > 1e-9 * scale

    ncomp, labels = csgraph.connected_components(A != 0, directed=False)
    pd = dominant and bool(np.bincount(labels, weights=strict_rows, minlength=ncomp).all())

    return SDDMReport(
        row_slack=row_slack,
        diagonally_dominant=dominant,
        strict_rows=strict_rows,
        positive_definite=pd,
    )


def estimate_condition(s):
    """Estimate kappa(M) by Lanczos on M and on M^-1.

    Two ARPACK calls (scipy's ``eigsh``, largest algebraic eigenvalue) from
    one fixed start vector: one on M for lambda_max, one on M^-1, applied
    through sparse_lu (whose ordering direct_solve on the same pattern then
    reuses), for 1/lambda_min. ARPACK stops when the Ritz residual is below
    EIGSH_TOL relative; the eigenvalue error is quadratic in it. Both run
    on 2^-e M, with 2^e the power of two just above max D: ARPACK measures
    its residual against max(|theta|, eps^(2/3)), so on M itself a
    lambda_max below about 4e-11 (tiny weights) would stop on an absolute
    residual. The scaling is exact, so kappa does not depend on it.

    Parameters
    ----------
    s : StandardSplitting
        Positive definite SDDM system; ground a Laplacian first
        (graph_core.ground).

    Returns
    -------
    float
        lambda_max / lambda_min, at least 1; 1.0 for a 1x1 system.

    Raises
    ------
    ValueError
        If s is not positive definite SDDM.
    ConvergenceError
        If ARPACK does not converge at either end of the spectrum; the
        exception carries the Ritz values reached in ``.rayleigh``.
    """
    if not validate_sddm(s).positive_definite:
        raise ValueError("estimate_condition needs positive definite SDDM; ground a Laplacian first")
    n = s.n
    if n == 1:
        return 1.0
    M = s.matrix() * math.ldexp(1.0, -math.frexp(float(s.D.max()))[1])
    inv = LinearOperator((n, n), matvec=sparse_lu(M).solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    rayleigh = _lanczos_tops((("lambda_max", "largest", M), ("inv_lambda_min", "smallest", inv)),
                             v0, EIGSH_TOL)
    return max(rayleigh["lambda_max"] * rayleigh["inv_lambda_min"], 1.0)


def laplacian_spectrum(L):
    """(mu2, mun): second-smallest and largest eigenvalue of a connected graph's Laplacian.

    Two ARPACK calls from one fixed mean-zero start vector, to machine
    precision: one on L for mun, one for 1/(mu2 + sigma) on (L + sigma I)^-1
    restricted to mean-zero vectors (sparse_lu, projecting before and after
    each solve). sigma = 4/n^2 lies below mu2 (Mohar: mu2 >= 4/(n diam)),
    so a small mu2 keeps its digits. Needs a sparse L on n >= 2 nodes and
    forms no n x n array. Raises ConvergenceError like estimate_condition
    (for mu2, ``.rayleigh`` holds the shifted inverse's Ritz value).
    """
    n = L.shape[0]
    sigma = 4.0 / n ** 2
    lu = sparse_lu(L + sigma * sparse.identity(n, format="csr"))

    def solve(v):
        x = lu.solve(v - v.mean())
        x -= x.mean()
        return x

    inv = LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    v0 -= v0.mean()
    rayleigh = _lanczos_tops((("mun", "largest", L), ("inv_mu2_shifted", "second-smallest", inv)),
                             v0, 0)
    return 1.0 / rayleigh["inv_mu2_shifted"] - sigma, rayleigh["mun"]


def _lanczos_tops(ops, v0, tol):
    """Largest eigenvalue of each (label, end, operator) of ops, by one eigsh call each from v0.

    Returns {label: eigenvalue}. ARPACK stops when the Ritz residual is
    below tol relative (0: machine precision). A call that does not
    converge raises ConvergenceError naming its end of the spectrum, with
    the Ritz values reached so far in ``.rayleigh``.
    """
    rayleigh = {}
    for label, end, op in ops:
        try:
            top = eigsh(op, k=1, which="LA", v0=v0, tol=tol, return_eigenvectors=False)
        except ArpackNoConvergence as err:
            rayleigh[label] = float(err.eigenvalues[0]) if len(err.eigenvalues) else math.nan
            raise ConvergenceError("Lanczos did not converge at the %s eigenvalue" % end, rayleigh) from err
        rayleigh[label] = float(top[0])
    return rayleigh


def chain_length(kappa, _ignored=None):
    """ChainSpec of length d = ceil(log2(CHAIN_C*kappa)), whose last link has the budget EPS_D.

    kappa must be finite and at least 1. The second parameter is ignored;
    it stays because perfbench/workload.py still passes a provenance
    string, which ChainSpec no longer records.
    """
    _check_kappa(kappa)
    d = max(0, math.ceil(math.log2(CHAIN_C * float(kappa))))
    return ChainSpec(kappa=float(kappa), d=d)


def estimated_chain(s):
    """Chain for s sized from its estimated condition number.

    The one chain-sizing policy of the solvers: estimate_condition padded
    by 5%, which covers its residual-bounded shortfall (near 1e-6
    relative). The returned spec's kappa is the padded estimate.
    """
    kappa = estimate_condition(s) * 1.05
    return chain_length(max(1.0, kappa))


@dataclass(frozen=True)
class PermutedLU:
    """SuperLU factors of M[q][:, q]; solve(b) returns M^-1 b, permuting b in and x out."""

    factors: object  # scipy's SuperLU
    q: np.ndarray

    def solve(self, b):
        y = self.factors.solve(np.asarray(b, dtype=float)[self.q])
        x = np.empty_like(y)
        x[self.q] = y
        return x


def sparse_lu(M):
    """Sparse LU of a square sparse matrix under the minimum-degree ordering of M' + M.

    The one exact factorization of the package (direct_solve,
    estimate_condition and laplacian_spectrum); on grounded Laplacians of
    random graphs it fills far less than splu's default COLAMD. The
    ordering depends only on M's sparsity pattern, so it is computed once
    per pattern and kept until a call brings another pattern: every
    grounded Hessian of a flow problem has the same one. The numeric
    factors are never cached here: direct_solve keeps them only in a
    caller's KeptFactors, one per exact_newton run, so such a run calls
    this once and solves its later steps by CG on those factors. Every
    call, the first on a pattern included, factors M[q][:, q] under splu's
    NATURAL order with its default partial pivoting, so the factors do not
    depend on the cache, and with the supernode settings SUPERLU_RELAX and
    SUPERLU_PANEL_SIZE. scipy's defaults (relax 10, panel_size 20) pad
    small elimination subtrees into dense supernodes; these settings
    factor the first grounded Hessian of random 2000/6000 in about a
    quarter less time and made none of the grounded grids, paths, barbells
    and Hessians swept slower. M itself is never modified. Returns a
    PermutedLU.
    """
    global _last_order
    C = sparse.csc_matrix(M, dtype=float, copy=True)
    C.sum_duplicates()  # canonical: sorted indices, no duplicates
    key = (C.shape, C.indptr.tobytes(), C.indices.tobytes())
    if _last_order is None or _last_order[0] != key:
        _last_order = key, _min_degree_order(C)
    q = _last_order[1]
    factors = splu(C[q][:, q], permc_spec="NATURAL", relax=SUPERLU_RELAX, panel_size=SUPERLU_PANEL_SIZE)
    return PermutedLU(factors, q)


def _min_degree_order(C):
    """q of a CSC C, the inverse of splu's MMD_AT_PLUS_A perm_c: column j of C[:, q] is column q[j] of C.

    splu's perm_c is fixed before any numeric work, so spilu dropping every
    off-diagonal entry yields the same perm_c at a fraction of a full
    factorization's cost.
    """
    perm_c = spilu(C, drop_tol=1e300, fill_factor=1, permc_spec="MMD_AT_PLUS_A").perm_c
    return np.argsort(perm_c)
