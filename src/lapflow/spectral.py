"""Condition numbers, chain length, SDDM validation, and the e^{±alpha} sandwich probe."""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .netsim import csr_apply

__all__ = [
    "ChainSpec",
    "SDDMReport",
    "ConvergenceError",
    "OrderCheckResult",
    "validate_sddm",
    "condition_bound",
    "estimate_condition",
    "chain_length",
    "check_chain_length",
    "estimated_chain",
    "sparse_lu",
    "approx_order_check",
]

# constant in d = ceil(log2(c*kappa)); eps_d = ln(e^c/(e^c - 1))
CHAIN_C = 4
EPS_D = math.log(math.exp(CHAIN_C) / (math.exp(CHAIN_C) - 1.0))


@dataclass
class ChainSpec:
    """Length and budget of an inverse approximation chain.

    Attributes
    ----------
    kappa : float
        Condition number the chain was sized for.
    kappa_source : str
        Either ``"analytic_bound"`` or ``"estimated"``.
    d : int
        Chain length (number of squarings), nonnegative.
    eps_d : float
        Approximation budget of the last chain link; below (1/3) ln 2 when
        produced by chain_length.
    """

    kappa: float
    kappa_source: str
    d: int
    eps_d: float

    def __post_init__(self):
        _check_kappa(self.kappa)
        if self.kappa_source not in ("analytic_bound", "estimated"):
            raise ValueError("unknown kappa_source %r" % self.kappa_source)
        check_chain_length(self.d)


def _check_kappa(kappa):
    """ValueError unless kappa is finite and >= 1 (nan included)."""
    if not 1 <= kappa < math.inf:
        raise ValueError("kappa must be finite and >= 1, got %r" % (kappa,))


def check_chain_length(d):
    """d, or a ChainSpec's d, as an int >= 0; ValueError if fractional (never truncated) or negative."""
    d = getattr(d, "d", d)
    if not float(d).is_integer() or d < 0:
        raise ValueError("chain length must be a nonnegative integer, got %r" % (d,))
    return int(d)


@dataclass
class SDDMReport:
    """Row-by-row report of validate_sddm. Truthiness follows is_sddm."""

    symmetric: bool
    offdiag_nonpositive: bool
    row_slack: np.ndarray
    diagonally_dominant: bool
    strict_rows: np.ndarray
    support_connected: bool
    is_sdd: bool
    is_sddm: bool
    positive_definite: bool

    def __bool__(self):
        return self.is_sddm


class ConvergenceError(RuntimeError):
    """Eigenvalue iteration ran out of iterations; carries the last Rayleigh quotients."""

    def __init__(self, message, rayleigh):
        super().__init__(message)
        self.rayleigh = rayleigh


@dataclass
class OrderCheckResult:
    """Outcome of approx_order_check; falsy when a probe violated the sandwich."""

    ok: bool
    violation: np.ndarray = None
    side: str = None
    ratio: float = None

    def __bool__(self):
        return self.ok


def validate_sddm(s):
    """Report whether a splitting represents an SDDM (positive definite) matrix.

    Parameters
    ----------
    s : StandardSplitting

    Returns
    -------
    SDDMReport
        ``is_sdd`` requires symmetry, nonpositive off-diagonals of M and row
        dominance D >= sum_j A[i][j]. ``is_sddm`` additionally requires at
        least one strictly dominant row and a connected off-diagonal support.
        ``positive_definite`` applies the strict-row requirement per support
        component (an isolated node counts as its own component), which is
        the exact criterion; block-diagonal systems can be positive definite
        without a connected support.
    """
    D, A = s.D, s.A
    n = D.shape[0]
    scale = max(1.0, float(D.max()))
    tol = 1e-12 * scale

    # constructor enforces these; recompute so the report stands alone
    symmetric = abs(A - A.T).max() <= tol if A.nnz else True
    offdiag_nonpos = (A.nnz == 0) or (A.data.min() >= -tol)

    rowsum = np.asarray(A.sum(axis=1)).ravel()
    row_slack = D - rowsum
    dominant = bool(np.all(row_slack >= -1e-9 * scale))
    strict_rows = row_slack > 1e-9 * scale

    support = A != 0
    ncomp, labels = csgraph.connected_components(support, directed=False)
    support_connected = ncomp == 1

    is_sdd = symmetric and offdiag_nonpos and dominant
    is_sddm = is_sdd and bool(strict_rows.any()) and support_connected
    pd = is_sdd and all(strict_rows[labels == c].any() for c in range(ncomp))

    return SDDMReport(
        symmetric=symmetric,
        offdiag_nonpositive=offdiag_nonpos,
        row_slack=row_slack,
        diagonally_dominant=dominant,
        strict_rows=strict_rows,
        support_connected=support_connected,
        is_sdd=is_sdd,
        is_sddm=is_sddm,
        positive_definite=pd,
    )


def condition_bound(g, grounded):
    """Analytic condition-number bound n^3 W_max/W_min, or n^4 for grounded systems."""
    if not g.is_connected():
        raise ValueError("condition_bound needs a connected graph")
    power = 4 if grounded else 3
    return float(g.n) ** power * g.w_max / g.w_min


def estimate_condition(s, tol=1e-8, max_iters=20000, seed=0):
    """Estimate kappa(M) by power and inverse-power iteration.

    Parameters
    ----------
    s : StandardSplitting
        Positive definite SDDM system; ground a Laplacian first
        (graph_core.ground).
    tol : float
        Relative change of the Rayleigh quotient at which iteration stops.
    max_iters : int
    seed : int
        Seed for the start vectors.

    Returns
    -------
    float
        lambda_max / lambda_min.

    Raises
    ------
    ValueError
        If s is not positive definite SDDM.
    ConvergenceError
        If either iteration fails to settle; the exception carries the last
        Rayleigh quotients in ``.rayleigh``.
    """
    if not validate_sddm(s).positive_definite:
        raise ValueError("estimate_condition needs positive definite SDDM; ground a Laplacian first")
    M = s.matrix()
    n = s.n
    inv = sparse_lu(M).solve
    rng = np.random.default_rng(seed)

    def iterate(apply_op, label, state):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = None
        for _ in range(max_iters):
            w = apply_op(v)
            nrm = np.linalg.norm(w)
            if nrm == 0:
                raise ConvergenceError("iteration collapsed to zero", dict(state))
            v = w / nrm
            new_lam = float(v @ apply_op(v))
            state[label] = new_lam
            if lam is not None and abs(new_lam - lam) <= tol * max(abs(new_lam), 1e-300):
                return new_lam
            lam = new_lam
        raise ConvergenceError("no convergence for %s after %d iterations" % (label, max_iters), dict(state))

    state = {}
    # csr_apply: the bits of M @ v without scipy's per-call dispatch
    lam_max = iterate(lambda v: csr_apply(M, v), "lambda_max", state)
    mu_max = iterate(inv, "inv_lambda_min", state)
    lam_min = 1.0 / mu_max
    kappa = lam_max / lam_min
    return max(kappa, 1.0)


def chain_length(kappa, kappa_source="analytic_bound"):
    """Chain length d = ceil(log2(4*kappa)) and its budget eps_d.

    Parameters
    ----------
    kappa : float
        Condition number, finite and at least 1.
    kappa_source : str
        Recorded provenance, ``"analytic_bound"`` (default) or ``"estimated"``.

    Returns
    -------
    ChainSpec
    """
    _check_kappa(kappa)
    d = max(0, math.ceil(math.log2(CHAIN_C * float(kappa))))
    spec = ChainSpec(kappa=float(kappa), kappa_source=kappa_source, d=d, eps_d=EPS_D)
    assert spec.eps_d < math.log(2.0) / 3.0
    return spec


def estimated_chain(s):
    """Chain for s sized from its estimated condition number.

    The one chain-sizing policy of the solvers: estimate_condition at
    tol 1e-6, padded by 5%. The returned spec's kappa is the padded estimate.
    """
    kappa = estimate_condition(s, tol=1e-6) * 1.05
    return chain_length(max(1.0, kappa), "estimated")


def sparse_lu(M):
    """Sparse LU of a square sparse matrix under the minimum-degree ordering of M' + M.

    The one exact factorization of the package (direct_solve and
    estimate_condition); on grounded Laplacians of random graphs it fills
    far less than splu's default COLAMD. Returns scipy's SuperLU object.
    """
    return splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A")


def _as_apply(op):
    if callable(op):
        return op
    mat = op if sparse.issparse(op) else np.asarray(op, dtype=float)
    return lambda v: mat @ v


def approx_order_check(X_apply, Y_apply, alpha, probes=64, seed=None, n=None):
    """Sample the two-sided sandwich e^{-alpha} X <= Y <= e^{alpha} X.

    Parameters
    ----------
    X_apply, Y_apply : matrix or callable
        Symmetric operators on the same space; callables get vectors.
        Probes span the whole space, so compare positive definite SDDM
        operators (or their inverses); ground a Laplacian first.
    alpha : float
    probes : int
        Number of random quadratic-form probes.
    seed : int, optional
    n : int, optional
        Vector dimension; required when both operators are callables.

    Returns
    -------
    OrderCheckResult
        Truthy if every probe v satisfied
        e^{-alpha} v'Xv <= v'Yv <= e^{alpha} v'Xv (with 1e-9 relative slack
        so exactly tight sandwiches survive rounding). A falsy result
        carries the violating vector. Probing is a necessary-condition
        sampler, not a positive-semidefiniteness proof.
    """
    if n is None:
        for op in (X_apply, Y_apply):
            if not callable(op):
                n = op.shape[0]
                break
    if n is None:
        raise ValueError("pass n when both operators are callables")
    fx, fy = _as_apply(X_apply), _as_apply(Y_apply)
    rng = np.random.default_rng(seed)
    lo, hi = math.exp(-alpha), math.exp(alpha)
    for _ in range(probes):
        v = rng.standard_normal(n)
        qx = float(v @ fx(v))
        qy = float(v @ fy(v))
        slack = 1e-9 * max(abs(qx), abs(qy), 1e-300)
        if qy < lo * qx - slack:
            return OrderCheckResult(False, violation=v, side="lower", ratio=qy / qx if qx else np.inf)
        if qy > hi * qx + slack:
            return OrderCheckResult(False, violation=v, side="upper", ratio=qy / qx if qx else np.inf)
    return OrderCheckResult(True)
