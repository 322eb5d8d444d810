"""Log pseudo-likelihood, its derivatives, and single-sample estimators.

The normalized log pseudo-likelihood of activities ``b`` given a valid
configuration is the average over vertices of the log conditional probability
of the observed color. Its gradient component r is::

    count_r / n  -  (1/n) * sum_u  exp(b_r) 1{r allowed at u}
                                   / sum_s exp(b_s) 1{s allowed at u}

and the negated Hessian is an average of multinomial covariance matrices, one
per vertex, built from the allowed-color softmax probabilities. That negated
Hessian is positive semidefinite with largest eigenvalue below 1, so the log
pseudo-likelihood is concave and damped Newton with a backtracking line search
reaches its maximum in a handful of steps whenever the fit is non-degenerate.

All three read a vertex only through its allowed set and its color, so they
are computed from the configuration's (allowed set, color) histogram
(``PLState``): one softmax per distinct allowed set, at most min(n, 2**q) of
them, weighted by its number of vertices.

For the two-color occupancy model the maximizer is available in closed form:
log of (occupied count / recolorable empty-site count).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graphs import Graph
from .model import ConstraintGraph, allowed_matrix, preset, require_valid

__all__ = [
    "PLState",
    "log_pl",
    "pl_gradient",
    "pl_hessian",
    "mpl_hardcore",
    "mpl_fit",
    "min_eigenvalue_neg_hessian",
    "symmetric_eigenvalues",
    "EstimateReport",
    "report_to_json",
    "DEGENERATE_NONE",
    "DEGENERATE_NEG",
    "DEGENERATE_POS",
    "FREEZE_BOUND",
]

DEGENERATE_NONE = ""
DEGENERATE_NEG = "-inf"
DEGENERATE_POS = "+inf"

# A coordinate drifting past this magnitude during the fit is treated as
# diverging and frozen with the matching infinity flag.
FREEZE_BOUND = 40.0

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000

# Newton line search: sufficient-increase fraction (Armijo), the predicted
# increase below which the full step is taken untested (it is then smaller
# than the rounding error of the log pseudo-likelihood, and the iterate is in
# the quadratic region), and the smallest step fraction tried.
_ARMIJO = 1e-4
_QUADRATIC_SLOPE = 1e-12
_MIN_STEP_FRACTION = 2.0**-30


@dataclass
class PLState:
    """The pseudo-likelihood's sufficient statistic of one valid configuration.

    The log pseudo-likelihood reads a configuration only through how many
    vertices have each (allowed set, observed color) pair. ``patterns`` (P, q)
    holds the distinct allowed sets, where ``patterns[p, s]`` says recoloring
    to s keeps the configuration valid; every row is nonempty and
    P <= min(n, 2**q). ``table[p, c]`` counts the vertices with allowed set
    ``patterns[p]`` and color c, and ``counts[c]`` the vertices of color c.
    """

    patterns: np.ndarray
    table: np.ndarray
    n: int
    counts: np.ndarray

    @classmethod
    def from_configuration(cls, cfg, g: Graph, h: ConstraintGraph) -> "PLState":
        colors = require_valid(cfg, g, h)
        allowed = allowed_matrix(colors, g, h)
        first, inverse = _distinct_rows(allowed)
        table = np.bincount(inverse * h.q + colors, minlength=first.size * h.q)
        return cls(
            patterns=allowed[first],
            table=table.reshape(first.size, h.q),
            n=colors.shape[0],
            counts=np.bincount(colors, minlength=h.q),
        )

    @property
    def q(self) -> int:
        return self.patterns.shape[1]

    def unconstrained(self) -> np.ndarray:
        """Per color, the number of vertices where it is allowed."""
        return self.table.sum(axis=1) @ self.patterns


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First occurrence of each distinct row of a boolean matrix, and the
    index of every row among those. Columns are read 31 at a time as integer
    bit keys, each chunk keyed together with the previous chunk's row index,
    so no key overflows int64 whatever the width."""
    inverse = np.zeros(rows.shape[0], dtype=np.int64)
    for lo in range(0, rows.shape[1], 31):
        chunk = rows[:, lo : lo + 31]
        keys = (inverse << 31) | (chunk @ (1 << np.arange(chunk.shape[1], dtype=np.int64)))
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def _full_params(b, q: int) -> np.ndarray:
    arr = np.asarray(b, dtype=np.float64).reshape(-1)
    if arr.shape != (q - 1,):
        raise ParameterError(f"parameters must have length q-1={q - 1}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("parameters must be finite")
    return np.concatenate([[0.0], arr])


def _evaluate(state: PLState, b_full: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Normalized log pseudo-likelihood, its gradient and its negated Hessian
    at ``b_full``, from one softmax over the allowed-set patterns, each
    weighted by its number of vertices."""
    scores = np.where(state.patterns, b_full, -np.inf)
    top = scores.max(axis=1, keepdims=True)
    w = np.exp(scores - top)
    z = w.sum(axis=1, keepdims=True)
    log_norm = top + np.log(z)
    value = float((state.table * (b_full - log_norm)).sum()) / state.n
    t = (w / z)[:, 1:]
    weighted = state.table.sum(axis=1)[:, None] * t
    grad = (state.counts[1:] - weighted.sum(axis=0)) / state.n
    neg_hess = (np.diag(weighted.sum(axis=0)) - t.T @ weighted) / state.n
    return value, grad, neg_hess


def log_pl(cfg, g: Graph, h: ConstraintGraph, b) -> float:
    """Normalized log pseudo-likelihood at activities b (length q-1)."""
    state = PLState.from_configuration(cfg, g, h)
    return _evaluate(state, _full_params(b, h.q))[0]


def pl_gradient(cfg, g: Graph, h: ConstraintGraph, b) -> np.ndarray:
    """Gradient of the normalized log pseudo-likelihood; each entry in [-1, 1]."""
    state = PLState.from_configuration(cfg, g, h)
    return _evaluate(state, _full_params(b, h.q))[1]


def pl_hessian(cfg, g: Graph, h: ConstraintGraph, b) -> np.ndarray:
    """(q-1, q-1) Hessian of the normalized log pseudo-likelihood.

    Equals minus the average of per-vertex multinomial covariance matrices
    diag(p_u) - p_u p_u^T over the allowed-color probabilities p_u, hence is
    symmetric negative semidefinite everywhere.
    """
    state = PLState.from_configuration(cfg, g, h)
    return -_evaluate(state, _full_params(b, h.q))[2]


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise ParameterError("matrix must be symmetric")
    return np.linalg.eigvalsh(a)


def min_eigenvalue_neg_hessian(cfg, g: Graph, h: ConstraintGraph, b) -> float:
    """Smallest eigenvalue of the negated Hessian; clamped at 0 since the
    matrix is positive semidefinite in exact arithmetic."""
    lam = symmetric_eigenvalues(-pl_hessian(cfg, g, h, b))[0]
    return max(float(lam), 0.0)


# ---------------------------------------------------------------------------
# Reports and estimators
# ---------------------------------------------------------------------------


@dataclass
class EstimateReport:
    """Fit output: estimates, convergence info, and degeneracy diagnostics.

    ``beta_hat`` may contain +/-inf where the corresponding ``degenerate``
    flag is set, because the maximizer lies at that infinity (for instance
    "-inf" when the color never occurs, "+inf" when it has no recolorable
    slack). ``converged`` is False when the fitter stopped before
    meeting its gradient tolerance. ``min_eigenvalue_neg_hessian_at_fit`` and
    ``rank_deficient`` describe the negated Hessian of the unflagged
    coordinates (None and False when every coordinate is flagged).
    ``rainbow_fractions[r-1]`` is the fraction of vertices where color r is
    allowed, the quantity controlling curvature of the fit.
    """

    beta_hat: np.ndarray
    iterations: int
    converged: bool
    final_gradient_norm: float | None
    min_eigenvalue_neg_hessian_at_fit: float | None
    degenerate: tuple[str, ...]
    rainbow_fractions: np.ndarray
    rank_deficient: bool = False

    @property
    def is_degenerate(self) -> bool:
        return any(flag != DEGENERATE_NONE for flag in self.degenerate)


def report_to_json(report: EstimateReport) -> str:
    def enc(x: float):
        if np.isfinite(x):
            return float(x)
        return DEGENERATE_POS if x > 0 else DEGENERATE_NEG

    payload = {
        "beta_hat": [enc(v) for v in report.beta_hat],
        "degenerate": list(report.degenerate),
        "iterations": report.iterations,
        "grad_norm": report.final_gradient_norm,
        "lambda_min": report.min_eigenvalue_neg_hessian_at_fit,
        "rainbow_fractions": [float(v) for v in report.rainbow_fractions],
    }
    return json.dumps(payload, sort_keys=True)


def mpl_hardcore(cfg, g: Graph) -> EstimateReport:
    """Closed-form maximum pseudo-likelihood estimate for the two-color
    occupancy model.

    With c = number of occupied vertices and u = number of empty vertices
    whose whole neighborhood is empty, the estimate is log(c / u). c = 0 gives
    a -inf flag, u = 0 a +inf flag.
    """
    h = preset("hardcore")
    state = PLState.from_configuration(cfg, g, h)
    c = int(state.counts[1])
    allowed_1 = int(state.unconstrained()[1])
    u = allowed_1 - c  # empty vertices whose neighborhoods are empty
    rainbow = np.array([allowed_1 / state.n])
    if c > 0 and u > 0:
        beta = math.log(c / u)
        _, grad, neg_hess = _evaluate(state, np.array([0.0, beta]))
        lam = max(float(neg_hess[0, 0]), 0.0)
        return EstimateReport(
            beta_hat=np.array([beta]),
            iterations=0,
            converged=True,
            final_gradient_norm=float(np.abs(grad).max()),
            min_eigenvalue_neg_hessian_at_fit=lam,
            degenerate=(DEGENERATE_NONE,),
            rainbow_fractions=rainbow,
        )
    flag = DEGENERATE_NEG if c == 0 else DEGENERATE_POS
    value = -np.inf if c == 0 else np.inf
    return EstimateReport(
        beta_hat=np.array([value]),
        iterations=0,
        converged=True,
        final_gradient_norm=None,
        min_eigenvalue_neg_hessian_at_fit=None,
        degenerate=(flag,),
        rainbow_fractions=rainbow,
    )


def _divergence_flags(state: PLState) -> list[str]:
    """Per activity, the infinity its pseudo-likelihood maximizer lies at.

    Forced vertices (one allowed color) add nothing to the log-PL. At an
    informative vertex colored c, each other allowed color s adds a term that
    rises with b_c - b_s; call s -> c an arc. The log-PL is non-decreasing
    along a direction v iff v_s <= v_c on every arc, and its supremum drives
    every arc between two strongly connected components to an infinite gap.
    So colors strictly above color 0 run to +inf and colors strictly below it
    to -inf, and a component unrelated to color 0 runs to +inf when its arcs
    all come in and to -inf when they all go out. In the limit a color at
    +inf forces every vertex where it is allowed and one at -inf leaves every
    allowed set, so the test repeats on what remains. A color that never
    occurs is flagged -inf even when no informative vertex allows it.
    """
    q = state.q
    flags = [DEGENERATE_NONE] * (q - 1)
    allowed = state.patterns.copy()
    while True:
        informative = allowed.sum(axis=1) > 1
        arcs = allowed[informative].T.astype(np.int64) @ state.table[informative]
        reach = (arcs > 0) | np.eye(q, dtype=bool)
        while True:  # transitive closure by repeated squaring
            longer = reach.astype(np.int64) @ reach.astype(np.int64) > 0
            if np.array_equal(longer, reach):
                break
            reach = longer
        strict = reach & ~reach.T  # strict[a, b]: b lies strictly above a
        has_below, has_above = strict.any(axis=0), strict.any(axis=1)
        unrelated = ~reach[0] & ~reach[:, 0]
        up = strict[0] | (unrelated & has_below & ~has_above)
        down = strict[:, 0] | (unrelated & has_above & ~has_below)
        fresh = np.flatnonzero(up | down)  # never color 0; flagged colors have no arcs
        if not fresh.size:
            break
        for s in fresh:
            if up[s]:
                flags[s - 1] = DEGENERATE_POS
                allowed[allowed[:, s]] = False
            else:
                flags[s - 1] = DEGENERATE_NEG
                allowed[:, s] = False
    for r in np.flatnonzero(state.counts[1:] == 0):
        if flags[r] == DEGENERATE_NONE:
            flags[r] = DEGENERATE_NEG
    return flags


def mpl_fit(
    cfg,
    g: Graph,
    h: ConstraintGraph,
    init=None,
    step: float = 1.0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EstimateReport:
    """Maximum pseudo-likelihood fit by damped Newton ascent.

    Each iteration solves the Newton system of the non-frozen coordinates,
    scales the direction so no coordinate moves by more than ``step``, and
    backtracks on the log pseudo-likelihood until the Armijo condition holds.
    Once the predicted increase is below rounding level (the quadratic
    region) the full step is taken untested. Iteration stops when the
    sup-norm of the gradient over non-frozen coordinates is at most ``tol``
    (``converged`` True), after ``max_iter`` steps, or when the line search
    can make no progress (``converged`` False in both cases).

    Diverging components are detected structurally before iterating, from
    which colors can replace which at informative vertices (see
    ``_divergence_flags``): for instance a color that never occurs has its
    maximizer at -inf, a color allowed only at its own unforced vertices has
    it at +inf, and when color 0 is allowed only at its own unforced vertices
    every other activity runs to -inf together. Such coordinates are flagged,
    pinned at +/-FREEZE_BOUND (numerically indistinguishable from the
    limit), and excluded from the convergence test; a coordinate that still
    wanders past the bound during iteration is frozen the same way.
    """
    state = PLState.from_configuration(cfg, g, h)
    q = h.q
    if init is None:
        b = np.zeros(q - 1)
    else:
        b = np.asarray(init, dtype=np.float64).reshape(-1).copy()
        if b.shape != (q - 1,) or not np.all(np.isfinite(b)):
            raise ParameterError("init must be a finite vector of length q-1")
    if not step > 0:
        raise ParameterError("step must be positive")
    if not tol >= 0:  # a negative tol would keep iterating at a zero gradient
        raise ParameterError("tol must be non-negative")
    flags = [DEGENERATE_NONE] * (q - 1)
    free = np.ones(q - 1, dtype=bool)

    def freeze(r: int, flag: str) -> None:
        flags[r] = flag
        b[r] = -FREEZE_BOUND if flag == DEGENERATE_NEG else FREEZE_BOUND
        free[r] = False

    for r, flag in enumerate(_divergence_flags(state)):
        if flag != DEGENERATE_NONE:
            freeze(r, flag)

    iterations = 0
    value, grad, neg_hess = _evaluate(state, np.concatenate([[0.0], b]))
    grad_norm = float(np.abs(grad[free]).max()) if free.any() else 0.0
    while grad_norm > tol and iterations < max_iter:
        g_free = grad[free]
        direction, *_ = np.linalg.lstsq(neg_hess[np.ix_(free, free)], g_free, rcond=None)
        slope = float(g_free @ direction)
        if not slope > 0:
            direction, slope = g_free, float(g_free @ g_free)
        scale = min(1.0, step / float(np.abs(direction).max()))
        direction, slope = direction * scale, slope * scale
        t = 1.0
        while True:
            cand = b.copy()
            cand[free] += t * direction
            trial = _evaluate(state, np.concatenate([[0.0], cand]))
            if slope <= _QUADRATIC_SLOPE or trial[0] >= value + _ARMIJO * t * slope:
                break
            t *= 0.5
            if t < _MIN_STEP_FRACTION:
                break
        if t < _MIN_STEP_FRACTION or np.array_equal(cand, b):
            break  # no representable ascent left
        b[:] = cand
        iterations += 1
        value, grad, neg_hess = trial
        past_bound = np.flatnonzero(free & (np.abs(b) > FREEZE_BOUND))
        for r in past_bound:
            freeze(r, DEGENERATE_NEG if b[r] < 0 else DEGENERATE_POS)
        if past_bound.size:
            value, grad, neg_hess = _evaluate(state, np.concatenate([[0.0], b]))
        grad_norm = float(np.abs(grad[free]).max()) if free.any() else 0.0

    # curvature of the free coordinates only: frozen ones sit on a flat limit
    free_block = neg_hess[np.ix_(free, free)]
    lam = max(float(np.linalg.eigvalsh(free_block)[0]), 0.0) if free.any() else None
    beta_hat = b.copy()
    for r, flag in enumerate(flags):
        if flag == DEGENERATE_NEG:
            beta_hat[r] = -np.inf
        elif flag == DEGENERATE_POS:
            beta_hat[r] = np.inf
    return EstimateReport(
        beta_hat=beta_hat,
        iterations=iterations,
        converged=grad_norm <= tol,
        final_gradient_norm=grad_norm,
        min_eigenvalue_neg_hessian_at_fit=lam,
        degenerate=tuple(flags),
        rainbow_fractions=state.unconstrained()[1:] / state.n,
        rank_deficient=lam is not None and lam <= 1e-12,
    )
