"""Reference computations for the benchmark, built with numpy alone.

Nothing here imports hcolor. Graphs are edge arrays ``(eu, ev)`` and
constraint graphs are symmetric boolean ``(q, q)`` matrices, so every value
the benchmark checks hcolor against is computed by separate code:

- transfer-matrix values for cycles, paths and 3-wide grids: the number of
  valid states, log Z and the exact expected color counts;
- an edge-by-edge validity check;
- the hardcore closed form log(c/u);
- a Newton maximum pseudo-likelihood fit;
- degree and 2-neighborhood statistics and a neighborhood-disjointness check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# Constraint graphs and graph families
# ---------------------------------------------------------------------------


def allow_matrix(name: str, q: int | None = None) -> np.ndarray:
    """Symmetric (q, q) allowed-pair matrix of a named constraint graph."""
    if name == "hardcore":
        a = np.ones((2, 2), dtype=bool)
        a[1, 1] = False
    elif name == "widom_rowlinson":
        a = np.ones((3, 3), dtype=bool)
        a[1, 2] = a[2, 1] = False
    elif name == "multistate_hardcore":
        levels = np.arange(q + 1)
        a = levels[:, None] + levels[None, :] <= q
    elif name == "proper_coloring":
        a = ~np.eye(q, dtype=bool)
    elif name == "counterexample_h":
        a = np.zeros((4, 4), dtype=bool)
        for s, t in [(0, 1), (0, 2), (1, 2), (2, 3)]:
            a[s, t] = a[t, s] = True
    else:
        raise ValueError(f"unknown constraint graph {name!r}")
    return a


def has_universal_loop_color(allow: np.ndarray) -> bool:
    """True when some color is allowed next to every color, itself included.

    Single-site moves then connect every valid state: recolor vertices one by
    one to that color, which is always allowed, and build the target back up.
    """
    return bool(allow.all(axis=1).any())


@dataclass(frozen=True)
class Lattice:
    """A graph cut into ``slices`` rows of ``width`` vertices.

    ``kind`` is ``"path"``, ``"cycle"`` (width 1) or ``"grid3"`` (width 3, the
    hcolor grid with ``cols = 3``). Vertex ``r * width + c`` sits in row r.
    """

    kind: str
    slices: int

    @property
    def width(self) -> int:
        return 3 if self.kind == "grid3" else 1

    @property
    def n(self) -> int:
        return self.slices * self.width

    @property
    def periodic(self) -> bool:
        return self.kind == "cycle"

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges (u < v), sorted, as two arrays."""
        w, rows = self.width, self.slices
        pairs = []
        for r in range(rows):
            for c in range(w):
                u = r * w + c
                if c + 1 < w:
                    pairs.append((u, u + 1))
                if r + 1 < rows:
                    pairs.append((u, u + w))
        if self.periodic and rows >= 3:
            pairs.append((0, rows - 1))
        arr = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
        return arr[:, 0], arr[:, 1]


# ---------------------------------------------------------------------------
# Transfer matrices
# ---------------------------------------------------------------------------


def _slice_tables(allow: np.ndarray, width: int):
    """Valid row colorings (S, width) and their (S, S) row-to-row compatibility."""
    q = allow.shape[0]
    rows = np.array(list(itertools.product(range(q), repeat=width)), dtype=np.int64)
    ok = np.ones(len(rows), dtype=bool)
    for c in range(width - 1):
        ok &= allow[rows[:, c], rows[:, c + 1]]
    rows = rows[ok]
    compat = np.ones((len(rows), len(rows)), dtype=bool)
    for c in range(width):
        compat &= allow[rows[:, c][:, None], rows[:, c][None, :]]
    return rows, compat


@dataclass(frozen=True)
class ExactLaw:
    """Exact summary of a model on a lattice."""

    log_partition: float
    expected_counts: np.ndarray  # (q,)


def count_states(lat: Lattice, allow: np.ndarray) -> int:
    """Exact number of valid colorings, by integer transfer products."""
    rows, compat = _slice_tables(allow, lat.width)
    c = compat.astype(object)
    if lat.periodic:
        m = np.identity(len(rows), dtype=object)
        for _ in range(lat.slices):
            m = m.dot(c)
        return int(np.trace(m))
    v = np.ones(len(rows), dtype=object)
    for _ in range(lat.slices - 1):
        v = c.dot(v)
    return int(v.sum())


def exact_law(lat: Lattice, allow: np.ndarray, beta) -> ExactLaw:
    """log Z and E[color counts] under activities ``beta`` (length q-1)."""
    q = allow.shape[0]
    b_full = np.concatenate([[0.0], np.asarray(beta, dtype=np.float64)])
    rows, compat = _slice_tables(allow, lat.width)
    counts = np.stack([(rows == r).sum(axis=1) for r in range(q)], axis=1).astype(float)
    log_w = counts @ b_full
    shift = log_w.max()
    w = np.exp(log_w - shift)  # per-row weight, scaled by exp(-shift)
    c = compat.astype(float)
    L = lat.slices
    if lat.periodic:
        m = c * w[None, :]
        power, log_scale = _scaled_power(m, L)
        diag = np.diag(power)
        z = diag.sum()
        log_z = float(np.log(z) + log_scale + L * shift)
        expected = L * (diag / z) @ counts
        return ExactLaw(log_z, expected)
    fwd = np.empty((L, len(rows)))
    log_z = 0.0
    f = w.copy()
    for k in range(L):
        if k:
            f = (f @ c) * w
        s = f.sum()
        log_z += np.log(s)
        f = f / s
        fwd[k] = f
    back = np.ones(len(rows))
    expected = np.zeros(q)
    for k in range(L - 1, -1, -1):
        marg = fwd[k] * back
        expected += (marg / marg.sum()) @ counts
        back = c @ (w * back)
        back = back / back.sum()
    return ExactLaw(float(log_z + L * shift), expected)


def _scaled_power(m: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """(P, s) with m**k == P * exp(s), entries of P kept near 1."""
    result = np.identity(m.shape[0])
    res_log = 0.0
    base = m.copy()
    base_log = 0.0
    while k:
        if k & 1:
            result = result @ base
            res_log += base_log
            top = np.abs(result).max()
            result /= top
            res_log += np.log(top)
        k >>= 1
        if k:
            base = base @ base
            base_log *= 2
            top = np.abs(base).max()
            base /= top
            base_log += np.log(top)
    return result, res_log


def exact_kl(lat: Lattice, allow: np.ndarray, beta_a, beta_b) -> float:
    """D(P_a || P_b) = F(b) - F(a) - (b - a) . E_a[counts]."""
    a = np.asarray(beta_a, dtype=np.float64)
    b = np.asarray(beta_b, dtype=np.float64)
    law_a = exact_law(lat, allow, a)
    law_b = exact_law(lat, allow, b)
    return law_b.log_partition - law_a.log_partition - float((b - a) @ law_a.expected_counts[1:])


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def edges_from_payload(payload: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, eu, ev) from a graph file's JSON object."""
    arr = np.asarray(payload["edges"], dtype=np.int64).reshape(-1, 2)
    return int(payload["n"]), arr[:, 0].copy(), arr[:, 1].copy()


def valid_rows(colors: np.ndarray, eu: np.ndarray, ev: np.ndarray, allow: np.ndarray) -> np.ndarray:
    """Per-row validity of a (R, n) or (n,) coloring array, edge by edge."""
    c = np.atleast_2d(colors)
    q = allow.shape[0]
    in_range = ((c >= 0) & (c < q)).all(axis=1)
    cc = np.clip(c, 0, q - 1)
    return in_range & allow[cc[:, eu], cc[:, ev]].all(axis=1)


def allowed_sets(colors: np.ndarray, n: int, eu: np.ndarray, ev: np.ndarray, allow: np.ndarray) -> np.ndarray:
    """(n, q) matrix: may vertex u be recolored to s with the rest fixed."""
    q = allow.shape[0]
    clash = np.zeros((n, q), dtype=np.int64)
    forbid = ~allow
    np.add.at(clash, eu, forbid[:, colors[ev]].T)
    np.add.at(clash, ev, forbid[:, colors[eu]].T)
    return clash == 0


def hardcore_closed_form(colors: np.ndarray, n: int, eu: np.ndarray, ev: np.ndarray) -> float:
    """log(c/u): c occupied vertices, u empty vertices with no occupied neighbor."""
    occupied_nbrs = np.bincount(eu, weights=colors[ev], minlength=n) + np.bincount(
        ev, weights=colors[eu], minlength=n
    )
    c = int((colors == 1).sum())
    u = int(((colors == 0) & (occupied_nbrs == 0)).sum())
    return float(np.log(c / u))


@dataclass(frozen=True)
class NewtonFit:
    beta: np.ndarray
    lambda_min: float  # smallest eigenvalue of the negated Hessian at the fit


def newton_mpl(
    colors: np.ndarray,
    n: int,
    eu: np.ndarray,
    ev: np.ndarray,
    allow: np.ndarray,
    tol: float = 1e-13,
    max_iter: int = 100,
) -> NewtonFit:
    """Damped Newton ascent on the normalized log pseudo-likelihood.

    Only for non-degenerate samples: every nonzero color occurs and can be
    added somewhere it is absent, and the maximizer is finite and unique.
    Raises ``ValueError`` otherwise or when Newton does not reach ``tol``.
    """
    q = allow.shape[0]
    allowed = allowed_sets(colors, n, eu, ev, allow)
    counts = np.bincount(colors, minlength=q).astype(float)
    slack = allowed.sum(axis=0) - counts
    if (counts[1:] == 0).any() or (slack[1:] == 0).any():
        raise ValueError("degenerate sample: some activity has no finite maximizer")

    def evaluate(b):
        scores = np.where(allowed, np.concatenate([[0.0], b])[None, :], -np.inf)
        top = scores.max(axis=1, keepdims=True)
        w = np.exp(scores - top)
        norm = w.sum(axis=1, keepdims=True)
        value = float((counts[1:] @ b - (top + np.log(norm)).sum()) / n)
        p = (w / norm)[:, 1:]
        grad = counts[1:] / n - p.mean(axis=0)
        neg_hess = (np.diag(p.sum(axis=0)) - p.T @ p) / n
        return value, grad, neg_hess

    b = np.zeros(q - 1)
    value, grad, neg_hess = evaluate(b)
    for it in range(max_iter):
        if np.abs(grad).max() <= tol:
            lam = float(np.linalg.eigvalsh(neg_hess)[0])
            if lam <= 1e-10 or np.abs(b).max() > 30:
                raise ValueError("no unique finite maximizer: the fit runs off along a flat direction")
            return NewtonFit(b, lam)
        step = np.linalg.solve(neg_hess, grad)
        t = 1.0
        while True:
            cand = b + t * step
            c_value, c_grad, c_hess = evaluate(cand)
            if c_value >= value - 1e-15 or t < 1e-8:
                break
            t *= 0.5
        b, value, grad, neg_hess = cand, c_value, c_grad, c_hess
    raise ValueError(f"Newton fit did not reach tol={tol} in {max_iter} iterations")


# ---------------------------------------------------------------------------
# Degree statistics and neighborhood-disjoint subsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeSummary:
    avg_degree: Fraction
    avg_two_neighborhood: Fraction
    max_degree: int
    isolated_count: int


def degree_summary(n: int, eu: np.ndarray, ev: np.ndarray) -> DegreeSummary:
    """Exact degree averages; the 2-neighborhood of v is every vertex at
    distance 1 or 2 from v."""
    deg = np.bincount(eu, minlength=n) + np.bincount(ev, minlength=n)
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]  # CSR: neighbors of v are dst[indptr[v]:indptr[v+1]]
    indptr = np.concatenate([[0], np.cumsum(deg)])
    # two-step pairs (v, x) for every walk v - w - x
    lens = deg[dst]
    base = np.repeat(indptr[dst], lens)
    within = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
    v2 = np.repeat(src, lens)
    far = dst[base + within]
    v_all = np.concatenate([src, v2])
    x_all = np.concatenate([dst, far])
    keys = np.unique((v_all * n + x_all)[v_all != x_all])
    two = np.bincount(keys // n, minlength=n)
    return DegreeSummary(
        avg_degree=Fraction(int(deg.sum()), n),
        avg_two_neighborhood=Fraction(int(two.sum()), n),
        max_degree=int(deg.max()) if n else 0,
        isolated_count=int((deg == 0).sum()),
    )


def disjoint_size_bound(n: int, avg_two: Fraction) -> Fraction:
    return Fraction(n) / (4 * (1 + avg_two))


def is_neighborhood_disjoint(subset, n: int, eu: np.ndarray, ev: np.ndarray) -> bool:
    """True iff the closed neighborhoods of distinct members never meet,
    i.e. every pair of members is at distance 3 or more."""
    a = np.asarray(list(subset), dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= n or len(np.unique(a)) != len(a)):
        return False
    member = np.zeros(n, dtype=np.int64)
    member[a] = 1
    hits = member + np.bincount(eu, weights=member[ev], minlength=n) + np.bincount(
        ev, weights=member[eu], minlength=n
    )
    return bool((hits <= 1).all())
