"""Independent numerical oracles used to freeze expected test values.

These deliberately avoid the package's estimation and solving code paths:
the conditional law of a known kernel matrix is obtained by forward
fixed-point iteration of the defining integral equation on a fine uniform
grid with FFT convolutions, and small dense solves are written out
longhand where a test needs a second opinion on the Nystrom system.  The
solver's former block-by-block assembly and its LU path through
``scipy.linalg`` serve as references for the numpy-only solve.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.signal import fftconvolve


def fixed_point_claw(phi_funcs, lam, t_max: float, dt: float,
                     tol: float = 1e-12, max_iter: int = 500):
    """Conditional laws from kernels by iterating, on t > 0,

        g[i,j](t) = phi[i,j](t) + sum_k int phi[i,k](s) g[k,j](t - s) ds

    which is the form the true second-order statistics satisfy (the true
    law of a one-directional 2D model has g[1,1] = 0, which pins the
    convolution order down).  Negative arguments of g use the stationary
    time-reversal identity.  ``phi_funcs[i][j]`` maps a lag array to kernel
    values; ``lam`` is the vector of stationary rates.  Returns (t, g) with
    g of shape (D, D, n).
    """
    d = len(lam)
    n = int(round(t_max / dt)) + 1
    t = np.arange(n) * dt
    phi = np.array([[np.asarray(phi_funcs[i][j](t), dtype=float)
                     for j in range(d)] for i in range(d)])
    g = phi.copy()
    lam = np.asarray(lam, dtype=float)
    for _ in range(max_iter):
        g_new = phi.copy()
        for i in range(d):
            for j in range(d):
                acc = np.zeros(n)
                for k in range(d):
                    # extend g^{kj} to negative lags by time reversal:
                    # g^{kj}(-u) = (lam_k / lam_j) g^{jk}(u)
                    neg = (lam[k] / lam[j]) * g[j, k][1:][::-1]
                    ext = np.concatenate([neg, g[k, j]])
                    full = fftconvolve(phi[i, k], ext) * dt
                    acc += full[n - 1:2 * n - 1]
                g_new[i, j] += acc
        delta = np.max(np.abs(g_new - g))
        g = g_new
        if delta < tol * max(1.0, np.abs(g).max()):
            break
    return t, g


def bin_average(t: np.ndarray, y: np.ndarray, left: float, right: float,
                k: int = 16) -> float:
    """Average of a densely sampled function over (left, right], by midpoint
    sampling of the linear interpolant (bins may be narrower than the
    sample spacing)."""
    xs = left + (right - left) * (np.arange(k) + 0.5) / k
    return float(np.mean(np.interp(xs, t, y, left=0.0, right=0.0)))


def claw_matrix_from_samples(grid, t: np.ndarray, g: np.ndarray, lam):
    """Package sampled laws into a ConditionalLawMatrix on ``grid``."""
    from hawkesflow.estimate import ConditionalLawMatrix

    d = len(lam)
    b = grid.n_bins
    values = np.zeros((d, d, b))
    for i in range(d):
        for j in range(d):
            for k in range(b):
                values[i, j, k] = bin_average(t, g[i, j], grid.edges[k],
                                              grid.edges[k + 1])
    big = np.full((d, d, b), 10 ** 12, dtype=np.int64)
    adm = np.full((d, b), 10 ** 12, dtype=np.int64)
    return ConditionalLawMatrix(grid, values, np.zeros((d, d, b)), big, adm,
                                np.asarray(lam, dtype=float), total_time=1.0,
                                meta={"synthetic": True})


def direct_negative_lag_counts(t_i: np.ndarray, t_j: np.ndarray,
                               duration: float, edges: np.ndarray):
    """Brute-force negative-lag pair counting: for each j-event s, count
    i-events in [s - b, s - a) per bin (a, b], over j-events with the full
    backward window inside the session.  Returns (counts, admissible)."""
    n_bins = len(edges) - 1
    counts = np.zeros(n_bins, dtype=np.int64)
    adm = np.zeros(n_bins, dtype=np.int64)
    for b in range(n_bins):
        a_edge, b_edge = edges[b], edges[b + 1]
        for s in t_j:
            if s - b_edge < 0:
                continue
            adm[b] += 1
            counts[b] += int(np.sum((t_i >= s - b_edge) & (t_i < s - a_edge)))
    return counts, adm


def session_pair_counts(t_i: np.ndarray, t_j: np.ndarray, duration: float,
                        edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts per bin and admissible j-event counts for one session.

    The estimator's former counter, kept as the reference: one sorted-array
    search over the j-events per bin edge and component pair."""
    n_bins = len(edges) - 1
    pairs = np.zeros(n_bins, dtype=np.int64)
    adm = np.searchsorted(t_j, duration - edges[1:], side="right").astype(np.int64)
    if len(t_j) == 0 or len(t_i) == 0:
        return pairs, adm
    # S_m(n): over the first n j-events, total count of i-events at or below
    # s + edge_m.  pairs[b] = S_{b+1}(adm[b]) - S_b(adm[b]); one search pass
    # per edge serves as the right side of bin b and the left side of b+1.
    counts = np.searchsorted(t_i, t_j + edges[0], side="right")
    left_sum = int(counts[: adm[0]].sum()) if adm[0] > 0 else 0
    for b in range(n_bins):
        counts = np.searchsorted(t_i, t_j + edges[b + 1], side="right")
        n_b = int(adm[b])
        right_sum = int(counts[:n_b].sum()) if n_b > 0 else 0
        pairs[b] = right_sum - left_sum
        if b + 1 < n_bins:
            n_next = int(adm[b + 1])  # n_next <= n_b: windows shrink
            left_sum = right_sum - int(counts[n_next:n_b].sum())
    return pairs, adm


def brute_force_pair_counts(t_i: np.ndarray, t_j: np.ndarray, duration: float,
                            edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """O(N_i * N_j) pair counting by the definition: pair (s in j, t in i)
    falls in bin b when s + e_b < t <= s + e_{b+1}, and counts when the
    j-event's window fits in the session, s <= duration - e_{b+1}."""
    n_bins = len(edges) - 1
    pairs = np.zeros(n_bins, dtype=np.int64)
    adm = np.zeros(n_bins, dtype=np.int64)
    for s in t_j:
        ok = s <= duration - edges[1:]
        inside = (t_i > s + edges[:-1, None]) & (t_i <= s + edges[1:, None])
        adm += ok
        pairs += ok * inside.sum(axis=1)
    return pairs, adm


def assemble_system(claw, quad) -> tuple[np.ndarray, np.ndarray]:
    """The Nystrom system as the solver formerly built it: one
    ``value_at_lag`` lookup per block, A[(j,q),(k,m)] = delta +
    w_m g[k,j](x_q - x_m) and b[(j,q), i] = g[i,j](x_q) (right limit at 0)."""
    d = claw.dimension
    q = quad.n_nodes
    nodes = quad.nodes
    lag = nodes[:, None] - nodes[None, :]
    a = np.zeros((d * q, d * q))
    eye = np.eye(q)
    for j in range(d):
        for k in range(d):
            block = quad.weights[None, :] * claw.value_at_lag(k, j, lag)
            if j == k:
                block = block + eye
            a[j * q:(j + 1) * q, k * q:(k + 1) * q] = block
    b = np.zeros((d * q, d))
    for i in range(d):
        for j in range(d):
            b[j * q:(j + 1) * q, i] = claw.value_at_lag(i, j, nodes, zero="right")
    return a, b


def lu_reference_solve(claw, quad) -> dict:
    """The solver's former LU path on the reference assembly: ``lu_factor``,
    the ``gecon`` condition estimate, ``lu_solve`` for the kernels and for
    the inverse behind the per-row standard-error propagation.  Returns
    values, norms, stderr (each (D, D, Q)) and the condition estimate."""
    d = claw.dimension
    q = quad.n_nodes
    a, b = assemble_system(claw, quad)
    anorm = np.linalg.norm(a, 1)
    lu, piv = sla.lu_factor(a)
    gecon = sla.get_lapack_funcs("gecon", (a,))
    rcond, _ = gecon(lu, anorm)
    sol = sla.lu_solve((lu, piv), b)
    values = np.empty((d, d, q))
    for i in range(d):
        values[i, :, :] = sol[:, i].reshape(d, q)
    inv_sq = sla.lu_solve((lu, piv), np.eye(d * q)) ** 2
    stderr = np.empty((d, d, q))
    for i in range(d):
        var_b = np.concatenate([
            claw.stderr_at_lag(i, j, quad.nodes) ** 2 for j in range(d)])
        stderr[i, :, :] = np.sqrt(np.maximum(inv_sq @ var_b, 0.0)).reshape(d, q)
    return {"values": values, "norms": values @ quad.weights, "stderr": stderr,
            "condition": np.inf if rcond == 0 else 1.0 / rcond}
