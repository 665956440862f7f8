"""Nyström solve of the Wiener-Hopf system linking conditional laws to
Hawkes kernels, plus the derived quantities: kernel norms, rescaled norms,
baselines and exogeneity ratios.

For each target component i the unknowns are that row of the kernel matrix
sampled at the quadrature nodes, solving

    g[i,j](x_q) = phi[i,j](x_q) + sum_k sum_m w_m phi[i,k](x_m) g[k,j](x_q - x_m)

for all source components j and nodes x_q, with the conditional law looked
up piecewise-constant on its histogram grid and mirrored through the
time-reversal identity at negative arguments.  This is the convolution
order the true second-order statistics satisfy (a one-directional 2D model
keeps its driver component Poisson, forcing that diagonal law to vanish;
the opposite order would contradict it).  The same dense matrix serves
every row, so it is inverted once; that inverse gives the solution, the
exact 1-norm condition number and the propagated standard errors.
Solutions may be negative: inhibition is information, not a defect, and no
positivity projection is applied.

The time-reversal identity makes the system similar to a symmetric matrix:
with s = sqrt(lam_j w_q) per row (j, q), taking lam = 1 for an event-free
component (its law is zero, so its rows and columns of A are the identity),
M = diag(s) A diag(s)^-1 is symmetric.  Every row block of A reads each
law through one (Q, Q) index of the lags x_q - x_m, made before the one
n x n buffer of the solve, n = D Q.  M is written one row block of A
(source j) at a time into that buffer, which is then overwritten with M's
inverse by recursive symmetric 2x2 block elimination, mostly matrix
products, and scaled back to A^-1.  Its Schur updates form only the lower
block triangle of each symmetric product, a few hundred rows at a time, so
no product needs a temporary of its own size.  A is never held whole: a
second pass over its row blocks gives ||A||_1 and the products with A that
the residual checks below need.  The inverse is freed before that pass,
once reduced to what the solve reads of it (A^-1 b, A^-1 1, the column sums
of |A^-1| and the propagated variances), so the solve peaks at about
1.06 n^2 doubles for D = 12 and 1.03 n^2 for D = 24.
Nothing pivots across blocks, and M can be indefinite (it is on a full
order book), so a leading block may be near singular while A is not.  The
block inverse is kept only when its solution's relative residual and that
of A (A^-1 1) = 1 are both at most 1e-10.  Otherwise, or when a leaf block
is exactly singular, the same steps run once more with a single leaf of n
rows: M is written again and inverted whole with LAPACK's pivoted inverse,
which holds a second n x n array beside the buffer (about 2.05 n^2 at
D = 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._jsonio import write_json
from ._tables import float_cells, text_cells, write_matrix_csv, write_table
from .errors import SolverError
from .estimate import ConditionalLawMatrix
from .grids import QuadratureGrid, build_quadrature

__all__ = [
    "QuadratureGrid",
    "build_quadrature",
    "KernelEstimate",
    "solve_wiener_hopf",
    "rescaled_norms",
    "recover_baseline",
    "exogeneity_ratios",
    "NegativityReport",
    "verify_negativity_propagation",
    "save_kernel_estimate",
]

CONDITION_LIMIT = 1e12
# Blocks of at most this many rows go to LAPACK; on 2 OpenBLAS threads 64 was
# the fastest leaf for 322 and 1932 unknowns and on par with 256 for 3864.
_BLOCK_LEAF = 64
# Symmetric Schur products of at most this many rows are formed whole, and
# larger ones subtract their off-diagonal block this many rows at a time.
_SCHUR_LEAF = 256
_BLOCK_RESIDUAL_LIMIT = 1e-10


@dataclass(frozen=True)
class KernelEstimate:
    """Kernel matrix on quadrature nodes with norms, baselines and solver
    diagnostics.  ``values[i, j, m]`` is the (i <- j) kernel at node m.

    ``condition_estimate`` is the exact 1-norm condition number
    ``||A||_1 * ||A^-1||_1`` of the discretized system, not an estimate."""

    quad: QuadratureGrid
    values: np.ndarray          # (D, D, Q)
    stderr: np.ndarray | None   # (D, D, Q)
    lam: np.ndarray             # (D,)
    norms: np.ndarray           # (D, D)
    rescaled: np.ndarray        # (D, D)
    baseline: np.ndarray        # (D,)
    exogeneity_pct: np.ndarray  # (D,)
    residual: float
    condition_estimate: float
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.lam)


def _divide_by_rate(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``x / lam`` along the first axis of ``x``, NaN in the rows whose rate
    is not positive: the quantity is undefined for an event-free component."""
    lam = np.asarray(lam, dtype=float).reshape((-1,) + (1,) * (x.ndim - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam > 0, x / lam, np.nan)


def rescaled_norms(norms: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Fraction-of-intensity norms: (lam_j / lam_i) * n_ij, NaN in row i
    when lam_i is not positive."""
    lam = np.asarray(lam, dtype=float)
    return _divide_by_rate(norms * lam[None, :], lam)


def recover_baseline(norms: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Baseline from the stationarity relation: mu = (I - N) Lambda.

    Negative entries are possible (norm truncation bias or inhibition) and
    are returned as-is; callers may inspect and flag them.
    """
    lam = np.asarray(lam, dtype=float)
    return (np.eye(len(lam)) - norms) @ lam


def exogeneity_ratios(baseline: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Exogenous fraction of each component's activity, in percent: NaN
    for a component whose rate is not positive."""
    return _divide_by_rate(100.0 * np.asarray(baseline, dtype=float), lam)


def _at_nodes(claw: ConditionalLawMatrix, nodes: np.ndarray,
              stderr: bool = False) -> np.ndarray:
    """Right-hand-side layout of the law at the nodes, right limit at node
    0: row (j, q), column i holds g[i, j](x_q), or its standard error.  It
    is F-ordered, as the residual norms sum in memory order."""
    at = np.take(claw.lag_table(stderr), claw.lag_index(nodes, zero="right"),
                 axis=2)
    return at.transpose(1, 0, 2).reshape(len(at), -1).T


def _row_blocks(claw: ConditionalLawMatrix, quad: QuadratureGrid,
                index: np.ndarray, out: np.ndarray):
    """For each source j in turn, write the row block (j, q) of the system
    matrix into ``out`` and yield ``(j, rows)``, the (Q, D Q) rows written.
    ``out`` holds all of A, or one row block that each source overwrites.
    ``index[q, m]`` is where every law is read at lag x_q - x_m, the one
    (Q, Q) lookup behind every block.

    Row blocks are indexed by (source j, node q), column blocks by the
    unknowns (source k, node m):  A[(j,q),(k,m)] = delta + w_m g[k,j](x_q - x_m),
    with the average of both one-sided first bins at lag zero.
    """
    q = quad.n_nodes
    for j, table in enumerate(claw.lag_table()):
        rows = out[j * q:(j + 1) * q] if len(out) > q else out
        block = rows.reshape(q, len(table), q)
        for k, law in enumerate(table):
            np.take(law, index, out=block[:, k])
        block *= quad.weights
        rows.reshape(-1)[j * q::rows.shape[1] + 1][:q] += 1.0
        yield j, rows


def _subtract_symmetric_product(c: np.ndarray, a: np.ndarray,
                                b: np.ndarray) -> None:
    """``c -= a @ b`` in place for a product known to be symmetric, without
    a temporary the size of ``c``: split at half the rows, only the lower
    block triangle is formed, the off-diagonal block in pieces of at most
    ``_SCHUR_LEAF`` rows, and then copied into the upper one."""
    n = len(c)
    if n <= _SCHUR_LEAF:
        c -= a @ b
        return
    h = n // 2
    _subtract_symmetric_product(c[:h, :h], a[:h], b[:, :h])
    _subtract_symmetric_product(c[h:, h:], a[h:], b[:, h:])
    for r in range(h, n, _SCHUR_LEAF):
        c[r:r + _SCHUR_LEAF, :h] -= a[r:r + _SCHUR_LEAF] @ b[:, :h]
    c[:h, h:] = c[h:, :h].T


def _block_inverse(m: np.ndarray, leaf: int = _BLOCK_LEAF) -> np.ndarray:
    """Overwrite the symmetric ``m`` with its inverse and return it, by 2x2
    block elimination split at half the rows, down to ``leaf`` rows for
    LAPACK: with t = inv(A11) A12 and S = A22 - A12^T t, the inverse is
    [[inv(A11) + t S^-1 t^T, -t S^-1], [., S^-1]].  A singular leading block
    raises ``LinAlgError`` or spoils the result: callers check it."""
    n = len(m)
    if n <= leaf:
        m[...] = np.linalg.inv(m)
        return m
    h = n // 2
    x11, a12, a21, a22 = m[:h, :h], m[:h, h:], m[h:, :h], m[h:, h:]
    _block_inverse(x11, leaf)
    # t^T waits in block 21; no product's output overlaps its inputs in memory
    t_tr = np.matmul(a12.T, x11, out=a21)
    _subtract_symmetric_product(a22, t_tr, a12)
    _block_inverse(a22, leaf)
    np.negative(np.matmul(t_tr.T, a22, out=a12), out=a12)
    _subtract_symmetric_product(x11, a12, t_tr)
    a21[...] = a12.T
    return m


def _relative_residual(ax: np.ndarray, b: np.ndarray) -> float:
    """``||ax - b|| / ||b||`` in the Frobenius norm, 0 when ``b`` is 0."""
    bnorm = np.linalg.norm(b)
    return float(np.linalg.norm(ax - b) / bnorm) if bnorm > 0 else 0.0


def _symmetrizing_scale(lam: np.ndarray, quad: QuadratureGrid) -> np.ndarray:
    """The scale s of the module docstring, one entry per row (j, q)."""
    return np.sqrt(np.repeat(np.where(lam > 0, lam, 1.0), quad.n_nodes)
                   * np.tile(quad.weights, len(lam)))


def _apply_system(claw: ConditionalLawMatrix, quad: QuadratureGrid,
                  index: np.ndarray, x: np.ndarray):
    """``(A @ x, ||A||_1)`` from one pass over the row blocks of A, one
    product per block.  The column sums of |A| are added up row after row,
    the order ``np.linalg.norm(A, 1)`` takes."""
    q = quad.n_nodes
    ax = np.empty_like(x)
    col_sums = np.zeros(len(x))
    # row 0 carries the sums so far into the reduction over each block
    work = np.empty((q + 1, len(x)))
    for j, rows in _row_blocks(claw, quad, index, work[1:]):
        ax[j * q:(j + 1) * q] = rows @ x
        np.abs(rows, out=rows)
        work[0] = col_sums
        np.add.reduce(work, axis=0, out=col_sums)
    return ax, col_sums.max()


def _invert(claw: ConditionalLawMatrix, quad: QuadratureGrid, b: np.ndarray,
            var_b: np.ndarray | None):
    """``(inv(A) @ b, inv(A)**2 @ var_b or None, relative residual of that
    solution, exact condition number)``, the condition infinite and the rest
    None when A is exactly singular.  One pass per leaf size, as the module
    docstring sets out: block elimination down to ``_BLOCK_LEAF`` rows, then
    one LAPACK inverse of all of M if that pass fails; with at most
    ``_BLOCK_LEAF`` unknowns the first pass is already that.  The law lookup
    index is made before the n x n buffer, and inv(A) is freed once reduced
    to these values, before the residual pass."""
    q = quad.n_nodes
    n = claw.dimension * q
    index = claw.lag_index(quad.nodes[:, None] - quad.nodes[None, :])
    s = _symmetrizing_scale(claw.lam, quad)
    ones = np.ones(n)
    for leaf in (_BLOCK_LEAF, n) if n > _BLOCK_LEAF else (n,):
        inv = np.empty((n, n))
        # M one row block at a time, each entry rounded as in (s_r A_rc) / s_c
        for j, rows in _row_blocks(claw, quad, index, inv):
            rows *= s[j * q:(j + 1) * q, None]
            rows /= s
        del rows  # a view of inv
        try:
            _block_inverse(inv, leaf)
        except np.linalg.LinAlgError:
            del inv
            if leaf == n:
                return None, None, None, np.inf
            continue
        inv *= s
        inv /= s[:, None]
        sol = inv @ b
        x = np.column_stack([sol, inv @ ones])
        # the column sums of |inv(A)|, then inv(A)**2 @ var_b, in place
        inv_norm = np.abs(inv, out=inv).sum(axis=0).max()
        var = None if var_b is None else np.square(inv, out=inv) @ var_b
        del inv
        ax, a_norm = _apply_system(claw, quad, index, x)
        residual = _relative_residual(ax[:, :-1], b)
        # written so that a NaN residual takes the next pass too
        if leaf == n or (
                residual <= _BLOCK_RESIDUAL_LIMIT and
                _relative_residual(ax[:, -1], ones) <= _BLOCK_RESIDUAL_LIMIT):
            return sol, var, residual, a_norm * inv_norm


def solve_wiener_hopf(claw: ConditionalLawMatrix,
                      quad: QuadratureGrid,
                      compute_stderr: bool = True) -> KernelEstimate:
    """Solve for the kernel matrix on the quadrature grid.

    Requires ``quad.x_max <= claw.grid.h_max``.  Aborts with diagnostics
    instead of returning noise when the discretized system's exact 1-norm
    condition number exceeds 1e12 (infinite for an exactly singular
    system).  The system matrix is inverted whether or not standard errors
    are asked for: ``compute_stderr=False`` skips only their propagation.
    """
    if quad.x_max > claw.grid.h_max * (1 + 1e-12):
        raise ValueError(
            f"quadrature reach {quad.x_max} exceeds conditional-law range "
            f"{claw.grid.h_max}")
    d = claw.dimension
    q = quad.n_nodes
    b = _at_nodes(claw, quad.nodes)
    var_b = _at_nodes(claw, quad.nodes, stderr=True) ** 2 if compute_stderr else None
    sol, var, residual, condition = _invert(claw, quad, b, var_b)
    # written so that a NaN condition fails the gate too
    if not condition <= CONDITION_LIMIT:
        raise SolverError(
            f"discretized system is ill-conditioned (condition {condition:.2e})",
            diagnostics={"condition_estimate": float(condition),
                         "size": d * q})

    # sol[:, i] stacks the row phi[i, k](x_m) over (k, m)
    values = sol.T.reshape(d, d, q)

    stderr = None if var is None else np.sqrt(np.maximum(var, 0.0)).T.reshape(d, d, q)

    norms = values @ quad.weights
    lam = claw.lam
    baseline = recover_baseline(norms, lam)
    return KernelEstimate(
        quad=quad, values=values, stderr=stderr, lam=lam.copy(),
        norms=norms, rescaled=rescaled_norms(norms, lam), baseline=baseline,
        exogeneity_pct=exogeneity_ratios(baseline, lam),
        residual=residual,
        condition_estimate=float(condition),
        meta={"negative_baseline": bool(np.any(baseline < 0))},
    )


@dataclass(frozen=True)
class NegativityReport:
    """Outcome of the inhibition-propagation check."""

    hypothesis_holds: bool
    negative_found: bool
    min_value: float
    location: tuple[int, int, float] | None  # (target, source, node time)
    estimate: KernelEstimate | None


def verify_negativity_propagation(claw: ConditionalLawMatrix,
                                  quad: QuadratureGrid) -> NegativityReport:
    """Check that negative conditional laws force negative kernel values.

    The hypothesis requires every column (or every row) of the law matrix to
    dip strictly below zero somewhere within the solver's reach
    ``[0, x_max]``.  When it holds, the propagation property of the
    Wiener-Hopf solution says the solved kernels attain a negative node
    value; ``negative_found`` records whether they do.
    """
    in_reach = claw.grid.edges[:-1] < quad.x_max
    neg = np.any((claw.values < 0) & (claw.has_window & in_reach), axis=2)
    hypothesis = bool(np.all(neg.any(axis=0))) or bool(np.all(neg.any(axis=1)))
    if not hypothesis:
        return NegativityReport(False, False, float("nan"), None, None)

    est = solve_wiener_hopf(claw, quad, compute_stderr=False)
    i, j, m = np.unravel_index(np.argmin(est.values), est.values.shape)
    min_value = float(est.values[i, j, m])
    return NegativityReport(True, min_value < 0.0, min_value,
                            (int(i), int(j), float(est.quad.nodes[m])), est)


def write_norm_tables(est: KernelEstimate, labels: list[str], out_dir) -> list[Path]:
    """``norms.csv`` and ``rescaled_norms.csv``, labelled on both axes."""
    paths = [out_dir / "norms.csv", out_dir / "rescaled_norms.csv"]
    for path, matrix in zip(paths, (est.norms, est.rescaled)):
        write_matrix_csv(path, matrix, labels, labels)
    return paths


def save_kernel_estimate(est: KernelEstimate, out_dir,
                         labels: list[str] | None = None) -> list[Path]:
    """Write per-pair kernel CSVs, norm matrices, baseline table and a
    JSON manifest with grid parameters and solver diagnostics."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = est.dimension
    labels = labels or [str(i) for i in range(d)]
    if len(labels) != d:
        raise ValueError(f"{len(labels)} labels for dimension {d}")
    nodes = float_cells(est.quad.nodes)
    weights = float_cells(est.quad.weights)
    written = []
    for i in range(d):
        for j in range(d):
            path = out_dir / f"kernel_{i}_{j}.csv"
            write_table(path, ["node", "weight", "phi_value"],
                        [nodes, weights, float_cells(est.values[i, j])])
            written.append(path)
    written += write_norm_tables(est, labels, out_dir)
    path = out_dir / "baseline.csv"
    write_table(path, ["component", "baseline", "mean_intensity", "exogeneity_pct"],
                [text_cells(labels), float_cells(est.baseline),
                 float_cells(est.lam), float_cells(est.exogeneity_pct)])
    written.append(path)
    manifest = {
        "dimension": d,
        "labels": labels,
        "quadrature": est.quad.to_dict(),
        "residual": est.residual,
        "condition_estimate": est.condition_estimate,
        "meta": est.meta,
    }
    mpath = out_dir / "kernel_manifest.json"
    write_json(mpath, manifest)
    written.append(mpath)
    return written
