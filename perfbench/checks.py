"""Output checks, independent of the program's own code paths.

Each check returns a list of failure messages; an empty list is a pass.
Files are parsed here with the csv module rather than with the program's
readers, so a defect in those readers cannot hide itself.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

RESIDUAL_LIMIT = 1e-8
CLOSURE_LIMIT = 1e-12


def read_matrix_csv(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in r[1:]] for r in rows])


def brute_pair_counts(t_i: np.ndarray, t_j: np.ndarray, duration: float,
                      edges: np.ndarray) -> np.ndarray:
    """Pair counts on the bins ``(edges[b], edges[b+1]]`` by enumerating every
    (j-event s, i-event t) pair with ``s + edges[0] < t <= s + edges[-1]``.

    A pair lands in bin b when ``s + edges[b] < t <= s + edges[b+1]`` and the
    j-event's whole window fits in the session, ``s <= duration - edges[b+1]``;
    the sums are formed exactly as written so floating-point rounding matches
    the definition of the estimator, not any particular implementation.
    """
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    lo = np.searchsorted(t_i, t_j + edges[0], side="right")
    hi = np.searchsorted(t_i, t_j + edges[-1], side="right")
    n = hi - lo
    parent = np.repeat(np.arange(len(t_j)), n)
    child = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
    for start in range(0, len(parent), 4096):
        s = t_j[parent[start:start + 4096]][:, None]
        t = t_i[child[start:start + 4096]][:, None]
        inside = (s + edges[None, :-1] < t) & (t <= s + edges[None, 1:]) \
            & (s <= duration - edges[None, 1:])
        counts += inside.sum(axis=0)
    return counts


def check_pair_counts(claw_dir: Path, sessions: list[dict], pairs: list[tuple],
                      edges: np.ndarray, x_max: float) -> list[str]:
    """Estimator pair counts in the near bins (left edge below ``x_max``)
    against brute-force enumeration, for the given (i, j) component pairs."""
    near = int(np.sum(edges[:-1] < x_max))
    out = []
    for i, j in pairs:
        with open(claw_dir / f"claw_{i}_{j}.csv", encoding="utf-8", newline="") as fh:
            got = np.array([int(r[4]) for r in list(csv.reader(fh))[1:]])[:near]
        want = np.zeros(near, dtype=np.int64)
        for sess in sessions:
            t = [u.astype(float) * 1e-6 for u in sess["us"]]
            want += brute_pair_counts(t[i], t[j], sess["horizon"], edges[:near + 1])
        if not np.array_equal(got, want):
            bad = np.nonzero(got != want)[0]
            out.append(f"pair counts ({i} <- {j}) differ from brute force in "
                       f"{len(bad)} near bins, first bin {bad[0]}: "
                       f"{got[bad[0]]} != {want[bad[0]]}")
    return out


def norm_stderr(report_dir: Path, kernel_dir: Path, labels: list[str]) -> np.ndarray:
    """Standard error of each norm as the quadrature sum of the per-node
    standard errors in the report's kernel curves; summing magnitudes
    bounds the error of the sum whatever the correlation between nodes."""
    with open(kernel_dir / "kernel_0_0.csv", encoding="utf-8", newline="") as fh:
        weights = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
    d = len(labels)
    se = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            path = report_dir / f"kernel_curve_{labels[i]}_from_{labels[j]}.csv"
            with open(path, encoding="utf-8", newline="") as fh:
                stderr = np.array([float(r[2]) for r in list(csv.reader(fh))[1:]])
            se[i, j] = weights @ np.abs(stderr)
    return se


def check_norms(norms_csv: Path, truth: np.ndarray, tol: np.ndarray | float) -> list[str]:
    """Estimated norm matrix within ``tol`` (absolute, entrywise) of the
    generating model's norms truncated at the quadrature reach."""
    got = read_matrix_csv(norms_csv)
    if got.shape != truth.shape:
        return [f"norm matrix shape {got.shape}, expected {truth.shape}"]
    err = np.abs(got - truth)
    tol = np.broadcast_to(tol, err.shape)
    if not np.all(err <= tol):
        i, j = np.unravel_index(int(np.argmax(err - tol)), err.shape)
        return [f"norm ({i}, {j}) = {got[i, j]:.4f}, model {truth[i, j]:.4f}, "
                f"error {err[i, j]:.4f} > tolerance {tol[i, j]:.4f}"]
    return []


def check_identical(a: Path, b: Path) -> list[str]:
    if a.read_bytes() != b.read_bytes():
        return [f"{a} and {b} differ"]
    return []


def check_solution(kernel_dir: Path) -> list[str]:
    """Solver residual and the row closure sum_j n~_ij + mu_i / Lambda_i = 1,
    read back from the files ``estimate`` wrote."""
    with open(kernel_dir / "kernel_manifest.json", encoding="utf-8") as fh:
        residual = json.load(fh)["residual"]
    rescaled = read_matrix_csv(kernel_dir / "rescaled_norms.csv")
    base = read_matrix_csv(kernel_dir / "baseline.csv")  # baseline, lam, pct
    return closure_failures(residual, rescaled, base[:, 0], base[:, 1])


def closure_failures(residual: float, rescaled: np.ndarray, baseline: np.ndarray,
                     lam: np.ndarray) -> list[str]:
    out = []
    if not residual <= RESIDUAL_LIMIT:
        out.append(f"solver residual {residual:.3e} > {RESIDUAL_LIMIT}")
    closure = np.max(np.abs(rescaled.sum(axis=1) + baseline / lam - 1.0))
    if not closure <= CLOSURE_LIMIT:
        out.append(f"row closure error {closure:.3e} > {CLOSURE_LIMIT}")
    return out


def check_simulated(out_dir: Path, component_of, dimension: int) -> list[str]:
    """``simulate`` output re-ingests: every row parses, timestamps do not
    decrease, rows map onto the expected dimension, and the sidecar agrees."""
    with open(out_dir / "metadata.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    out = []
    if meta.get("dimension") != dimension:
        out.append(f"sidecar dimension {meta.get('dimension')} != {dimension}")
    seen = np.zeros(dimension, dtype=np.int64)
    prev = -1
    with open(out_dir / "events.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        n = 0
        for line_no, row in enumerate(reader, start=2):
            ts, etype, side, volume = int(row[0]), row[1], row[2], int(row[3])
            comp = component_of(etype, side, volume)
            if ts < prev or volume < 1 or not 0 <= comp < dimension:
                out.append(f"{out_dir}/events.csv line {line_no}: bad row {row}")
                break
            prev = ts
            seen[comp] += 1
            n += 1
    if n != meta.get("events"):
        out.append(f"{n} rows but sidecar says {meta.get('events')} events")
    if n and not seen.any():
        out.append("no row maps to a component")
    return out
