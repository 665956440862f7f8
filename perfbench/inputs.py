"""Seeded inputs for the benchmark workloads.

Event files come from the benchmark's own branching (cluster) sampler
(Hawkes & Oakes 1974), not from ``hawkesflow.simulate``, so that the
estimation inputs stay fixed while the program's simulator changes.  A
linear Hawkes process with nonnegative exponential kernels is a Poisson
cluster process: immigrants of component i arrive at rate mu_i, and each
event of component j has Poisson(alpha_ij) children of component i at
Exp(beta_ij)-distributed lags.  Generations are drawn as whole arrays.

Everything written here is a pure function of the seed: the same seed
gives the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Full-book component order for edges [1]: ask block then bid block, each
# limit/cancel/trade with volume bins {1} and (1, inf).
BOOK_TYPES = ("L", "C", "T")


@dataclass(frozen=True)
class ExpModel:
    """Linear Hawkes model: ``phi_ij(t) = alpha_ij beta_ij exp(-beta_ij t)``."""

    mu: np.ndarray      # (D,)
    alpha: np.ndarray   # (D, D); may hold negative entries only in
    beta: np.ndarray    # (D, D)   models that are never cluster-sampled

    @property
    def dimension(self) -> int:
        return len(self.mu)

    def truncated_norms(self, x_max: float) -> np.ndarray:
        """Kernel mass on [0, x_max], the part the solver can recover."""
        return self.alpha * (1.0 - np.exp(-self.beta * x_max))

    def to_json(self, flavor: str) -> dict:
        d = self.dimension
        kernels = [[{"type": "exponential", "alpha": float(self.alpha[i, j]),
                     "beta": float(self.beta[i, j])}
                    if self.alpha[i, j] != 0.0 else {"type": "zero"}
                    for j in range(d)] for i in range(d)]
        return {"dimension": d, "flavor": flavor,
                "baseline": [float(m) for m in self.mu], "kernels": kernels}


def trades2_model() -> ExpModel:
    """Sell/buy trades, mutually exciting, branching radius 0.55."""
    return ExpModel(mu=np.array([0.12, 0.12]),
                    alpha=np.array([[0.35, 0.20], [0.20, 0.35]]),
                    beta=np.array([[20.0, 8.0], [8.0, 20.0]]))


def book12_model(inhibit: bool = False) -> ExpModel:
    """Full first level of the book, edges [1]: ask L1 L2 C1 C2 T1 T2, then
    the same on the bid side.

    Every component excites itself; limits excite same-side cancels and
    trades; trades excite same-side limits and opposite-side trades.  With
    ``inhibit`` the cross-side trade kernels turn negative, which only a
    positive-part model (and hence only thinning) can express.
    """
    d = 12
    mu = np.tile([0.50, 0.35, 0.40, 0.30, 0.25, 0.20], 2)
    alpha = np.zeros((d, d))
    beta = np.full((d, d), 10.0)
    for side in (0, 6):
        lim, can, trd = side + np.arange(2), side + 2 + np.arange(2), side + 4 + np.arange(2)
        for c in range(side, side + 6):
            alpha[c, c] = 0.25
            beta[c, c] = 25.0
        for a, b in zip(lim, can):
            alpha[b, a] = 0.15
        for a, b in zip(lim, trd):
            alpha[b, a] = 0.05
        for t, li in zip(trd, lim):
            alpha[li, t] = 0.20
            beta[li, t] = 40.0
        other = trd + 6 if side == 0 else trd - 6
        for t, o in zip(trd, other):
            alpha[o, t] = -0.15 if inhibit else 0.10
            beta[o, t] = 15.0
    return ExpModel(mu, alpha, beta)


def cluster_sample(model: ExpModel, horizon: float, burn_in: float,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """Event times per component on [0, horizon] of a stationary linear
    Hawkes process, by branching.  The process starts empty at -burn_in."""
    if np.any(model.alpha < 0):
        raise ValueError("cluster sampling needs nonnegative kernels")
    d = model.dimension
    span = horizon + burn_in
    n_imm = rng.poisson(model.mu * span)
    gen_t = rng.uniform(-burn_in, horizon, n_imm.sum())
    gen_c = np.repeat(np.arange(d), n_imm)
    all_t, all_c = [gen_t], [gen_c]
    while gen_t.size:
        # kids[p, i]: children of component i spawned by parent p
        kids = rng.poisson(model.alpha[:, gen_c].T)
        parent = np.repeat(np.repeat(np.arange(gen_t.size), d), kids.ravel())
        child_c = np.repeat(np.tile(np.arange(d), gen_t.size), kids.ravel())
        lag = rng.exponential(1.0 / model.beta[child_c, gen_c[parent]])
        child_t = gen_t[parent] + lag
        keep = child_t <= horizon
        gen_t, gen_c = child_t[keep], child_c[keep]
        all_t.append(gen_t)
        all_c.append(gen_c)
    t = np.concatenate(all_t)
    c = np.concatenate(all_c)
    return [np.sort(t[(c == i) & (t >= 0.0)]) for i in range(d)]


def to_microseconds(times: list[np.ndarray], horizon: float) -> list[np.ndarray]:
    """Integer microseconds, strictly increasing within each component so
    that ingestion needs no tie-breaking; bumps past the horizon are dropped."""
    out = []
    for t in times:
        us = np.floor(t * 1e6).astype(np.int64)
        k = np.arange(len(us), dtype=np.int64)
        us = np.maximum.accumulate(us - k) + k
        # seconds as ingestion computes them must not pass the horizon
        out.append(us[us.astype(float) * 1e-6 <= horizon])
    return out


def event_rows(us: list[np.ndarray], mode: str,
               rng: np.random.Generator) -> list[str]:
    """Merge components into time-ordered event CSV lines.

    ``signed_trades`` with no edges: component 0 sells (trades hitting the
    bid), component 1 buys.  ``full_book`` with edges [1]: see BOOK_TYPES.
    Volumes are drawn inside each component's bin: a geometric tail on the
    open bins [1, inf) and (1, inf), exactly 1 on the bin {1}.
    """
    comp = np.concatenate([np.full(len(u), i) for i, u in enumerate(us)])
    ts = np.concatenate(us)
    order = np.lexsort((comp, ts))
    ts, comp = ts[order], comp[order]
    vol = rng.geometric(0.35, size=len(comp)).astype(np.int64)
    if mode == "signed_trades":
        etype = np.full(len(comp), "T")
        side = np.where(comp == 0, "b", "a")
    elif mode == "full_book":
        rem = comp % 6
        etype = np.asarray(BOOK_TYPES)[rem // 2]
        side = np.where(comp < 6, "a", "b")
        vol = np.where(rem % 2 == 0, 1, vol + 1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return [f"{t},{e},{s},{v}" for t, e, s, v in
            zip(ts.tolist(), etype.tolist(), side.tolist(), vol.tolist())]


def write_session(out_dir: Path, model: ExpModel, mode: str, edges: list[int],
                  horizon: float, seed: list[int]) -> dict:
    """Cluster-sample one session and write ``events.csv`` plus its
    ``metadata.json`` sidecar into ``out_dir``.  Returns the sidecar plus
    the integer timestamps per component (``us``)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    times = cluster_sample(model, horizon, burn_in=50.0, rng=rng)
    us = to_microseconds(times, horizon)
    lines = event_rows(us, mode, rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "events.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp_us,etype,side,volume\n")
        fh.write("\n".join(lines))
        fh.write("\n")
    meta = {"horizon": horizon, "dimension": model.dimension,
            "events": len(lines), "seed": seed, "generator": "cluster",
            "scheme": {"mode": mode, "edges": edges},
            "component_counts": [len(u) for u in us]}
    write_json(out_dir / "metadata.json", meta)
    return {**meta, "us": us}


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
