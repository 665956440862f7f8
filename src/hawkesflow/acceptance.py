"""Round-trip acceptance suite: simulation, estimation and solving must
close the loop on known models within pinned tolerances.

Each criterion returns a result with one measured-vs-target line per check.
``tolerance_scale`` multiplies every tolerance width (runtime caps are not
scaled); values below 1 tighten the suite.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .estimate import build_linlog_grid, estimate_conditional_law
from .events.stream import randomize_timestamps
from .simulate import (
    ExponentialKernel,
    HawkesModel,
    ZeroKernel,
    mean_intensity,
    simulate,
)
from .whsolve import (
    build_quadrature,
    solve_wiener_hopf,
    verify_negativity_propagation,
)

__all__ = ["CriterionResult", "AcceptanceSuite", "run_acceptance"]

SEED_POISSON = 101
SEED_EXP_1D = 202
SEED_DIRECTED = 303
SEED_FACTORIZED = 404
SEED_INHIBITION = 500
SEED_RANDOMIZE = 707


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    checks: list[str] = field(default_factory=list)
    runtime_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name} ({self.runtime_s:.1f}s)"


class _Check:
    """Collects measured-vs-target comparisons for one criterion."""

    def __init__(self):
        self.lines: list[str] = []
        self.ok = True

    def expect(self, label: str, value: float, low: float | None,
               high: float | None) -> None:
        ok = True
        if low is not None and value < low:
            ok = False
        if high is not None and value > high:
            ok = False
        band = f"[{low if low is not None else '-inf'}, " \
               f"{high if high is not None else 'inf'}]"
        self.lines.append(f"  {'ok ' if ok else 'BAD'} {label}: "
                          f"{value:.6g} target {band}")
        self.ok &= ok


def _fit(model: HawkesModel, horizon: float, seed: int, h_max: float = 5.0):
    """Simulate ``model`` over ``horizon`` seconds, estimate its laws on the
    suite's grid and solve them: ``(stream, grid, claw, estimate)``."""
    stream = simulate(model, horizon, seed=seed)
    grid = build_linlog_grid(h_min=1e-3, h_max=h_max, n_lin=50, n_log=300)
    claw = estimate_conditional_law(stream, grid)
    return stream, grid, claw, solve_wiener_hopf(claw, build_quadrature())


_CRITERIA: dict[int, str] = {}  # criterion number -> suite method name


def _criterion(number: int, name: str, cap: float | None):
    """Declare criterion ``number``.  The decorated method takes a ``_Check``
    and the tolerance scale and fills the check; the harness times it,
    appends the runtime check when ``cap`` (seconds) is given and returns
    the ``CriterionResult``."""
    def declare(body):
        @functools.wraps(body)
        def criterion(self) -> CriterionResult:
            t0 = time.perf_counter()
            c = _Check()
            body(self, c, self.scale)
            runtime = time.perf_counter() - t0
            if cap is not None:
                c.expect("runtime seconds", runtime, None, cap)
            return CriterionResult(number, name, c.ok, c.lines, runtime)
        _CRITERIA[number] = body.__name__
        return criterion
    return declare


class AcceptanceSuite:
    """Runs the criteria in order, sharing datasets and collecting every
    solve so the exactness and identity criteria cover all of them."""

    def __init__(self, tolerance_scale: float = 1.0):
        if tolerance_scale <= 0:
            raise ValueError("tolerance scale must be positive")
        self.scale = tolerance_scale
        self.solves = []  # (label, KernelEstimate)

    @functools.cached_property
    def _exp1d_dataset(self):
        """The 1D exponential dataset criteria 2 and 7 share:
        ``(model, stream, grid, claw, estimate)``."""
        model = HawkesModel.linear([1.0], [[ExponentialKernel(0.5, 10.0)]])
        return (model, *_fit(model, 2e5, SEED_EXP_1D))

    @_criterion(1, "Poisson null", cap=60.0)
    def criterion_1(self, c: _Check, s: float) -> None:
        """Poisson null: flat laws, near-zero norms, baseline = rate."""
        model = HawkesModel.linear(
            [1.0, 2.0], [[ZeroKernel(), ZeroKernel()],
                         [ZeroKernel(), ZeroKernel()]])
        _, _, claw, est = _fit(model, 1e5, SEED_POISSON, h_max=10.0)
        self.solves.append(("poisson_null", est))

        within = 0
        total = 0
        for i in range(2):
            for j in range(2):
                mask = claw.pair_counts[i, j] >= 50
                total += int(mask.sum())
                dev = np.abs(claw.values[i, j][mask])
                within += int(np.sum(dev <= 4.0 * s * claw.stderr[i, j][mask]))
        frac = within / total if total else 0.0
        c.expect("fraction of >=50-pair bins within 4 sigma of 0", frac,
                 1.0 - 0.01 * s, None)
        c.expect("max |norm entry|", float(np.abs(est.norms).max()),
                 None, 0.02 * s)
        rel = float(np.max(np.abs(est.baseline - est.lam) / est.lam))
        c.expect("max relative |baseline - rate|", rel, None, 0.02 * s)

    @_criterion(2, "1D exponential round trip", cap=300.0)
    def criterion_2(self, c: _Check, s: float) -> None:
        """1D exponential round trip at the stationarity relation's rate."""
        model, stream, _, _, est = self._exp1d_dataset
        self.solves.append(("exp_1d", est))
        lam_true = float(mean_intensity(model)[0])
        rate = float(stream.total_counts[0] / stream.total_time)
        c.expect("empirical rate", rate,
                 lam_true * (1 - 0.03 * s), lam_true * (1 + 0.03 * s))
        c.expect("kernel norm", float(est.norms[0, 0]),
                 0.5 - 0.05 * s, 0.5 + 0.05 * s)
        c.expect("baseline", float(est.baseline[0]),
                 1.0 - 0.1 * s, 1.0 + 0.1 * s)
        c.expect("exogeneity pct", float(est.exogeneity_pct[0]),
                 50.0 * (1 - 0.1 * s), 50.0 * (1 + 0.1 * s))

    @_criterion(3, "2D directed round trip", cap=300.0)
    def criterion_3(self, c: _Check, s: float) -> None:
        """Directed 2D model: only the 1 -> 2 kernel is recovered."""
        model = HawkesModel.linear(
            [1.0, 1.0],
            [[ZeroKernel(), ZeroKernel()],
             [ExponentialKernel(0.4, 10.0), ZeroKernel()]])
        est = _fit(model, 1e5, SEED_DIRECTED)[-1]
        self.solves.append(("directed_2d", est))
        c.expect("|n_11|", abs(float(est.norms[0, 0])), None, 0.05 * s)
        c.expect("|n_12|", abs(float(est.norms[0, 1])), None, 0.05 * s)
        c.expect("|n_22|", abs(float(est.norms[1, 1])), None, 0.05 * s)
        c.expect("n_21", float(est.norms[1, 0]),
                 0.4 - 0.06 * s, 0.4 + 0.06 * s)

    @_criterion(4, "factorized collapse", cap=300.0)
    def criterion_4(self, c: _Check, s: float) -> None:
        """Factorized-model collapse: kernel shape must not depend on the
        source bin beyond the mark factor, so the column ratio is flat."""
        model = HawkesModel.factorized(
            baseline_total=1.0, base_kernel=ExponentialKernel(0.4, 10.0),
            mark_values=[1.0, 2.0], mark_probs=[0.5, 0.5])
        est = _fit(model, 1.5e5, SEED_FACTORIZED)[-1]
        self.solves.append(("factorized", est))

        # The column ratio is compared only where both kernels are actually
        # measurable: a node qualifies when both entries exceed 3 sigma, and
        # a (target, lag-band) group enters the constancy check only when a
        # majority of its nodes qualify.  Isolated exceedances among
        # insignificant neighbours are selection flukes sitting at ~3 sigma
        # regardless of the true value, so they carry no ratio information.
        bands = [0.0, 1e-3, 1e-2, 1e-1, 0.5 + 1e-12]
        nodes = est.quad.nodes

        def ratio_of_sums(i, mask):
            a, b = est.values[i, 0][mask], est.values[i, 1][mask]
            w = 1.0 / (est.stderr[i, 0][mask] ** 2 + est.stderr[i, 1][mask] ** 2)
            return float(np.sum(w * b) / np.sum(w * a))

        qual = {}
        for i in range(2):
            a, b = est.values[i, 0], est.values[i, 1]
            sa, sb = est.stderr[i, 0], est.stderr[i, 1]
            qual[i] = (a > 3.0 * sa) & (b > 3.0 * sb) & (sa > 0) & (sb > 0)
        n_qualifying = int(sum(q.sum() for q in qual.values()))
        c.expect("qualifying nodes", float(n_qualifying), 20.0, None)

        group_masks = []
        for i in range(2):
            for lo, hi in zip(bands[:-1], bands[1:]):
                in_band = (nodes >= lo) & (nodes < hi)
                selected = qual[i] & in_band
                if selected.sum() >= max(3, 0.5 * in_band.sum()):
                    group_masks.append((i, selected))
        c.expect("measurable (target, lag-band) groups",
                 float(len(group_masks)), 2.0, None)
        if group_masks:
            pooled = {i: np.any([m for g, m in group_masks if g == i], axis=0)
                      for i in range(2) if any(g == i for g, _ in group_masks)}
            num = sum(ratio_of_sums(i, m) * m.sum() for i, m in pooled.items())
            global_ratio = num / sum(m.sum() for m in pooled.values())
            worst = max(abs(ratio_of_sums(i, m) / global_ratio - 1.0)
                        for i, m in group_masks)
            c.expect("max group-ratio deviation from global", worst,
                     None, 0.25 * s)

    @_criterion(5, "inhibition propagation suite", cap=300.0)
    def criterion_5(self, c: _Check, s: float) -> None:
        """Inhibition propagation on 20 randomized positive-part models."""
        rng = np.random.Generator(np.random.Philox(SEED_INHIBITION))
        grid = build_linlog_grid(h_min=1e-3, h_max=5.0, n_lin=50, n_log=250)
        quad = build_quadrature()
        found = 0
        hypotheses = 0
        for run in range(20):
            mu = rng.uniform(0.8, 1.2, size=2)
            b = rng.uniform(5.0, 15.0, size=4)
            a_diag = rng.uniform(0.25, 0.4, size=2)
            a_cross = rng.uniform(-0.6, -0.25, size=2)
            model = HawkesModel.linear(
                mu,
                [[ExponentialKernel(a_diag[0], b[0]),
                  ExponentialKernel(a_cross[0], b[1])],
                 [ExponentialKernel(a_cross[1], b[2]),
                  ExponentialKernel(a_diag[1], b[3])]],
                flavor="positive_part")
            stream = simulate(model, 2e4, seed=SEED_INHIBITION + run + 1)
            claw = estimate_conditional_law(stream, grid)
            report = verify_negativity_propagation(claw, quad)
            hypotheses += int(report.hypothesis_holds)
            found += int(report.negative_found)
            if report.estimate is not None:
                self.solves.append((f"inhibition_{run}", report.estimate))
        c.expect("runs where the negativity hypothesis held",
                 float(hypotheses), 20.0, None)
        c.expect("runs with a negative solved kernel value", float(found),
                 20.0, None)

    @_criterion(6, "solver exactness", cap=None)
    def criterion_6(self, c: _Check, s: float) -> None:
        """Solver exactness: discretized-system residual on every solve."""
        if self.solves:
            worst = max(est.residual for _, est in self.solves)
            c.expect("max relative residual over %d solves" % len(self.solves),
                     float(worst), None, 1e-8 * s)
        else:
            c.lines.append("  ok  vacuous: no solves collected (run criteria "
                           "1-5 first)")

    @_criterion(7, "randomization robustness", cap=300.0)
    def criterion_7(self, c: _Check, s: float) -> None:
        """Timestamp randomization barely moves the rescaled norms."""
        _, stream, grid, _, est = self._exp1d_dataset
        rand = randomize_timestamps(stream, round_to_us=10.0,
                                    jitter_width_us=50.0, seed=SEED_RANDOMIZE)
        claw_r = estimate_conditional_law(rand, grid)
        est_r = solve_wiener_hopf(claw_r, est.quad)
        self.solves.append(("exp_1d_randomized", est_r))
        rel = float(np.max(np.abs(est_r.rescaled - est.rescaled)
                           / np.abs(est.rescaled)))
        c.expect("max relative rescaled-norm change", rel, None, 0.05 * s)

    @_criterion(8, "algebraic identities", cap=None)
    def criterion_8(self, c: _Check, s: float) -> None:
        """Exact algebraic identities on every estimate produced."""
        if self.solves:
            worst = 0.0
            for label, est in self.solves:
                if np.any(est.lam <= 0) or not np.all(np.isfinite(est.rescaled)):
                    continue
                closure = est.rescaled.sum(axis=1) + est.baseline / est.lam
                worst = max(worst, float(np.max(np.abs(closure - 1.0))))
            c.expect("max |row closure - 1| over %d solves" % len(self.solves),
                     worst, None, 1e-12 * s)
        else:
            c.lines.append("  ok  closure identity vacuous: no solves "
                           "collected (run criteria 1-5 first)")
        quad = build_quadrature()
        wsum_err = abs(float(quad.weights.sum()) - quad.x_max) / quad.x_max
        c.expect("quadrature weight-sum relative error", wsum_err,
                 None, 1e-12 * s)

    def run(self, criteria: list[int] | None = None) -> list[CriterionResult]:
        numbers = sorted(criteria) if criteria else sorted(_CRITERIA)
        unknown = [n for n in numbers if n not in _CRITERIA]
        if unknown:
            raise ValueError(f"unknown criteria: {unknown}")
        return [getattr(self, _CRITERIA[n])() for n in numbers]


def run_acceptance(tolerance_scale: float = 1.0,
                   criteria: list[int] | None = None) -> list[CriterionResult]:
    results = []
    for result in AcceptanceSuite(tolerance_scale).run(criteria):
        results.append(result)
        print(result.line())
        for line in result.checks:
            print(line)
    return results
