"""Byte identity of the column-formatted CSV writers with the former
row-by-row writers kept in ``oracles``."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from hawkesflow import report
from hawkesflow.estimate import (ConditionalLawMatrix, build_linlog_grid,
                                 estimate_conditional_law, save_claw)
from hawkesflow.events import (BinningMode, BinningScheme, EventType,
                               EventTable, FlowStatistics, Side,
                               assign_components, flow_statistics)
from hawkesflow.simulate import ExponentialKernel, HawkesModel, simulate
from hawkesflow.whsolve import (KernelEstimate, build_quadrature, save_kernel_estimate,
                               solve_wiener_hopf)

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, -1.0 / 3.0]
QUOTED_LABELS = ["a,b", 'q"x']


def _same_files(tmp_path, write, oracle_write):
    """Run a writer and its oracle into fresh directories; both must return
    the same file names and write the same bytes."""
    new, old = tmp_path / "new", tmp_path / "old"
    new_files, old_files = write(new), oracle_write(old)
    assert [p.name for p in new_files] == [p.name for p in old_files]
    for p, q in zip(new_files, old_files):
        assert p.read_bytes() == q.read_bytes(), p.name
    return new_files


def _all_pairs(d):
    return [(i, j) for i in range(d) for j in range(d)]


@pytest.fixture(scope="module")
def simulated():
    model = HawkesModel.linear(
        [0.8, 0.6],
        [[ExponentialKernel(0.3, 10.0), ExponentialKernel(0.1, 5.0)],
         [ExponentialKernel(0.05, 8.0), ExponentialKernel(0.2, 12.0)]])
    stream = simulate(model, 2e3, seed=17)
    grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=10, n_log=40)
    claw = estimate_conditional_law(stream, grid)
    return claw, solve_wiener_hopf(claw, build_quadrature())


@pytest.fixture(scope="module")
def special():
    """A law and an estimate whose every array cycles through NaN, +-inf,
    -0.0, a subnormal and 1e300, with pair counts beyond 2**31."""
    d = 2
    grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=3, n_log=5)
    b = grid.n_bins

    def cells(*shape):
        n = int(np.prod(shape))
        return np.resize(np.array(SPECIAL), n).reshape(shape)

    pairs = (2 ** 31 + np.arange(d * d * b, dtype=np.int64) * 2 ** 33).reshape(d, d, b)
    claw = ConditionalLawMatrix(grid, cells(d, d, b), np.roll(cells(d, d, b), 3),
                                pairs, np.full((d, b), 2 ** 40, dtype=np.int64),
                                np.array([np.inf, 5e-324]), 1e300)
    quad = build_quadrature()
    q = quad.n_nodes
    est = KernelEstimate(quad, cells(d, d, q), np.roll(cells(d, d, q), 3),
                         np.array([np.nan, -0.0]), cells(d, d), cells(d, d).T.copy(),
                         np.array([1e300, -np.inf]), np.array([5e-324, np.nan]),
                         residual=np.nan, condition_estimate=np.inf)
    return claw, est


def special_flow_stats():
    edges = np.array([0.0, 5e-324, 0.1, 1e300, np.inf])
    return FlowStatistics(
        mean_intensity=np.array([np.nan, -0.0, 1.0 / 3.0]),
        event_counts=np.array([2 ** 31, 7, 2 ** 40], dtype=np.int64),
        duration_edges=edges,
        duration_counts=np.arange(12, dtype=np.int64).reshape(3, 4) * 2 ** 32,
        pooled_duration_counts=np.array([0, 1, 2 ** 35, 3], dtype=np.int64),
        volume_histogram={-7: 2, 1: 2 ** 33, 12: 1},
        sign_autocorr=np.array([1.0, np.nan, -0.0, 5e-324]),
        volume_autocorr=np.array([1.0, -np.inf, 1e300, 0.25]))


def simulated_flow_stats():
    events = EventTable.from_rows([(1_000_000, EventType.TRADE, Side.ASK, 1),
                                   (2_000_000, EventType.TRADE, Side.BID, 4),
                                   (2_500_000, EventType.TRADE, Side.ASK, 1),
                                   (3_000_000, EventType.TRADE, Side.ASK, 5)])
    scheme = BinningScheme(BinningMode.UNSIGNED_TRADES, (1, 3))
    stream = assign_components(events, scheme, duration=10.0)
    return flow_statistics(stream, events_by_session=[events]), scheme.labels()


@pytest.fixture(params=["simulated", "special"])
def law_and_estimate(request, simulated, special):
    return simulated if request.param == "simulated" else special


class TestByteIdentity:
    def test_save_claw(self, tmp_path, law_and_estimate):
        claw, _ = law_and_estimate
        _same_files(tmp_path, lambda out: save_claw(claw, out),
                    lambda out: oracles.save_claw(claw, out))

    @pytest.mark.parametrize("labels", [None, QUOTED_LABELS])
    def test_save_kernel_estimate(self, tmp_path, law_and_estimate, labels):
        _, est = law_and_estimate
        _same_files(tmp_path, lambda out: save_kernel_estimate(est, out, labels),
                    lambda out: oracles.save_kernel_estimate(est, out, labels))

    @pytest.mark.parametrize("labels", [None, QUOTED_LABELS])
    def test_emit_kernel_curves(self, tmp_path, law_and_estimate, labels):
        _, est = law_and_estimate
        sel = _all_pairs(est.dimension)
        _same_files(tmp_path,
                    lambda out: report.emit_kernel_curves(est, sel, out, labels),
                    lambda out: oracles.emit_kernel_curves(est, sel, out, labels))

    def test_emit_kernel_curves_without_stderr(self, tmp_path, law_and_estimate):
        # an estimate solved without standard errors has no error bars to
        # write: it is refused before anything is written
        est = replace(law_and_estimate[1], stderr=None)
        with pytest.raises(ValueError, match="compute_stderr"):
            report.emit_kernel_curves(est, [(1, 0), (0, 0)], tmp_path / "rep")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("labels", [None, QUOTED_LABELS])
    def test_emit_claw_curves(self, tmp_path, law_and_estimate, labels):
        claw, _ = law_and_estimate
        sel = _all_pairs(claw.dimension)
        _same_files(tmp_path,
                    lambda out: report.emit_claw_curves(claw, sel, out, labels),
                    lambda out: oracles.emit_claw_curves(claw, sel, out, labels))

    def test_signed_zeros_and_nan_in_one_law(self, tmp_path):
        # the law writer formats each distinct bit pattern once: 0.0 and
        # -0.0 compare and hash alike, and NaNs of either sign never do
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=3, n_log=5)
        d, b = 2, grid.n_bins
        cells = np.resize(np.array([0.0, -0.0, np.nan, -np.nan, 0.0, 1.5]), d * d * b)
        claw = ConditionalLawMatrix(grid, cells.reshape(d, d, b),
                                    -cells[::-1].reshape(d, d, b),
                                    np.zeros((d, d, b), dtype=np.int64),
                                    np.ones((d, b), dtype=np.int64),
                                    np.array([0.0, -0.0]), 10.0)
        files = _same_files(tmp_path / "all", lambda out: save_claw(claw, out),
                            lambda out: oracles.save_claw(claw, out))
        rows = [line.split(",") for line in files[0].read_text().splitlines()[1:]]
        assert {r[2] for r in rows} == {"0.0", "-0.0", "nan", "1.5"}
        assert {r[3] for r in rows} == {"0.0", "-0.0", "nan", "-1.5"}
        sel = [(1, 1), (0, 0)]
        _same_files(tmp_path / "diag",
                    lambda out: report.emit_claw_curves(claw, sel, out),
                    lambda out: oracles.emit_claw_curves(claw, sel, out))

    def test_empty_selection(self, tmp_path, law_and_estimate):
        claw, est = law_and_estimate
        assert report.emit_claw_curves(claw, [], tmp_path) == []
        assert report.emit_kernel_curves(est, [], tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("labels", [["x", "y"], QUOTED_LABELS])
    def test_write_matrix_csv(self, tmp_path, law_and_estimate, labels):
        _, est = law_and_estimate
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        report.write_matrix_csv(new, est.rescaled, labels, labels[::-1])
        oracles.write_matrix_csv(old, est.rescaled, labels, labels[::-1])
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("case", ["simulated", "special", "quoted"])
    def test_emit_flow_report(self, tmp_path, case):
        if case == "simulated":
            stats, labels = simulated_flow_stats()
        else:
            stats = special_flow_stats()
            labels = None if case == "special" else QUOTED_LABELS + ["plain"]
        _same_files(tmp_path, lambda out: report.emit_flow_report(stats, out, labels),
                    lambda out: oracles.emit_flow_report(stats, out, labels))

    def test_flow_report_without_trades(self, tmp_path):
        stats = replace(special_flow_stats(), volume_histogram=None,
                        sign_autocorr=None, volume_autocorr=None,
                        event_counts=np.zeros(3, dtype=np.int64))
        _same_files(tmp_path, lambda out: report.emit_flow_report(stats, out),
                    lambda out: oracles.emit_flow_report(stats, out))

    @given(labels=st.lists(st.text(st.characters(codec="utf-8"), max_size=4),
                           min_size=1, max_size=3))
    def test_any_labels_quoted_as_csv_does(self, tmp_path_factory, labels):
        out = tmp_path_factory.mktemp("labels")
        matrix = np.arange(len(labels) ** 2, dtype=float).reshape(len(labels), -1)
        report.write_matrix_csv(out / "new.csv", matrix, labels, labels)
        oracles.write_matrix_csv(out / "old.csv", matrix, labels, labels)
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    def test_matrix_without_columns(self, tmp_path):
        matrix = np.zeros((3, 0))
        labels = ["", "a", ""]
        report.write_matrix_csv(tmp_path / "new.csv", matrix, labels, [])
        oracles.write_matrix_csv(tmp_path / "old.csv", matrix, labels, [])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestClawCurves:
    def test_report_curve_matches_saved_law(self, tmp_path, simulated):
        claw, _ = simulated
        saved = save_claw(claw, tmp_path / "claw")
        curves = report.emit_claw_curves(claw, [(1, 0), (0, 1)], tmp_path / "rep",
                                         ["S1", "B1"])
        assert [p.name for p in curves] == ["claw_curve_B1_from_S1.csv",
                                            "claw_curve_S1_from_B1.csv"]
        by_name = {p.name: p for p in saved}
        assert curves[0].read_bytes() == by_name["claw_1_0.csv"].read_bytes()
        assert curves[1].read_bytes() == by_name["claw_0_1.csv"].read_bytes()

    def test_rows_parse_back_to_the_law(self, tmp_path, simulated):
        claw, _ = simulated
        (path,) = report.emit_claw_curves(claw, [(0, 1)], tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,value,stderr,pairs"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == claw.grid.n_bins
        assert [float(r[0]) for r in rows] == claw.grid.edges[:-1].tolist()
        assert [float(r[2]) for r in rows] == claw.values[0, 1].tolist()
        assert [int(r[4]) for r in rows] == claw.pair_counts[0, 1].tolist()

    def test_invalid_index_rejected(self, tmp_path, simulated):
        claw, _ = simulated
        with pytest.raises(IndexError, match=r"law index \(0, 2\)"):
            report.emit_claw_curves(claw, [(0, 0), (0, 2)], tmp_path / "rep")
        assert list(tmp_path.iterdir()) == []


def _emit_curves(kind, simulated, out, labels):
    claw, est = simulated
    if kind == "claw":
        return report.emit_claw_curves(claw, [(1, 0)], out, labels)
    return report.emit_kernel_curves(est, [(1, 0)], out, labels)


@pytest.mark.parametrize("kind", ["claw", "kernel"])
class TestCurveLabels:
    def test_short_label_list_rejected(self, tmp_path, simulated, kind):
        with pytest.raises(ValueError, match="2 distinct labels"):
            _emit_curves(kind, simulated, tmp_path / "rep", ["a"])
        assert list(tmp_path.iterdir()) == []

    def test_repeated_label_rejected(self, tmp_path, simulated, kind):
        # two pairs would share one file name and the later overwrite the
        # earlier
        with pytest.raises(ValueError, match="2 distinct labels"):
            _emit_curves(kind, simulated, tmp_path / "rep", ["a", "a"])
        assert list(tmp_path.iterdir()) == []
