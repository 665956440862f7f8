import json

import numpy as np
import pytest

from hawkesflow.estimate import build_linlog_grid, estimate_conditional_law
from hawkesflow.events import (
    BinningMode,
    BinningScheme,
    EventTable,
    EventType,
    Side,
    assign_components,
    flow_statistics,
)
from hawkesflow.report import (
    ReportBundle,
    emit_flow_report,
    emit_kernel_curves,
    emit_norm_tables,
    write_manifest,
)
from hawkesflow.simulate import ExponentialKernel, HawkesModel, simulate
from hawkesflow.whsolve import build_quadrature, solve_wiener_hopf


@pytest.fixture(scope="module")
def small_estimate():
    model = HawkesModel.linear(
        [0.8, 0.8],
        [[ExponentialKernel(0.3, 10.0), ExponentialKernel(0.1, 5.0)],
         [ExponentialKernel(0.05, 8.0), ExponentialKernel(0.2, 12.0)]])
    stream = simulate(model, 3e3, seed=61)
    grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=10, n_log=60)
    claw = estimate_conditional_law(stream, grid)
    return solve_wiener_hopf(claw, build_quadrature())


class TestNormTables:
    def test_labeled_matrix_layout(self, tmp_path, small_estimate):
        files = emit_norm_tables(small_estimate, ["S1", "B1"], tmp_path)
        names = {p.name for p in files}
        assert names == {"norms.csv", "rescaled_norms.csv"}
        lines = (tmp_path / "norms.csv").read_text().splitlines()
        assert lines[0] == ",S1,B1"
        assert lines[1].startswith("S1,")
        # traceability: printed numbers parse back to the exact values
        for i, line in enumerate(lines[1:]):
            parts = line.split(",")
            for j, cell in enumerate(parts[1:]):
                assert float(cell) == small_estimate.norms[i, j]

    def test_quadrants_for_signed_scheme(self, tmp_path):
        from hawkesflow.estimate import ConditionalLawMatrix

        scheme = BinningScheme(BinningMode.SIGNED_TRADES, (1,))
        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=5, n_log=30)
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        funcs = [[zero] * 4 for _ in range(4)]
        claw = ConditionalLawMatrix.from_function(grid, funcs, [1.0] * 4)
        est = solve_wiener_hopf(claw, build_quadrature())
        files = emit_norm_tables(est, scheme.labels(), tmp_path, scheme)
        names = {p.name for p in files}
        assert "norms_sell_buy.csv" in names
        assert "rescaled_norms_buy_buy.csv" in names
        assert len(names) == 2 + 8  # two full tables + 4 quadrants x 2 kinds
        lines = (tmp_path / "norms_sell_buy.csv").read_text().splitlines()
        assert lines[0] == ",B1,B2"
        assert lines[1].startswith("S1,")

    def test_label_mismatch_raises(self, tmp_path, small_estimate):
        with pytest.raises(ValueError):
            emit_norm_tables(small_estimate, ["only-one"], tmp_path)

    def test_norms_equal_rescaled_when_rates_uniform(self, tmp_path):
        from hawkesflow.estimate import ConditionalLawMatrix

        grid = build_linlog_grid(h_min=1e-2, h_max=1.0, n_lin=5, n_log=30)
        fn = lambda t: 0.5 * np.exp(-5.0 * np.maximum(t, 0.0))
        claw = ConditionalLawMatrix.from_function(grid, [[fn]], [2.0])
        est = solve_wiener_hopf(claw, build_quadrature())
        assert np.allclose(est.norms, est.rescaled)


class TestKernelCurves:
    def test_selection_files_and_roundtrip(self, tmp_path, small_estimate):
        files = emit_kernel_curves(small_estimate, [(0, 0), (1, 0)], tmp_path,
                                   labels=["a", "b"])
        assert [p.name for p in files] == [
            "kernel_curve_a_from_a.csv", "kernel_curve_b_from_a.csv"]
        rows = files[1].read_text().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        assert np.array_equal(values, small_estimate.values[1, 0])

    def test_empty_selection_is_fine(self, tmp_path, small_estimate):
        assert emit_kernel_curves(small_estimate, [], tmp_path) == []

    def test_invalid_index_rejected(self, tmp_path, small_estimate):
        with pytest.raises(IndexError, match=r"kernel index \(5, 0\)"):
            emit_kernel_curves(small_estimate, [(0, 0), (5, 0)], tmp_path / "rep")
        assert list(tmp_path.iterdir()) == []


class TestFlowReport:
    def make_stats(self):
        events = EventTable.from_rows([(1_000_000, EventType.TRADE, Side.ASK, 1),
                                       (2_000_000, EventType.TRADE, Side.BID, 1),
                                       (2_500_000, EventType.TRADE, Side.ASK, 1),
                                       (3_000_000, EventType.TRADE, Side.ASK, 5)])
        scheme = BinningScheme(BinningMode.UNSIGNED_TRADES, (1, 3))
        stream = assign_components(events, scheme, duration=10.0)
        return flow_statistics(stream, events_by_session=[events]), scheme

    def test_fractions_sum_to_hundred(self, tmp_path):
        stats, scheme = self.make_stats()
        emit_flow_report(stats, tmp_path, scheme.labels())
        lines = (tmp_path / "component_summary.csv").read_text().splitlines()
        fractions = [float(l.split(",")[2]) for l in lines[1:]]
        assert sum(fractions) == pytest.approx(100.0)

    def test_duration_histogram_mass(self, tmp_path):
        stats, scheme = self.make_stats()
        emit_flow_report(stats, tmp_path, scheme.labels())
        lines = (tmp_path / "duration_histogram.csv").read_text().splitlines()
        pooled = sum(int(l.split(",")[2]) for l in lines[1:])
        assert pooled == 3  # 4 events -> 3 pooled durations

    def test_single_size_stream_gives_single_spike(self, tmp_path):
        events = EventTable.from_rows([(i * 1_000_000, EventType.TRADE, Side.ASK, 1)
                                       for i in range(1, 6)])
        scheme = BinningScheme(BinningMode.UNSIGNED_TRADES, (1, 3))
        stream = assign_components(events, scheme, duration=10.0)
        stats = flow_statistics(stream, events_by_session=[events])
        emit_flow_report(stats, tmp_path, scheme.labels())
        lines = (tmp_path / "volume_histogram.csv").read_text().splitlines()
        assert lines[1:] == ["1,5"]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, small_estimate):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            emit_norm_tables(small_estimate, ["x", "y"], out)
            emit_kernel_curves(small_estimate, [(0, 1)], out, ["x", "y"])
        for name in ("norms.csv", "rescaled_norms.csv",
                     "kernel_curve_x_from_y.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_lists_hashes(self, tmp_path, small_estimate):
        bundle = ReportBundle(tmp_path, metadata={"run": 1})
        bundle.add(emit_norm_tables(small_estimate, ["x", "y"], tmp_path))
        manifest_path = bundle.finalize()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["metadata"] == {"run": 1}
        assert {e["file"] for e in manifest["files"]} == {
            "norms.csv", "rescaled_norms.csv"}
        for entry in manifest["files"]:
            assert len(entry["sha256"]) == 64

    def test_manifest_deterministic(self, tmp_path, small_estimate):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            files = emit_norm_tables(small_estimate, ["x", "y"], out)
            write_manifest(out, files, {"k": "v"})
        assert (a / "report_manifest.json").read_bytes() \
            == (b / "report_manifest.json").read_bytes()
