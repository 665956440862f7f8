import argparse
import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hawkesflow import cli, report
from hawkesflow.cli import RunConfig, _events_from_stream, main
from hawkesflow.errors import HawkesflowError, ParseError
from hawkesflow.estimate import build_linlog_grid, estimate_conditional_law
from hawkesflow.events import (
    BinningScheme,
    MultivariateEventStream,
    Session,
    assign_components,
    combine_streams,
    flow_statistics,
    load_binning_scheme,
    read_event_csv,
    write_event_csv,
)
from hawkesflow.events.types import MICROSECOND
from hawkesflow.simulate import ExponentialKernel, HawkesModel, ZeroKernel, save_model
from hawkesflow.whsolve import build_quadrature, save_kernel_estimate, solve_wiener_hopf
from oracles import bump_collisions


@pytest.fixture()
def model_file(tmp_path):
    model = HawkesModel.linear([1.0], [[ExponentialKernel(0.4, 10.0)]])
    path = tmp_path / "model.json"
    save_model(model, path)
    return path


def run_simulate(tmp_path, model_file, seed=5, horizon=2000.0, name="sim"):
    out = tmp_path / name
    code = main(["simulate", "--model", str(model_file),
                 "--horizon", str(horizon), "--seed", str(seed),
                 "--out", str(out)])
    assert code == 0
    return out


class TestSimulateCommand:
    def test_writes_events_and_metadata(self, tmp_path, model_file, capsys):
        out = run_simulate(tmp_path, model_file)
        assert (out / "events.csv").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed"] == 5
        assert meta["dimension"] == 1
        assert meta["model_dimension"] == 1
        assert meta["events"] > 1000
        assert "defaults" not in capsys.readouterr().err

    def test_same_seed_reproduces_files(self, tmp_path, model_file):
        a = run_simulate(tmp_path, model_file, name="a")
        b = run_simulate(tmp_path, model_file, name="b")
        assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()

    def test_different_seed_changes_files(self, tmp_path, model_file):
        a = run_simulate(tmp_path, model_file, seed=5, name="a")
        b = run_simulate(tmp_path, model_file, seed=6, name="b")
        assert (a / "events.csv").read_bytes() != (b / "events.csv").read_bytes()

    def test_missing_model_file_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--model", str(tmp_path / "nope.json"),
                     "--horizon", "10", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["nan", "inf"])
    def test_nonfinite_horizon_exits_2(self, tmp_path, model_file, capsys,
                                       horizon):
        code = main(["simulate", "--model", str(model_file),
                     "--horizon", horizon, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "horizon must be finite and positive" in capsys.readouterr().err

    def test_nan_baseline_in_model_file_exits_2(self, tmp_path, capsys):
        # json accepts the NaN literal, so a model file can carry it
        path = tmp_path / "model.json"
        path.write_text('{"dimension": 1, "flavor": "linear", "baseline": [NaN],'
                        ' "kernels": [[{"type": "zero"}]]}')
        code = main(["simulate", "--model", str(path), "--horizon", "10",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "baseline rates must be finite" in capsys.readouterr().err


    def test_infinite_beta_in_model_file_exits_2(self, tmp_path, capsys):
        # an infinite decay made every state NaN, and the run kept no event
        path = tmp_path / "model.json"
        path.write_text('{"dimension": 1, "flavor": "linear", "baseline": [1.0],'
                        ' "kernels": [[{"type": "exponential", "alpha": 0.5,'
                        ' "beta": Infinity}]]}')
        code = main(["simulate", "--model", str(path), "--horizon", "10",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "alpha and beta must be finite" in capsys.readouterr().err

    def test_cyclic_norm_matrix_simulates(self, tmp_path, capsys):
        # kernels only on 0<-1, 1<-2 and 2<-0: the norm matrix is a 3-cycle
        # with spectral radius 0.09 ** (1/3), which power iteration cannot find
        kernels = [[ZeroKernel()] * 3 for _ in range(3)]
        for i, j, alpha in ((0, 1, 0.9), (1, 2, 0.2), (2, 0, 0.5)):
            kernels[i][j] = ExponentialKernel(alpha, 10.0)
        path = tmp_path / "cyc.json"
        save_model(HawkesModel.linear([1.0, 1.0, 1.0], kernels), path)
        code = main(["simulate", "--model", str(path), "--horizon", "100",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("model,key", [
        pytest.param({"flavor": "linear", "baseline": [1.0]}, "'kernels'",
                     id="no_kernels"),
        pytest.param({"flavor": "factorized", "baseline_total": 1.0,
                      "mark_values": [1.0], "mark_probs": [1.0]}, "'base_kernel'",
                     id="no_base_kernel"),
        pytest.param({"flavor": "linear", "baseline": [1.0],
                      "kernels": [[{"type": "exponential", "beta": 10.0}]]},
                     "'alpha'", id="kernel_without_alpha"),
    ])
    def test_model_file_missing_key_exits_2(self, tmp_path, capsys, model, key):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code = main(["simulate", "--model", str(path), "--horizon", "10",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "lacks key " + key in err
        assert "unknown kernel spec" not in err

    @pytest.mark.parametrize("text,message", [
        pytest.param('{"flavor": "linear", "baseline": [1.0], "kernels": [[{"type":'
                     ' "exponential", "alpha": null, "beta": 10.0}]]}',
                     "kernels[0][0]: alpha must be a number, not null",
                     id="null_alpha"),
        pytest.param('{"flavor": "linear", "baseline": [1.0], "kernels": 5}',
                     "kernels must be a list, not 5", id="scalar_kernels"),
        pytest.param('[1, 2]', "the document must be a JSON object",
                     id="top_level_list"),
        pytest.param('{"flavor": "linear", "baseline": [1.0], "kernels": [[{"type":'
                     ' "exponential", "alpha": true, "beta": 10.0}]]}',
                     "kernels[0][0]: alpha must be a number, not true",
                     id="bool_alpha"),
        pytest.param('{"flavor": "linear", "baseline": ["1.0"], "kernels": '
                     '[[{"type": "zero"}]]}',
                     'baseline[0] must be a number, not "1.0"',
                     id="string_baseline"),
    ])
    def test_malformed_model_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "model.json"
        path.write_text(text)
        code = main(["simulate", "--model", str(path), "--horizon", "10",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model,message", [
        pytest.param({"dimension": 3, "flavor": "linear", "baseline": [1.0],
                      "kernels": [[{"type": "zero"}]]},
                     "dimension is 3, but the model has 1 components", id="linear"),
        pytest.param({"dimension": 1, "flavor": "factorized", "baseline_total": 1.0,
                      "base_kernel": {"type": "exponential", "alpha": 0.3, "beta": 8.0},
                      "mark_values": [1.0, 2.0], "mark_probs": [0.5, 0.5]},
                     "dimension is 1, but the model has 2 components",
                     id="factorized"),
        pytest.param({"dimension": "1", "flavor": "linear", "baseline": [1.0],
                      "kernels": [[{"type": "zero"}]]},
                     'dimension must be an integer, not "1"', id="string"),
    ])
    def test_model_file_dimension_mismatch_exits_2(self, tmp_path, capsys, model,
                                                   message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code = main(["simulate", "--model", str(path), "--horizon", "10",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestEventsFromStream:
    # steps of 0.3 us put up to four events on one rounded microsecond
    @given(st.lists(st.lists(st.integers(0, 3000), max_size=60, unique=True),
                    min_size=1, max_size=3))
    def test_collision_bump_matches_former_loop(self, steps):
        times = tuple(np.sort(np.array(c, dtype=float)) * 0.3e-6 for c in steps)
        stream = MultivariateEventStream(len(times), (Session("s", 1.0, times),))
        scheme = BinningScheme.canonical(len(times))
        events = _events_from_stream(stream, scheme)[0]
        stamps = events.ts_us.tolist()
        assert stamps == sorted(stamps)
        for comp, t in enumerate(times):
            expected = bump_collisions(np.round(t / MICROSECOND).astype(np.int64))
            got = events.ts_us[events.volume == comp + 1]
            assert got.tolist() == expected.tolist()


class TestBenchmarkCallSignatures:
    """perfbench's traced replicas call these functions directly; a changed
    signature fails here rather than only in a traced benchmark run."""

    @pytest.mark.parametrize("func,args,kwargs", [
        pytest.param(estimate_conditional_law, ("stream", "grid"),
                     {"weighting": "events", "workers": 1},
                     id="estimate_conditional_law"),
        pytest.param(RunConfig, (), {"threads": 1}, id="RunConfig"),
        pytest.param(_events_from_stream, ("stream", "scheme"), {},
                     id="_events_from_stream"),
        pytest.param(flow_statistics, ("stream",), {"events_by_session": []},
                     id="flow_statistics"),
        pytest.param(assign_components, ("events", "scheme", 1.0),
                     {"session_id": "session-0"}, id="assign_components"),
        pytest.param(build_linlog_grid, (),
                     {"h_min": 1e-3, "h_max": 5.0, "n_lin": 50, "n_log": 300},
                     id="build_linlog_grid"),
        pytest.param(build_quadrature, (),
                     {"x_min": 5e-4, "x_max": 0.5, "n_lin": 80, "n_log": 80},
                     id="build_quadrature"),
        pytest.param(solve_wiener_hopf, ("claw", "quad"),
                     {"compute_stderr": True}, id="solve_wiener_hopf"),
        pytest.param(save_kernel_estimate, ("est", "out_dir"), {"labels": []},
                     id="save_kernel_estimate"),
        pytest.param(report.ReportBundle, ("out_dir",), {"metadata": {}},
                     id="ReportBundle"),
        pytest.param(report.emit_norm_tables,
                     ("est", "labels", "out_dir", "scheme"), {},
                     id="emit_norm_tables"),
        pytest.param(report.emit_kernel_curves,
                     ("est", "selection", "out_dir", "labels"), {},
                     id="emit_kernel_curves"),
        pytest.param(report.emit_claw_curves,
                     ("claw", "selection", "out_dir", "labels"), {},
                     id="emit_claw_curves"),
        pytest.param(report.emit_flow_report, ("stats", "out_dir", "labels"),
                     {}, id="emit_flow_report"),
    ])
    def test_call_binds(self, func, args, kwargs):
        inspect.signature(func).bind(*args, **kwargs)

    def test_replica_call_sequence_on_two_sessions(self, tmp_path, model_file):
        sims = [run_simulate(tmp_path, model_file, seed=s, horizon=200.0,
                             name=f"s{s}") for s in (1, 2)]
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text('{"mode": "unsigned_trades", "edges": []}')
        scheme = load_binning_scheme(scheme_path)
        streams, events_all, rows = [], [], 0
        for idx, sim in enumerate(sims):
            events = read_event_csv(sim / "events.csv")
            rows += len(events)
            duration = json.loads((sim / "metadata.json").read_text())["horizon"]
            streams.append(assign_components(events, scheme, duration,
                                             session_id=f"session-{idx}"))
            events_all.append(events)
        stream = combine_streams(streams)
        assert rows == stream.total_counts.sum() > 0
        stats = flow_statistics(stream, events_by_session=events_all)
        assert sum(stats.volume_histogram.values()) == rows
        out = tmp_path / "again.csv"
        write_event_csv(cli._events_from_stream(stream, scheme)[0], out)
        assert out.read_bytes() == (sims[0] / "events.csv").read_bytes()


class TestEstimateCommand:
    def test_end_to_end_on_simulated_data(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file, horizon=5000.0)
        out = tmp_path / "est"
        code = main(["estimate", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(out),
                     "--h-max", "2.0", "--n-log", "100"])
        assert code == 0
        baseline = (out / "kernel" / "baseline.csv").read_text().splitlines()
        assert len(baseline) == 1 + 1
        assert (out / "claw" / "claw_manifest.json").exists()
        config = json.loads((out / "config.json").read_text())
        assert config["h_max"] == 2.0
        # paper defaults survive where flags were omitted
        assert config["x_max"] == 0.5
        assert config["n_lin"] == 50

    def test_dimension_mismatch_is_input_error(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file)
        bad_scheme = tmp_path / "scheme.json"
        bad_scheme.write_text('{"mode": "unsigned_trades", "edges": [1, 2]}\n')
        # volume-1 events fit scheme, but config asks for a window beyond
        # the session: input error -> exit 2
        code = main(["estimate", "--input", str(sim / "events.csv"),
                     "--scheme", str(bad_scheme), "--out", str(tmp_path / "x"),
                     "--window-start", "0", "--window-end", "99999999",
                     "--h-max", "2.0", "--n-log", "50"])
        assert code == 2

    def test_config_file_roundtrip(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file, horizon=3000.0)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"h_max": 2.0, "n_log": 80, "seed": 3}))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = main(["estimate", "--input", str(sim / "events.csv"),
                         "--dimension", "1", "--config", str(cfg),
                         "--out", str(out)])
            assert code == 0
        for rel in (("kernel", "norms.csv"), ("claw", "claw_0_0.csv")):
            assert (out1 / rel[0] / rel[1]).read_bytes() \
                == (out2 / rel[0] / rel[1]).read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"h_mx": 2.0}))
        code = main(["estimate", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize("key,value", [
        ("h_max", "5"), ("n_log", 2.5), ("threads", True)])
    def test_mistyped_config_value_rejected(self, tmp_path, model_file, capsys,
                                            key, value):
        sim = run_simulate(tmp_path, model_file)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["estimate", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert repr(key) in err and str(cfg) in err
        assert not (tmp_path / "x").exists()

    def test_config_takes_int_for_float_and_null_for_optional(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"h_max": 2, "window_start": None,
                                   "weighting": "sessions", "seed": 3}))
        config = RunConfig.load(cfg)
        assert (config.h_max, config.window_start, config.weighting,
                config.seed) == (2, None, "sessions", 3)
        cfg.write_text(json.dumps({"weighting": "rows"}))
        with pytest.raises(ParseError, match="weighting"):
            RunConfig.load(cfg)


class TestReportCommand:
    def test_emits_bundle_with_manifest(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file, horizon=3000.0)
        out = tmp_path / "rep"
        code = main(["report", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(out),
                     "--h-max", "2.0", "--n-log", "80"])
        assert code == 0
        manifest = json.loads((out / "report_manifest.json").read_text())
        names = {e["file"] for e in manifest["files"]}
        assert "norms.csv" in names
        assert "component_summary.csv" in names
        assert "duration_histogram.csv" in names

    def test_window_cuts_the_trades_it_reports(self, tmp_path, model_file):
        # sessions of unequal length and no window end: the window closes
        # at the shorter session's end, 900 s
        sims = [run_simulate(tmp_path, model_file, seed=seed, horizon=horizon,
                             name=f"sim{seed}")
                for seed, horizon in ((5, 1500.0), (6, 900.0))]
        out = tmp_path / "rep"
        code = main(["report", "--input", *(str(s / "events.csv") for s in sims),
                     "--dimension", "1", "--out", str(out),
                     "--window-start", "100.25", "--h-max", "2.0", "--n-log", "80"])
        assert code == 0

        def column_total(name):
            rows = (out / name).read_text().splitlines()[1:]
            return sum(int(row.split(",")[1]) for row in rows)

        in_window = sum(
            np.count_nonzero((t.ts_us >= 100_250_000) & (t.ts_us < 900_000_000))
            for t in (read_event_csv(s / "events.csv") for s in sims))
        assert column_total("component_summary.csv") == in_window
        assert column_total("volume_histogram.csv") == in_window


FULL_TAIL = ["--h-max", "20000", "--n-log", "1500"]


@pytest.fixture(scope="class")
def law_reach_runs(tmp_path_factory):
    """``estimate`` and ``report --curves all`` on one D = 2 stream, on the
    default law grid and on the full-tail grid, and ``estimate`` replayed
    from the full-tail run's config.json."""
    root = tmp_path_factory.mktemp("reach")
    exp = ExponentialKernel
    model = HawkesModel.linear([0.5, 0.3], [[exp(0.3, 10.0), exp(0.1, 5.0)],
                                            [exp(0.2, 5.0), exp(0.3, 20.0)]])
    save_model(model, root / "model.json")
    sim = run_simulate(root, root / "model.json", seed=8, horizon=2000.0)
    common = ["--input", str(sim / "events.csv"), "--dimension", "2"]
    runs = {}
    for grid, extra in (("default", []), ("full", FULL_TAIL)):
        runs["est", grid] = root / f"est_{grid}"
        runs["rep", grid] = root / f"rep_{grid}"
        assert main(["estimate", *common, "--out", str(runs["est", grid]), *extra]) == 0
        assert main(["report", *common, "--out", str(runs["rep", grid]),
                     "--curves", "all", *extra]) == 0
    runs["replay"] = root / "replay"
    assert main(["estimate", *common, "--out", str(runs["replay"]), "--config",
                 str(runs["est", "full"] / "config.json")]) == 0
    return runs


def law_files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir()
                  if p.name.startswith("claw_") and p.suffix == ".csv")


class TestLawReach:
    """The default law grid is the full-tail grid cut at its first edge past
    10 s: the solver reads only lags below x_max, so the kernel does not
    change, and each law file is a prefix of the full-tail one."""

    def test_kernel_and_report_tables_byte_identical(self, law_reach_runs):
        runs = law_reach_runs
        kernel = runs["est", "default"] / "kernel"
        names = sorted(p.name for p in kernel.iterdir())
        assert "norms.csv" in names
        assert sorted(p.name for p in (runs["est", "full"] / "kernel").iterdir()) == names
        for name in names:
            assert (kernel / name).read_bytes() \
                == (runs["est", "full"] / "kernel" / name).read_bytes(), name
        # every report file but the law curves, the manifest and the config
        rep, full = runs["rep", "default"], runs["rep", "full"]
        names = sorted(p.name for p in rep.iterdir())
        assert "norms.csv" in names
        assert sorted(p.name for p in full.iterdir()) == names
        for name in names:
            if name.startswith("claw_") or name in ("report_manifest.json",
                                                    "config.json"):
                continue
            assert (rep / name).read_bytes() == (full / name).read_bytes(), name

    @pytest.mark.parametrize("command,subdir", [("est", "claw"), ("rep", "")])
    def test_law_files_are_prefixes(self, law_reach_runs, command, subdir):
        cut = law_reach_runs[command, "default"] / subdir
        full = law_reach_runs[command, "full"] / subdir
        names = law_files(cut)
        assert len(names) == 4 and law_files(full) == names
        for name in names:
            short, long = (cut / name).read_bytes(), (full / name).read_bytes()
            assert long.startswith(short), name
            # a header and one row per bin
            assert (short.count(b"\n"), long.count(b"\n")) == (873, 1551), name

    def test_claw_manifest_differs_only_in_grid_sizes(self, law_reach_runs):
        cut, full = (json.loads((law_reach_runs["est", grid] / "claw"
                                 / "claw_manifest.json").read_text())
                     for grid in ("default", "full"))
        assert {k for k in cut["grid"] if cut["grid"][k] != full["grid"][k]} \
            == {"h_max", "n_log"}
        assert (cut["grid"]["n_log"], full["grid"]["n_log"]) == (822, 1500)
        # the admissible counts run over the bins, so they are cut too
        for short, long in zip(cut.pop("admissible"), full.pop("admissible"), strict=True):
            assert long[:len(short)] == short
        del cut["grid"], full["grid"]
        assert cut == full

    def test_former_config_replays_full_tail(self, law_reach_runs):
        runs = law_reach_runs
        config = json.loads((runs["est", "full"] / "config.json").read_text())
        assert (config["h_max"], config["n_log"]) == (20000.0, 1500)
        assert sorted(config) == sorted(asdict(RunConfig()))
        for name in [*law_files(runs["est", "full"] / "claw"), "claw_manifest.json"]:
            assert (runs["replay"] / "claw" / name).read_bytes() \
                == (runs["est", "full"] / "claw" / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["estimate", "report", "robustness"])
    def test_x_max_past_h_max_exits_2_before_reading(self, tmp_path, capsys,
                                                     command):
        # the input does not exist: the reach is checked before it is read
        out = tmp_path / "o"
        code = main([command, "--input", str(tmp_path / "none.csv"),
                     "--dimension", "1", "--out", str(out), "--x-max", "20"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--x-max 20.0" in err and "--h-max 10.022231672756412" in err
        assert "--h-max 20000 --n-log 1500" in err
        assert not out.exists()

    def test_x_max_past_h_max_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"x_max": 20, "h_max": 2.0}))
        out = tmp_path / "o"
        code = main(["estimate", "--input", str(tmp_path / "none.csv"),
                     "--dimension", "1", "--out", str(out), "--config", str(cfg)])
        assert code == 2
        assert "--x-max 20 reaches past the law grid's --h-max 2.0" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_flag_widens_grid_of_config(self, tmp_path, model_file):
        # the reach is checked on the final config, not on the file alone
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"x_max": 20}))
        assert RunConfig.load(cfg).x_max == 20
        out = tmp_path / "o"
        assert main(["estimate", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(out), "--config", str(cfg),
                     "--h-max", "20000"]) == 0
        config = json.loads((out / "config.json").read_text())
        assert (config["x_max"], config["h_max"]) == (20, 20000.0)


class TestRobustnessCommand:
    def test_no_perturbation_exits_2(self, tmp_path, model_file, capsys):
        sim = run_simulate(tmp_path, model_file, horizon=500.0)
        out = tmp_path / "rob"
        code = main(["robustness", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in
                   ("--randomize-round-us", "--window-start", "--window-end"))
        assert not out.exists()

    def test_zero_jitter_identity(self, tmp_path, model_file, capsys):
        sim = run_simulate(tmp_path, model_file, horizon=5000.0)
        out = tmp_path / "rob"
        code = main(["robustness", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(out),
                     "--randomize-round-us", "1", "--randomize-jitter-us", "0",
                     "--h-max", "2.0", "--n-log", "100"])
        assert code == 0
        text = (out / "rescaled_norm_reldiff_randomized.csv").read_text()
        # 1 us rounding of integer-microsecond data is the identity
        row = text.splitlines()[1].split(",")
        assert abs(float(row[1])) < 1e-9

    def test_window_comparison_emitted(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file, horizon=5000.0)
        out = tmp_path / "rob2"
        code = main(["robustness", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(out),
                     "--window-start", "500", "--window-end", "4500",
                     "--h-max", "2.0", "--n-log", "100"])
        assert code == 0
        assert (out / "rescaled_norm_reldiff_windowed.csv").exists()

    def test_full_window_gives_exact_zeros(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file, horizon=5000.0)
        out = tmp_path / "rob3"
        code = main(["robustness", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(out),
                     "--randomize-round-us", "1", "--randomize-jitter-us", "0",
                     "--window-start", "0", "--window-end", "5000",
                     "--h-max", "2.0", "--n-log", "100"])
        assert code == 0
        text = (out / "rescaled_norm_reldiff_windowed.csv").read_text()
        row = text.splitlines()[1].split(",")
        assert float(row[1]) == 0.0

    def test_saved_config_replays_every_output(self, tmp_path, model_file,
                                               capsys):
        sim = run_simulate(tmp_path, model_file, horizon=2000.0)
        capsys.readouterr()
        first, again = tmp_path / "rob", tmp_path / "again"
        common = ["robustness", "--input", str(sim / "events.csv"),
                  "--dimension", "1"]
        assert main([*common, "--out", str(first), "--seed", "4",
                     "--randomize-round-us", "10", "--randomize-jitter-us", "50",
                     "--window-start", "100", "--window-end", "1500",
                     "--h-max", "2.0", "--n-log", "50"]) == 0
        summary = capsys.readouterr().out
        assert main([*common, "--out", str(again),
                     "--config", str(first / "config.json")]) == 0
        assert capsys.readouterr().out == summary
        names = sorted(p.name for p in first.iterdir())
        assert names == ["config.json", "rescaled_norm_reldiff_randomized.csv",
                         "rescaled_norm_reldiff_windowed.csv"]
        assert sorted(p.name for p in again.iterdir()) == names
        for name in names:
            assert (again / name).read_bytes() == (first / name).read_bytes()


class TestUsageErrors:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_estimate_requires_scheme_or_dimension(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file)
        code = main(["estimate", "--input", str(sim / "events.csv"),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_dimension_zero_is_checked_as_given(self, tmp_path, model_file, capsys):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        capsys.readouterr()
        code = main(["estimate", "--input", str(sim / "events.csv"),
                     "--dimension", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: canonical scheme needs dimension >= 1" in capsys.readouterr().err


    def test_input_directory_exits_2(self, tmp_path, model_file, capsys):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        capsys.readouterr()
        code = main(["estimate", "--input", str(sim), "--dimension", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error: [Errno 21] Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_out_below_a_file_exits_2(self, tmp_path, model_file, capsys):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        capsys.readouterr()
        code = main(["estimate", "--input", str(sim / "events.csv"), "--dimension", "1",
                     "--out", str(sim / "events.csv" / "est"),
                     "--h-max", "2.0", "--n-log", "50"])
        assert code == 2
        assert "error: [Errno 20] Not a directory" in capsys.readouterr().err


class TestRoundtripCommand:
    def test_single_criterion_passes(self, capsys):
        code = main(["roundtrip", "--criteria", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "criterion 1 [PASS]" in out
        assert "run configuration" not in out

    def test_tightened_tolerance_fails_with_exit_1(self, capsys):
        code = main(["roundtrip", "--criteria", "1",
                     "--tolerance-scale", "1e-9"])
        assert code == 1
        assert "criterion 1 [FAIL]" in capsys.readouterr().out

    def test_unknown_criterion_exits_2(self, capsys):
        assert main(["roundtrip", "--criteria", "1", "9"]) == 2
        assert "unknown criteria: [9]" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--seed", "3"], ["--threads", "2"],
                                        ["--config", "run.json"]])
    def test_run_configuration_options_exit_2(self, option):
        with pytest.raises(SystemExit) as exc:
            main(["roundtrip", *option])
        assert exc.value.code == 2


# The flags of each subcommand, with the type (or the choices) each takes.
# A RunConfig field reaches a subcommand only through this table.
RUN_OPTIONS = {
    "--config": str, "--seed": int, "--threads": int,
    "--h-min": float, "--h-max": float, "--n-lin": int, "--n-log": int,
    "--x-min": float, "--x-max": float, "--quad-n-lin": int, "--quad-n-log": int,
    "--window-start": float, "--window-end": float,
    "--randomize-round-us": float, "--randomize-jitter-us": float,
    "--weighting": ("events", "sessions"),
}
ESTIMATION_FLAGS = {**RUN_OPTIONS, "--out": str, "--input": str,
                    "--scheme": str, "--dimension": int, "--duration": float}
SUBCOMMAND_FLAGS = {
    "simulate": {"--model": str, "--horizon": float, "--scheme": str,
                 "--out": str, "--config": str, "--seed": int},
    "estimate": ESTIMATION_FLAGS,
    "report": {**ESTIMATION_FLAGS, "--curves": ("diag", "all")},
    "robustness": ESTIMATION_FLAGS,
    "roundtrip": {"--tolerance-scale": float, "--criteria": int},
}


def subcommand_flags(name: str) -> dict:
    """Each long flag of subcommand ``name`` with its type or choices."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for action in sub.choices[name]._actions:
        for flag in action.option_strings:
            if flag != "--help" and flag.startswith("--"):
                flags[flag] = (tuple(action.choices) if action.choices
                               else action.type or str)
                assert action.dest == flag[2:].replace("-", "_")
    return flags


class TestRunOptions:
    @pytest.mark.parametrize("name", sorted(SUBCOMMAND_FLAGS))
    def test_flag_set_pinned(self, name):
        assert subcommand_flags(name) == SUBCOMMAND_FLAGS[name]

    @pytest.mark.parametrize("option", [["--threads", "2"],
                                        ["--h-max", "2.0"], ["--input", "x"]])
    def test_simulate_rejects_options_it_ignores(self, tmp_path, model_file,
                                                 option):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", str(model_file), "--horizon", "10",
                  "--out", str(tmp_path / "o"), *option])
        assert exc.value.code == 2

    def estimate(self, tmp_path, model_file, *extra):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        out = tmp_path / "est"
        return main(["estimate", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(out),
                     "--h-max", "2.0", "--n-log", "50", *extra]), out

    @pytest.mark.parametrize("option,name", [
        (["--x-min", "0.6"], "x_min"), (["--x-max", "1e-4"], "x_max"),
        (["--x-min", "0"], "x_min")])
    def test_bad_quadrature_range_exits_2(self, tmp_path, model_file, capsys,
                                          option, name):
        code, out = self.estimate(tmp_path, model_file, *option)
        assert code == 2
        err = capsys.readouterr().err
        assert "need 0 < x_min < x_max" in err and name in err
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["--h-max", "inf"], "h_max must be finite, got inf"),
        (["--x-max", "inf"], "x_max must be finite, got inf")])
    def test_infinite_grid_reach_exits_2(self, tmp_path, model_file, capsys,
                                         option, message):
        code, out = self.estimate(tmp_path, model_file, *option)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_flag_exits_2(self, tmp_path, model_file, capsys,
                                            value):
        code, out = self.estimate(tmp_path, model_file, "--threads", value)
        assert code == 2
        assert f"threads must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,option", [
        ("estimate", ["--randomize-round-us", "nan"]),
        ("robustness", ["--randomize-round-us", "10",
                        "--randomize-jitter-us", "inf"])])
    def test_non_finite_randomization_exits_2(self, tmp_path, model_file,
                                              capsys, command, option):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        out = tmp_path / "o"
        code = main([command, "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(out), *option])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_jitter_without_rounding_flag_exits_2(self, tmp_path, model_file,
                                                  capsys):
        code, out = self.estimate(tmp_path, model_file,
                                  "--randomize-jitter-us", "500", "--seed", "3")
        assert code == 2
        assert "randomize_jitter_us needs randomize_round_us" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config,message", [
        ({"threads": 0}, "threads must be at least 1, got 0"),
        ({"threads": -2}, "threads must be at least 1, got -2"),
        ({"randomize_jitter_us": 50.0},
         "randomize_jitter_us needs randomize_round_us")])
    def test_config_file_checked_alike(self, tmp_path, model_file, capsys,
                                       config, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(HawkesflowError, match=message):
            RunConfig.load(cfg)
        code, out = self.estimate(tmp_path, model_file, "--config", str(cfg))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_jitter_with_rounding_accepted(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"randomize_round_us": 10.0}))
        args = cli.build_parser().parse_args(
            ["estimate", "--input", "x", "--out", "o", "--threads", "2",
             "--randomize-jitter-us", "5"])
        config = RunConfig.load(cfg).overlay(args)
        assert (config.threads, config.randomize_round_us,
                config.randomize_jitter_us) == (2, 10.0, 5.0)


class TestDimensionGuard:
    def test_sidecar_dimension_mismatch_is_error(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file)
        code = main(["estimate", "--input", str(sim / "events.csv"),
                     "--dimension", "3", "--out", str(tmp_path / "x"),
                     "--h-max", "2.0", "--n-log", "50"])
        assert code == 2

    def test_multi_session_parallel_ingest(self, tmp_path, model_file):
        a = run_simulate(tmp_path, model_file, seed=5, name="a")
        b = run_simulate(tmp_path, model_file, seed=6, name="b")
        out = tmp_path / "est"
        code = main(["estimate",
                     "--input", str(a / "events.csv"), str(b / "events.csv"),
                     "--dimension", "1", "--threads", "4",
                     "--out", str(out), "--h-max", "2.0", "--n-log", "80"])
        assert code == 0

    def test_shared_sidecar_without_duration_is_error(self, tmp_path,
                                                      model_file, capsys):
        sim = run_simulate(tmp_path, model_file, horizon=500.0)
        short = sim / "short.csv"
        lines = (sim / "events.csv").read_text().splitlines(keepends=True)
        short.write_text("".join(lines[: len(lines) // 2]))
        args = ["estimate", "--input", str(sim / "events.csv"), str(short),
                "--dimension", "1", "--h-max", "2.0", "--n-log", "50"]
        capsys.readouterr()
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "events.csv" in err and "short.csv" in err
        assert main(args + ["--duration", "500", "--out",
                            str(tmp_path / "y")]) == 0


class TestDurationGuard:
    def estimate_args(self, sim, tmp_path):
        return ["estimate", "--input", str(sim / "events.csv"),
                "--dimension", "1", "--out", str(tmp_path / "est"),
                "--h-max", "2.0", "--n-log", "50"]

    @pytest.mark.parametrize("duration", ["inf", "nan"])
    def test_duration_not_finite_exits_2(self, tmp_path, model_file, capsys,
                                         duration):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        capsys.readouterr()
        args = self.estimate_args(sim, tmp_path) + ["--duration", duration]
        assert main(args) == 2
        assert (f"session duration must be finite and positive, got {duration}"
                in capsys.readouterr().err)

    def test_sidecar_horizon_not_finite_exits_2(self, tmp_path, model_file,
                                                capsys):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        meta = json.loads((sim / "metadata.json").read_text())
        meta["horizon"] = float("inf")
        (sim / "metadata.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(self.estimate_args(sim, tmp_path)) == 2
        assert ("session duration must be finite and positive, got inf"
                in capsys.readouterr().err)


class TestJsonInputs:
    """Every JSON input goes through one reader: a syntax error names the
    file, and a value of the wrong type exits 2 naming the file and key."""

    def estimate(self, sim, tmp_path, *extra):
        return main(["estimate", "--input", str(sim / "events.csv"),
                     "--dimension", "1", "--out", str(tmp_path / "est"),
                     "--h-max", "2.0", "--n-log", "50", *extra])

    def test_config_syntax_error_names_file(self, tmp_path, model_file, capsys):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        cfg = tmp_path / "bad.json"
        cfg.write_text("{h_max: 2}")
        capsys.readouterr()
        assert self.estimate(sim, tmp_path, "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: invalid JSON: Expecting property name" in err

    def test_model_syntax_error_names_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"flavor": "linear",}')
        code = main(["simulate", "--model", str(path), "--horizon", "10",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{path}: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"horizon": 200.0', '[200.0]'])
    def test_malformed_sidecar_names_file(self, tmp_path, model_file, capsys,
                                          text):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        (sim / "metadata.json").write_text(text)
        capsys.readouterr()
        assert self.estimate(sim, tmp_path) == 2
        assert str(sim / "metadata.json") in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["50", [50], True, None])
    def test_sidecar_horizon_not_a_number_exits_2(self, tmp_path, model_file,
                                                  capsys, horizon):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        meta = json.loads((sim / "metadata.json").read_text())
        meta["horizon"] = horizon
        (sim / "metadata.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert self.estimate(sim, tmp_path) == 2
        err = capsys.readouterr().err
        assert (f"{sim / 'metadata.json'}: 'horizon' must be a number, "
                f"not {json.dumps(horizon)}") in err
        assert not (tmp_path / "est").exists()

    @pytest.mark.parametrize("dimension", [True, "1", 1.0, None])
    def test_sidecar_dimension_not_an_integer_exits_2(self, tmp_path, model_file,
                                                      capsys, dimension):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        meta = json.loads((sim / "metadata.json").read_text())
        meta["dimension"] = dimension
        (sim / "metadata.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert self.estimate(sim, tmp_path) == 2
        err = capsys.readouterr().err
        assert (f"{sim / 'metadata.json'}: 'dimension' must be an integer, "
                f"not {json.dumps(dimension)}") in err
        assert not (tmp_path / "est").exists()

    def test_sidecar_dimension_mismatch_message(self, tmp_path, model_file,
                                                capsys):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        capsys.readouterr()
        assert main(["estimate", "--input", str(sim / "events.csv"),
                     "--dimension", "2", "--out", str(tmp_path / "est")]) == 2
        assert (f"{sim / 'events.csv'}: data was written for dimension 1, "
                "scheme has dimension 2") in capsys.readouterr().err

    def test_sidecar_without_dimension_loads(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        meta = json.loads((sim / "metadata.json").read_text())
        del meta["dimension"]
        (sim / "metadata.json").write_text(json.dumps(meta))
        assert self.estimate(sim, tmp_path) == 0

    def test_sidecar_without_horizon_falls_back(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        meta = json.loads((sim / "metadata.json").read_text())
        del meta["horizon"]
        (sim / "metadata.json").write_text(json.dumps(meta))
        assert self.estimate(sim, tmp_path) == 0

    @pytest.mark.parametrize("edges,message", [
        ([1.5], "edges[0] must be an integer, not 1.5"),
        ([1, "2"], 'edges[1] must be an integer, not "2"'),
        ([True], "edges[0] must be an integer, not true"),
        (3, "invalid binning scheme config: edges must be a list, not 3")])
    def test_scheme_edge_not_an_integer_exits_2(self, tmp_path, model_file,
                                                capsys, edges, message):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        scheme = tmp_path / "scheme.json"
        scheme.write_text(json.dumps({"mode": "unsigned_trades", "edges": edges}))
        capsys.readouterr()
        code = main(["estimate", "--input", str(sim / "events.csv"),
                     "--scheme", str(scheme), "--out", str(tmp_path / "est"),
                     "--h-max", "2.0", "--n-log", "50"])
        assert code == 2
        assert f"{scheme}: {message}" in capsys.readouterr().err


def modules_after(code: str) -> list[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def loaded(modules: list[str], packages: list[str]) -> list[str]:
    """The ``modules`` that are one of ``packages`` or inside one."""
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)]


def layers(*names: str) -> list[str]:
    return [f"hawkesflow.{name}" for name in names]


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        # scipy is a test dependency only; an eager import anywhere in the
        # package would put its ~0.4 s import back on every CLI start
        assert loaded(modules_after("import hawkesflow.cli"), ["scipy"]) == []

    # Each CLI process compiles what it imports, so parsing loads no
    # command's layers and each command loads only its own.
    def test_parser_loads_no_command_layers(self):
        modules = modules_after("import hawkesflow.cli as c; c.build_parser()")
        assert loaded(modules, layers("simulate", "estimate", "whsolve",
                                      "report", "acceptance", "events.stats")
                      + ["concurrent.futures"]) == []
        assert "numpy" in modules

    def test_parser_loads_no_flow_statistics(self):
        # the flow statistics sit whole in events.stats, so parsing does not
        # compile them
        modules = loaded(modules_after("import hawkesflow.cli as c; c.build_parser()"),
                         ["hawkesflow"])
        defining = []
        for module in modules:
            path = Path(importlib.util.find_spec(module).origin)
            body = ast.parse(path.read_text(encoding="utf-8")).body
            # the classes, functions and names assigned at module level
            top = {getattr(node, "name", None) for node in body} | {
                target.id for node in body for target in getattr(node, "targets", [])
                if isinstance(target, ast.Name)}
            if "FlowStatistics" in top:
                defining.append(module)
        assert len(modules) > 5
        assert defining == []

    def test_report_import_loads_no_openssl(self):
        # hashlib maps libcrypto (~3.5 MB resident); the report layer imports
        # it only to write its manifest, after the solve
        assert "_hashlib" not in modules_after("import hawkesflow.report")

    def test_simulate_loads_no_estimation_layers(self, tmp_path, model_file):
        argv = ["simulate", "--model", str(model_file), "--horizon", "50",
                "--out", str(tmp_path / "sim")]
        modules = modules_after(
            f"from hawkesflow.cli import main; assert main({argv!r}) == 0")
        assert "hawkesflow.simulate.thinning" in modules
        assert loaded(modules, layers("estimate", "whsolve", "report",
                                      "acceptance")) == []

    def test_estimate_loads_no_simulation_or_report(self, tmp_path, model_file):
        sim = run_simulate(tmp_path, model_file, horizon=200.0)
        argv = ["estimate", "--input", str(sim / "events.csv"),
                "--dimension", "1", "--out", str(tmp_path / "est")]
        modules = modules_after(
            f"from hawkesflow.cli import main; assert main({argv!r}) == 0")
        assert "hawkesflow.whsolve" in modules
        assert loaded(modules, layers("simulate", "report", "acceptance")
                      + ["concurrent.futures"]) == []
