"""Traced replicas of the ``simulate``, ``estimate`` and ``report`` commands.

Each replica calls the program's public library functions in the order
``hawkesflow.cli`` calls them, with a span around every call into a layer.
Glue that no public call covers (argument handling, the stream-to-event
conversion of ``simulate``, config and metadata files, console output) runs
unspanned, so it shows up as command time minus span time.  The replicas run
sequentially where the CLI may use a thread pool for reading session files.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from hawkesflow import cli, report as report_mod
from hawkesflow.estimate import build_linlog_grid, estimate_conditional_law, save_claw
from hawkesflow.events import (assign_components, combine_streams, flow_statistics,
                               load_binning_scheme, read_event_csv, write_event_csv)
from hawkesflow.simulate import load_model, simulate
from hawkesflow.whsolve import build_quadrature, save_kernel_estimate, solve_wiener_hopf

from tracing import Tracer


def _config(threads: int, grid: dict) -> cli.RunConfig:
    return cli.RunConfig(threads=threads, **grid)


def traced_simulate(tr: Tracer, model_path: Path, scheme_path: Path,
                    horizon: float, seed: int, out_dir: Path) -> dict:
    with tr.span("cmd.simulate"):
        config = cli.RunConfig(seed=seed)
        model = load_model(model_path)
        scheme = load_binning_scheme(scheme_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        with tr.span("simulate.thin"):
            stream = simulate(model, horizon, config.seed)
        events = cli._events_from_stream(stream, scheme)[0]
        with tr.span("io.write"):
            write_event_csv(events, out_dir / "events.csv")
        meta = dict(stream.sessions[0].meta)
        meta.update(dimension=scheme.dimension, model_dimension=model.dimension,
                    scheme=scheme.to_dict(), events=len(events),
                    model_file=str(model_path))
        with open(out_dir / "metadata.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        config.save(out_dir / "config.json")
    return {"events": int(stream.total_counts.sum()),
            "candidates": int(meta["candidates"]),
            "clipped": float(meta["clipping_frequency"]) * meta["candidates"]}


def _ingest(tr: Tracer, inputs: list[Path], scheme):
    streams, events_all, rows = [], [], 0
    for idx, path in enumerate(inputs):
        with tr.span("io.read"):
            events = read_event_csv(path)
        rows += len(events)
        with open(Path(path).with_name("metadata.json"), encoding="utf-8") as fh:
            duration = json.load(fh).get("horizon")
        with tr.span("stream.assign"):
            stream = assign_components(events, scheme, duration,
                                       session_id=f"session-{idx}")
        streams.append(stream)
        events_all.append(events)
    return combine_streams(streams), events_all, rows


def _claw_and_solve(tr: Tracer, stream, config: cli.RunConfig):
    grid = build_linlog_grid(h_min=config.h_min, h_max=config.h_max,
                             n_lin=config.n_lin, n_log=config.n_log)
    quad = build_quadrature(x_min=config.x_min, x_max=config.x_max,
                            n_lin=config.quad_n_lin, n_log=config.quad_n_log)
    with tr.span("claw"):
        claw = estimate_conditional_law(stream, grid, weighting=config.weighting,
                                        workers=config.threads)
    with tr.span("whsolve.solve"):
        est = solve_wiener_hopf(claw, quad)
    return claw, est


def traced_estimate(tr: Tracer, inputs: list[Path], scheme_path: Path,
                    threads: int, grid: dict, out_dir: Path) -> dict:
    with tr.span("cmd.estimate"):
        config = _config(threads, grid)
        scheme = load_binning_scheme(scheme_path)
        stream, _, rows = _ingest(tr, inputs, scheme)
        claw, est = _claw_and_solve(tr, stream, config)
        out_dir.mkdir(parents=True, exist_ok=True)
        with tr.span("claw.save"):
            save_claw(claw, out_dir / "claw")
        with tr.span("whsolve.save"):
            save_kernel_estimate(est, out_dir / "kernel", labels=scheme.labels())
        config.save(out_dir / "config.json")
    return {"rows": rows, "claw": claw, "est": est, "stream": stream}


def traced_report(tr: Tracer, inputs: list[Path], scheme_path: Path,
                  threads: int, grid: dict, curves: str, out_dir: Path) -> dict:
    with tr.span("cmd.report"):
        config = _config(threads, grid)
        scheme = load_binning_scheme(scheme_path)
        stream, events, rows = _ingest(tr, inputs, scheme)
        claw, est = _claw_and_solve(tr, stream, config)
        out_dir.mkdir(parents=True, exist_ok=True)
        labels = scheme.labels()
        bundle = report_mod.ReportBundle(out_dir, metadata={
            "config": asdict(config), "inputs": [str(p) for p in inputs],
            "dimension": stream.dimension})
        d = est.dimension
        selection = ([(i, j) for i in range(d) for j in range(d)]
                     if curves == "all" else [(i, i) for i in range(d)])
        with tr.span("report.emit"):
            bundle.add(report_mod.emit_norm_tables(est, labels, out_dir, scheme))
            bundle.add(report_mod.emit_kernel_curves(est, selection, out_dir, labels))
            bundle.add(report_mod.emit_claw_curves(claw, selection, out_dir, labels))
        with tr.span("stats.flow"):
            stats = flow_statistics(stream, events_by_session=events)
        with tr.span("report.emit"):
            bundle.add(report_mod.emit_flow_report(stats, out_dir, labels))
        with tr.span("report.manifest"):
            bundle.finalize()
        config.save(out_dir / "config.json")
    files = sorted(set(bundle.files))
    return {"rows": rows, "files": len(files),
            "bytes": sum(p.stat().st_size for p in files)}
