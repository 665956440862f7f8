"""Command-line pipeline: simulate, estimate, report, roundtrip, robustness.

Grid and quadrature defaults are the standard ones (1 ms / 2e4 s lin-log
law grid with 50+1500 bins; 0.5 ms / 0.5 s quadrature with 80+80 bins) and
are echoed at startup so every run is self-documenting.  A saved config
file re-executes a run identically, but for the perturbation flags of
``robustness``, which it does not hold: flags override the config, which
overrides the defaults.  Each RunConfig field is declared once: its flag is
the field name with ``-`` for ``_`` and takes the type a config file must
give it.  ``estimate``, ``report`` and ``robustness`` take every field,
``simulate`` only ``--seed`` and ``roundtrip`` none.  Exit codes: 0
success, 1 acceptance failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

# Only what parsing, RunConfig and ingest use is imported here; each command
# imports the layers it runs, so no process loads another command's layers.
from ._jsonio import checked, read_json, write_json
from .errors import HawkesflowError, ParseError
from .events import (
    BinningScheme,
    EventTable,
    MultivariateEventStream,
    combine_streams,
    filter_session,
    load_binning_scheme,
    randomize_timestamps,
    read_event_csv,
    write_event_csv,
)
from .events.stream import assign_components
from .events.types import MICROSECOND
from .grids import (CLAW_GRID_DEFAULTS, QUADRATURE_DEFAULTS, build_linlog_grid,
                    build_quadrature)

__all__ = ["main", "RunConfig"]

_WEIGHTINGS = ("events", "sessions")
# For each RunConfig annotation but that of ``weighting``: the type of its
# flag, what a config file may give for it and how to name that.
_CONFIG_TYPES = {
    "int": (int, (int,), "an integer"),
    "float": (float, (int, float), "a number"),
    "float | None": (float, (int, float, type(None)), "a number or null"),
}


@dataclass
class RunConfig:
    """Serializable run parameters; saved alongside every output."""

    # conditional-law grid
    h_min: float = CLAW_GRID_DEFAULTS["h_min"]
    h_max: float = CLAW_GRID_DEFAULTS["h_max"]
    n_lin: int = CLAW_GRID_DEFAULTS["n_lin"]
    n_log: int = CLAW_GRID_DEFAULTS["n_log"]
    # quadrature
    x_min: float = QUADRATURE_DEFAULTS["x_min"]
    x_max: float = QUADRATURE_DEFAULTS["x_max"]
    quad_n_lin: int = QUADRATURE_DEFAULTS["n_lin"]
    quad_n_log: int = QUADRATURE_DEFAULTS["n_log"]
    # session handling
    window_start: float | None = None
    window_end: float | None = None
    randomize_round_us: float | None = None
    randomize_jitter_us: float | None = None
    weighting: str = "events"
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise HawkesflowError(f"threads must be at least 1, got {self.threads}")
        if self.randomize_jitter_us is not None and self.randomize_round_us is None:
            raise HawkesflowError("randomize_jitter_us needs randomize_round_us: "
                                  "a jitter is added only to rounded timestamps")

    @classmethod
    def load(cls, path) -> "RunConfig":
        data = read_json(path)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ParseError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.name not in data:
                continue
            name = f"{path}: config key {f.name!r}"
            if f.name != "weighting":
                checked(data[f.name], name, *_CONFIG_TYPES[f.type][1:])
            elif data[f.name] not in _WEIGHTINGS:
                raise ParseError(f"{name} must be one of {', '.join(_WEIGHTINGS)}, "
                                 f"not {json.dumps(data[f.name])}")
        return cls(**data)

    def save(self, path) -> None:
        write_json(path, asdict(self), sort_keys=True)

    def overlay(self, args: argparse.Namespace) -> "RunConfig":
        given = {f.name: getattr(args, f.name, None) for f in fields(self)}
        return replace(self, **{k: v for k, v in given.items() if v is not None})


def _echo_config(config: RunConfig) -> None:
    print("run configuration:")
    for key, value in sorted(asdict(config).items()):
        print(f"  {key} = {value}")


def _events_from_stream(stream: MultivariateEventStream,
                        scheme: BinningScheme) -> list[EventTable]:
    """Translate component streams back into typed events, one table per
    session.  Microsecond rounding collisions within a component are bumped
    by 1 us to preserve per-component counts on re-ingestion."""
    templates = EventTable.from_rows(
        (0, *scheme.event_template(comp)) for comp in range(stream.dimension))
    out = []
    for sess in stream.sessions:
        us = []
        for t in sess.times:
            u = np.round(t / MICROSECOND).astype(np.int64)
            # u[k] = max(u[k], u[k-1] + 1) as a running maximum
            k = np.arange(len(u))
            us.append(np.maximum.accumulate(u - k) + k)
        comp = np.repeat(np.arange(len(us)), [len(u) for u in us])
        us = np.concatenate(us)
        order = np.lexsort((comp, us))
        out.append(replace(templates.take(comp[order]), ts_us=us[order]))
    return out


def _ingest(paths: list[str], scheme: BinningScheme, duration: float | None
            ) -> tuple[MultivariateEventStream, list[EventTable]]:
    """Read session files and map them onto components.  A metadata
    sidecar, when present, supplies the session duration and cross-checks
    the scheme dimension.  Without ``duration``, files that share one
    sidecar are rejected: they would all get its horizon, whatever their
    own length."""
    if duration is None:
        by_sidecar: dict[Path, list[str]] = {}
        for path in paths:
            sidecar = Path(path).resolve().with_name("metadata.json")
            if sidecar.exists():
                by_sidecar.setdefault(sidecar, []).append(path)
        for sidecar, shared in by_sidecar.items():
            if len(shared) > 1:
                raise HawkesflowError(
                    f"{', '.join(shared)} share the metadata sidecar "
                    f"{sidecar}; put each session in its own directory or "
                    f"give --duration")

    def load_one(idx, path):
        events = read_event_csv(path)
        sidecar = Path(path).with_name("metadata.json")
        sess_duration = duration
        if sidecar.exists():
            meta = read_json(sidecar)
            if sess_duration is None and "horizon" in meta:
                sess_duration = checked(meta["horizon"], f"{sidecar}: 'horizon'")
            recorded = checked(meta.get("dimension", scheme.dimension),
                               f"{sidecar}: 'dimension'", int, "an integer")
            if recorded != scheme.dimension:
                raise HawkesflowError(
                    f"{path}: data was written for dimension {recorded}, "
                    f"scheme has dimension {scheme.dimension}")
        stream = assign_components(events, scheme, sess_duration,
                                   session_id=f"session-{idx}")
        return stream, events

    loaded = [load_one(idx, path) for idx, path in enumerate(paths)]
    return (combine_streams([s for s, _ in loaded]),
            [ev for _, ev in loaded])


def _resolve_scheme(args) -> BinningScheme:
    if getattr(args, "scheme", None):
        return load_binning_scheme(args.scheme)
    if getattr(args, "dimension", None):
        return BinningScheme.canonical(args.dimension)
    raise HawkesflowError("need --scheme or --dimension to map events to "
                          "components")


def _prepare_stream(args, config: RunConfig):
    scheme = _resolve_scheme(args)
    stream, events = _ingest(args.input, scheme, getattr(args, "duration", None))
    if config.window_start is not None or config.window_end is not None:
        start = config.window_start or 0.0
        end = config.window_end
        if end is None:
            end = min(s.duration for s in stream.sessions)
        stream = filter_session(stream, start, end)
    if config.randomize_round_us is not None:
        stream = randomize_timestamps(stream, config.randomize_round_us,
                                      config.randomize_jitter_us or 0.0,
                                      config.seed)
    return scheme, stream, events


def _estimate_pipeline(stream: MultivariateEventStream, config: RunConfig):
    from .estimate import estimate_conditional_law
    from .whsolve import solve_wiener_hopf

    grid = build_linlog_grid(h_min=config.h_min, h_max=config.h_max,
                             n_lin=config.n_lin, n_log=config.n_log)
    quad = build_quadrature(x_min=config.x_min, x_max=config.x_max,
                            n_lin=config.quad_n_lin, n_log=config.quad_n_log)
    claw = estimate_conditional_law(stream, grid, weighting=config.weighting,
                                    workers=config.threads)
    est = solve_wiener_hopf(claw, quad)
    return claw, est


def cmd_simulate(args, config: RunConfig) -> int:
    from .simulate import load_model, simulate

    model = load_model(args.model)
    scheme = load_binning_scheme(args.scheme) if args.scheme \
        else BinningScheme.canonical(model.dimension)
    if scheme.dimension < model.dimension:
        raise HawkesflowError(
            f"scheme dimension {scheme.dimension} cannot hold model "
            f"dimension {model.dimension}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = simulate(model, args.horizon, config.seed)
    events = _events_from_stream(stream, scheme)[0]
    csv_path = out_dir / "events.csv"
    write_event_csv(events, csv_path)
    meta = dict(stream.sessions[0].meta)
    meta.update(dimension=scheme.dimension, model_dimension=model.dimension,
                scheme=scheme.to_dict(), events=len(events),
                model_file=str(args.model))
    write_json(out_dir / "metadata.json", meta, sort_keys=True)
    config.save(out_dir / "config.json")
    print(f"wrote {len(events)} events to {csv_path}")
    return 0


def cmd_estimate(args, config: RunConfig) -> int:
    from .estimate import save_claw
    from .whsolve import save_kernel_estimate

    scheme, stream, _ = _prepare_stream(args, config)
    claw, est = _estimate_pipeline(stream, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_claw(claw, out_dir / "claw")
    save_kernel_estimate(est, out_dir / "kernel", labels=scheme.labels())
    config.save(out_dir / "config.json")
    with np.printoptions(precision=4, suppress=True):
        print("mean intensity:", est.lam)
        print("kernel norms:")
        print(est.norms)
        print("baseline:", est.baseline)
        print("exogeneity %:", est.exogeneity_pct)
    print(f"solver residual {est.residual:.3e}, "
          f"condition estimate {est.condition_estimate:.3e}")
    return 0


def cmd_report(args, config: RunConfig) -> int:
    from . import report as report_mod
    from .events import flow_statistics

    scheme, stream, events = _prepare_stream(args, config)
    claw, est = _estimate_pipeline(stream, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = scheme.labels()
    bundle = report_mod.ReportBundle(out_dir, metadata={
        "config": asdict(config),
        "inputs": [str(p) for p in args.input],
        "dimension": stream.dimension,
    })
    bundle.add(report_mod.emit_norm_tables(est, labels, out_dir, scheme))
    if args.curves == "all":
        selection = [(i, j) for i in range(est.dimension)
                     for j in range(est.dimension)]
    else:
        selection = [(i, i) for i in range(est.dimension)]
    bundle.add(report_mod.emit_kernel_curves(est, selection, out_dir, labels))
    bundle.add(report_mod.emit_claw_curves(claw, selection, out_dir, labels))
    stats = flow_statistics(stream, events_by_session=events)
    bundle.add(report_mod.emit_flow_report(stats, out_dir, labels))
    manifest = bundle.finalize()
    config.save(out_dir / "config.json")
    print(f"report bundle: {len(bundle.files)} files, manifest {manifest}")
    return 0


def cmd_roundtrip(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(tolerance_scale=args.tolerance_scale,
                             criteria=args.criteria)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def cmd_robustness(args, config: RunConfig) -> int:
    from ._tables import write_matrix_csv

    scheme, stream, _ = _prepare_stream(args, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = scheme.labels()
    _, base = _estimate_pipeline(stream, config)

    comparisons = {}
    randomized = randomize_timestamps(stream, args.round_us, args.jitter_us,
                                      config.seed)
    _, est_r = _estimate_pipeline(randomized, config)
    comparisons["randomized"] = est_r

    if args.compare_window:
        start, end = args.compare_window
        windowed = filter_session(stream, start, end)
        _, est_w = _estimate_pipeline(windowed, config)
        comparisons["windowed"] = est_w

    lines = []
    for name, est in comparisons.items():
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = (base.rescaled - est.rescaled) / base.rescaled
        path = out_dir / f"rescaled_norm_reldiff_{name}.csv"
        write_matrix_csv(path, rel, labels, labels)
        finite = rel[np.isfinite(rel)]
        worst = float(np.max(np.abs(finite))) if finite.size else float("nan")
        lines.append(f"{name}: max |relative rescaled-norm difference| = {worst:.4g}")
    config.save(out_dir / "config.json")
    for line in lines:
        print(line)
    return 0


def _add_run_options(p: argparse.ArgumentParser, names=None) -> None:
    """``--config`` and a flag for each RunConfig field in ``names`` (all
    when None): the field name with ``-`` for ``_``, taking the type a
    config file must give the field."""
    p.add_argument("--config", help="JSON config file with RunConfig fields")
    for f in fields(RunConfig):
        if names is not None and f.name not in names:
            continue
        kind = ({"choices": _WEIGHTINGS} if f.name == "weighting"
                else {"type": _CONFIG_TYPES[f.type][0]})
        p.add_argument("--" + f.name.replace("_", "-"), **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkesflow",
        description="Nonparametric Hawkes analysis of order-flow event streams")
    sub = parser.add_subparsers(dest="command", required=True)

    def estimation(name, summary):
        """A subcommand that estimates from event files: it reads every
        RunConfig field."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", required=True)
        _add_run_options(p)
        p.add_argument("--input", nargs="+", required=True,
                       help="event CSV files, one per session")
        p.add_argument("--scheme", help="binning scheme JSON")
        p.add_argument("--dimension", type=int,
                       help="use the canonical scheme of this dimension")
        p.add_argument("--duration", type=float,
                       help="session duration in seconds")
        return p

    p_sim = sub.add_parser("simulate", help="simulate a model to an event CSV")
    p_sim.add_argument("--model", required=True, help="model JSON file")
    p_sim.add_argument("--horizon", type=float, required=True,
                       help="session length in seconds")
    p_sim.add_argument("--scheme", help="binning scheme JSON for the "
                                        "component-to-event mapping")
    p_sim.add_argument("--out", required=True)
    _add_run_options(p_sim, ["seed"])
    p_sim.set_defaults(func=cmd_simulate)

    p_est = estimation("estimate", "estimate laws and kernels")
    p_est.set_defaults(func=cmd_estimate)

    p_rep = estimation("report", "estimate and emit report bundle")
    p_rep.add_argument("--curves", choices=["diag", "all"], default="diag")
    p_rep.set_defaults(func=cmd_report)

    p_rt = sub.add_parser("roundtrip", help="run the acceptance suite")
    p_rt.add_argument("--tolerance-scale", dest="tolerance_scale", type=float,
                      default=1.0)
    p_rt.add_argument("--criteria", type=int, nargs="+",
                      help="subset of criterion numbers to run")
    p_rt.set_defaults(func=cmd_roundtrip)

    p_rob = estimation("robustness", "compare estimates on perturbed inputs")
    p_rob.add_argument("--round-us", dest="round_us", type=float, default=10.0,
                       help="timestamp rounding step in us (default: %(default)s)")
    p_rob.add_argument("--jitter-us", dest="jitter_us", type=float, default=50.0,
                       help="timestamp jitter in us (default: %(default)s)")
    p_rob.add_argument("--compare-window", dest="compare_window", type=float,
                       nargs=2, metavar=("START", "END"))
    p_rob.set_defaults(func=cmd_robustness)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the acceptance suite fixes its own seeds, grids and quadrature
        if args.command == "roundtrip":
            return cmd_roundtrip(args)
        config = RunConfig.load(args.config) if args.config else RunConfig()
        config = config.overlay(args)
        _echo_config(config)
        return args.func(args, config)
    except (HawkesflowError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
