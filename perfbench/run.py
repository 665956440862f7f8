"""hawkesflow benchmark: end-to-end CLI timings and a per-layer trace.

Usage, from the root of a checkout (no install needed; ``src`` is put on
PYTHONPATH):

    python3 perfbench/run.py --workload trades2|book12 --seed N
        --seconds S --trace 0|1 [--tiny]

Workloads (inputs are generated from ``--seed``; see inputs.py):

  trades2  signed trades, D=2 (sell, buy), one session; ``simulate ->
           estimate -> report`` on the default 1550-bin law grid, one thread.
  book12   full book with volume edges [1], D=12, three session files with
           metadata sidecars; ``estimate`` and ``report`` with --h-max 5
           --n-log 300 --threads 1 and ``report --curves all``; ``simulate``
           (three sessions) runs the positive-part variant of the model.

With ``--trace 0`` every command runs as a subprocess, as a user would run
it, and the end-to-end metrics are medians over the iterations that fit in
``--seconds`` (at least two; one when traced).  Every workload reports
every metric:

  setup_s      process start until ``hawkesflow.cli`` is imported and its
               parser built; median of several fresh processes.
  simulate_s   ``hawkesflow simulate`` wall time, summed over sessions.
  estimate_s   ``hawkesflow estimate`` wall time.
  report_s     ``hawkesflow report`` wall time.
  solve_s      ``solve_wiener_hopf`` with standard errors, warmed up, on the
               law ``estimate`` wrote (loaded with ``load_claw``); repeated
               for at least SOLVE_BUDGET_S per iteration, median over all.
  peak_rss_mb  peak RSS of the iteration's largest measured process.

With ``--trace 1`` each iteration runs the CLI chain once more untraced,
then replicas (replica.py) that call the public library functions in the
CLI's order with a span around each call.  Per-layer metrics are medians
over iterations; a layer used by both ``estimate`` and ``report`` reports
the mean of the two.  A metric reads 0 on a workload that does not
exercise the layer.  ``cli.unattributed_s`` is, summed over the commands of
one iteration, CLI wall time minus ``cli.import_s`` minus the replica's
layer spans; ``trace.overhead_ratio`` is (import + traced replica time) /
untraced CLI time.  Spans are written to ``.bench_work/<workload>/spans.json``.

Every run checks its outputs (checks.py); a nonzero exit or a failed check
fails the operation it belongs to.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PEAKRSS = Path(__file__).with_name("peakrss.py")
NPROC = len(os.sched_getaffinity(0))
THREADS = min(2, NPROC)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, when numpy is first imported.
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import MIN_SAMPLES, Tracer, duration, more_iterations  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
CLI_READY = "import hawkesflow.cli as c; c.build_parser()"
X_MAX = 0.5  # default quadrature reach; the norm check compares on [0, X_MAX]
# A solve of a small law takes milliseconds, so each iteration repeats it
# for this long and every repetition is a sample.
SOLVE_BUDGET_S = 0.5


@dataclass(frozen=True)
class Chain:
    """A workload run as ``simulate -> estimate -> report`` through the CLI."""

    model: inputs.ExpModel   # generates the event files (cluster sampler)
    sim_model: inputs.ExpModel
    sim_flavor: str          # flavor ``simulate`` runs sim_model as
    mode: str
    edges: tuple[int, ...]
    sessions: int
    est_horizon: float       # length of each generated session file, s
    sim_horizon: float       # length of each simulated session, s
    grid: dict               # law-grid RunConfig fields passed as flags
    threads: int
    gain_workers: int        # traced runs also time the claw at this many
                             # workers, for claw.workers_gain (0: not timed)
    curves: str
    check_pairs: tuple       # (i, j) pairs whose counts are brute-forced
    norm_tol: float          # stated tolerance of the norm check: absolute,
    norm_tol_in_se: bool     # or in standard errors of each norm

    def labels(self) -> list[str]:
        if self.mode == "signed_trades":
            return ["S1", "B1"]
        return [f"{t}{side}{b}" for side in "ab" for t in inputs.BOOK_TYPES for b in (1, 2)]

    def component_of(self, etype: str, side: str, volume: int) -> int:
        if self.mode == "signed_trades":
            return (0 if side == "b" else 1) if etype == "T" else -1
        return (0 if side == "a" else 6) + 2 * inputs.BOOK_TYPES.index(etype) \
            + (0 if volume == 1 else 1)


CHAINS = {
    "trades2": Chain(
        model=inputs.trades2_model(), sim_model=inputs.trades2_model(),
        sim_flavor="linear", mode="signed_trades", edges=(), sessions=1,
        est_horizon=15000.0, sim_horizon=15000.0, grid={}, threads=1, gain_workers=0,
        curves="diag",
        check_pairs=((0, 0), (0, 1), (1, 0), (1, 1)), norm_tol=0.15,
        norm_tol_in_se=False),
    # 144 kernels from ~10k events: the solve is at times poorly conditioned
    # (condition estimates up to ~4e5 on some seeds), and the norm errors then
    # grow with the reported standard errors, so the tolerance is stated in them.
    # One thread: on two cores, two claw threads were slower than one
    # (workers_gain 0.6-0.87) and no steadier between runs; the thread pool
    # is still timed in the traced run.
    "book12": Chain(
        model=inputs.book12_model(), sim_model=inputs.book12_model(inhibit=True),
        sim_flavor="positive_part", mode="full_book", edges=(1,), sessions=3,
        est_horizon=500.0, sim_horizon=100.0, grid={"h_max": 5.0, "n_log": 300},
        threads=1, gain_workers=2, curves="all",
        check_pairs=((0, 0), (2, 0), (4, 10), (10, 4), (7, 6), (11, 11)),
        norm_tol=3.0, norm_tol_in_se=True),
}
# Smoke-test sizes: short simulations, and estimation inputs only as short
# as the norm checks allow.
TINY = {"trades2": dict(sim_horizon=1500.0),
        "book12": dict(est_horizon=300.0, sim_horizon=50.0)}


@dataclass
class Ledger:
    """Operations attempted, and why each failed one failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def op(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append((name, problems))
            print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


@dataclass
class Proc:
    wall: float
    code: int
    rss_mb: float = 0.0


def run_proc(args: list[str], log: Path) -> Proc:
    """Run a process to completion, output to ``log``; its wall time."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        code = subprocess.run(args, stdout=out, stderr=subprocess.STDOUT,
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              cwd=ROOT).returncode
        return Proc(time.perf_counter() - t0, code)


def cli(args: list[str], log: Path, ledger: Ledger) -> Proc:
    rss = log.with_suffix(".rss")
    proc = run_proc([sys.executable, str(PEAKRSS), str(rss), "-m", "hawkesflow.cli",
                     *args], log)
    if ledger.op(f"hawkesflow {args[0]}",
                 [f"exit {proc.code}, see {log}"] if proc.code else []):
        proc.rss_mb = float(rss.read_text())
    return proc


def setup_probes(snippet: str, n: int, ledger: Ledger) -> list[float]:
    walls = []
    for k in range(n):
        log = WORK / "logs" / f"setup-{k}.log"
        proc = run_proc([sys.executable, "-c", snippet], log)
        if ledger.op("setup", [f"exit {proc.code}, see {log}"] if proc.code else []):
            walls.append(proc.wall)
    return walls


def grid_flags(grid: dict) -> list[str]:
    return [a for k, v in grid.items() for a in (f"--{k.replace('_', '-')}", str(v))]


def env_record() -> dict:
    from numpy import __config__ as npconf
    import scipy
    blas = npconf.CONFIG.get("Build Dependencies", {}).get("blas", {})
    rev = None
    if (ROOT / ".git").exists():  # a plain checkout must not pick up an outer repo
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": THREADS, "git_revision": rev,
            "src_sha256": digest.hexdigest(), "loadavg": os.getloadavg()}


# ---------------------------------------------------------------- chains


def generate(chain: Chain, seed: int, work: Path) -> dict:
    """Write the event files, model and scheme of one run."""
    sessions = []
    for k in range(chain.sessions):
        sessions.append(inputs.write_session(
            work / "inputs" / f"s{k}", chain.model, chain.mode, list(chain.edges),
            chain.est_horizon, [seed, chain.model.dimension, k]))
    inputs.write_json(work / "model.json", chain.sim_model.to_json(chain.sim_flavor))
    inputs.write_json(work / "scheme.json", {"mode": chain.mode, "edges": list(chain.edges)})
    return {"sessions": sessions,
            "files": [str(work / "inputs" / f"s{k}" / "events.csv")
                      for k in range(chain.sessions)]}


def chain_commands(chain: Chain, seed: int, it: Path, files: list[str]):
    work = it.parent
    sims = [["simulate", "--model", str(work / "model.json"),
             "--scheme", str(work / "scheme.json"), "--horizon", str(chain.sim_horizon),
             "--seed", str(seed * 10 + k), "--out", str(it / f"sim{k}")]
            for k in range(chain.sessions)]
    common = ["--input", *files, "--scheme", str(work / "scheme.json"),
              "--threads", str(chain.threads), *grid_flags(chain.grid)]
    est = ["estimate", *common, "--out", str(it / "est")]
    rep = ["report", *common, "--out", str(it / "rep"), "--curves", chain.curves]
    return sims, est, rep


def run_cli_chain(chain: Chain, seed: int, it: Path, files: list[str],
                  ledger: Ledger) -> dict:
    sims, est, rep = chain_commands(chain, seed, it, files)
    procs = {"simulate": [cli(a, it / f"sim{k}.log", ledger) for k, a in enumerate(sims)],
             "estimate": [cli(est, it / "est.log", ledger)],
             "report": [cli(rep, it / "rep.log", ledger)]}
    everything = [p for ps in procs.values() for p in ps]
    return {"simulate_s": sum(p.wall for p in procs["simulate"]),
            "estimate_s": procs["estimate"][0].wall,
            "report_s": procs["report"][0].wall,
            "peak_rss_mb": max(p.rss_mb for p in everything),
            "ok": all(p.code == 0 for p in everything)}


def timed_solve(claw, quad, compute_stderr: bool = True) -> float:
    from hawkesflow.whsolve import solve_wiener_hopf
    t0 = time.perf_counter()
    solve_wiener_hopf(claw, quad, compute_stderr=compute_stderr)
    return time.perf_counter() - t0


def timed_solves(claw, quad, budget: float) -> list[float]:
    """Solve at least once and until ``budget`` seconds have passed."""
    walls = [timed_solve(claw, quad)]
    while sum(walls) < budget:
        walls.append(timed_solve(claw, quad))
    return walls


def heavy_checks(chain: Chain, it: Path, gen: dict, ledger: Ledger) -> None:
    from hawkesflow.estimate import build_linlog_grid
    edges = build_linlog_grid(**chain.grid).edges
    ledger.op("check pair counts", checks.check_pair_counts(
        it / "est" / "claw", gen["sessions"], list(chain.check_pairs), edges, X_MAX))
    tol = chain.norm_tol
    if chain.norm_tol_in_se:
        tol = tol * checks.norm_stderr(it / "rep", it / "est" / "kernel", chain.labels())
    ledger.op("check norms", checks.check_norms(
        it / "est" / "kernel" / "norms.csv", chain.model.truncated_norms(X_MAX), tol))
    ledger.op("check solution", checks.check_solution(it / "est" / "kernel"))
    for k in range(chain.sessions):
        ledger.op("check simulate output", checks.check_simulated(
            it / f"sim{k}", chain.component_of, chain.model.dimension))


def measure_chain(chain: Chain, seed: int, seconds: float, trace: bool,
                  tiny: bool, work: Path, ledger: Ledger) -> tuple[list[dict], dict]:
    from hawkesflow.estimate import load_claw
    from hawkesflow.whsolve import build_quadrature

    gen = generate(chain, seed, work)
    # set-up probes run two at the start and one per iteration, so that their
    # median spans the run
    import_walls = setup_probes(CLI_READY, 2, ledger)
    quad = build_quadrature()
    tracer = Tracer()
    samples, accounting, solve_walls = [], [], []
    reference = None
    law = None
    t_measure = time.perf_counter()
    iterations = 0
    while True:
        iterations += 1
        it = work / "iter"
        shutil.rmtree(it, ignore_errors=True)
        tracer.trace_id = f"iter-{iterations}"
        import_walls += setup_probes(CLI_READY, 1, ledger)
        import_s = statistics.median(import_walls) if import_walls else 0.0
        try:
            sample = run_cli_chain(chain, seed, it, gen["files"], ledger)
            norms = (it / "est" / "kernel" / "norms.csv").read_bytes()
            ledger.op("check norms.csv from estimate and report", checks.check_identical(
                it / "est" / "kernel" / "norms.csv", it / "rep" / "norms.csv"))
            if reference is None:
                heavy_checks(chain, it, gen, ledger)
                reference = norms
                law = load_claw(it / "est" / "claw")
                timed_solve(law, quad)  # warm-up
            else:
                ledger.op("check same norms every iteration",
                          [] if norms == reference else ["norms.csv changed"])
            walls = timed_solves(law, quad, 0.0 if tiny else SOLVE_BUDGET_S)
            sample["solve_s"] = statistics.median(walls)
            if trace:
                layers, acct = traced_iteration(chain, seed, gen, it, sample,
                                                import_s, quad, tracer)
                sample["layers"] = layers
                accounting.append(acct)
        except Exception:  # one failed iteration must not lose the run
            traceback.print_exc()
            ledger.op("iteration", ["raised, see stderr"])
            sample = None
        if sample is not None and sample.pop("ok"):
            samples.append(sample)
            solve_walls += walls
        if not more_iterations(iterations, time.perf_counter() - t_measure,
                               seconds, 1 if trace or tiny else MIN_SAMPLES):
            break
    if trace:
        tracer.dump(work / "spans.json", {"accounting": accounting})
    return samples, {"pooled": {"setup_s": import_walls, "solve_s": solve_walls}}


def traced_iteration(chain: Chain, seed: int, gen: dict, it: Path, cli_sample: dict,
                     import_s: float, quad, tr: Tracer) -> tuple[dict, dict]:
    """Replica chain with spans; layer metrics for one iteration."""
    import replica
    from hawkesflow.estimate import estimate_conditional_law

    work = it.parent
    rt = work / "traced"
    shutil.rmtree(rt, ignore_errors=True)
    files = [Path(f) for f in gen["files"]]
    sims = [replica.traced_simulate(tr, work / "model.json", work / "scheme.json",
                                    chain.sim_horizon, seed * 10 + k, rt / f"sim{k}")
            for k in range(chain.sessions)]
    est = replica.traced_estimate(tr, files, work / "scheme.json", chain.threads,
                                  chain.grid, rt / "est")
    rep = replica.traced_report(tr, files, work / "scheme.json", chain.threads,
                                chain.grid, chain.curves, rt / "rep")
    it_id = tr.trace_id
    cmds = {name: [s for s in tr.spans if s["trace"] == it_id and s["name"] == f"cmd.{name}"]
            for name in ("simulate", "estimate", "report")}

    def layer(name: str, cmd: str) -> float:
        return sum(tr.total(name, within=c) for c in cmds[cmd])

    def both(name: str) -> float:
        return (layer(name, "estimate") + layer(name, "report")) / 2

    claw, solved = est["claw"], est["est"]
    stream = est["stream"]
    plain = timed_solve(claw, quad, compute_stderr=False)
    gain = 0.0
    if chain.gain_workers:
        t0 = time.perf_counter()
        estimate_conditional_law(stream, claw.grid, workers=chain.gain_workers)
        gain = layer("claw", "estimate") / (time.perf_counter() - t0)

    edges = claw.grid.edges
    near = int(np.sum(edges[:-1] < quad.x_max))
    n_bins = claw.grid.n_bins
    searches = elems = 0
    for sess in stream.sessions:
        for t_j in sess.times:
            for t_i in sess.times:
                searches += 1
                elems += n_bins
                if len(t_i) and len(t_j):
                    searches += n_bins + 1
                    elems += (n_bins + 1) * len(t_j)
    events = sum(s["events"] for s in sims)
    candidates = sum(s["candidates"] for s in sims)
    L = {
        "cli.import_s": import_s,
        "simulate.thin_s": layer("simulate.thin", "simulate"),
        "simulate.events": events,
        "simulate.candidates": candidates,
        "simulate.clip_ratio": sum(s["clipped"] for s in sims) / max(candidates, 1),
        "io.read_s": both("io.read"),
        "io.rows": est["rows"],
        "io.write_s": layer("io.write", "simulate"),
        "stream.assign_s": both("stream.assign"),
        "claw.s": both("claw"),
        "claw.bins": n_bins,
        "claw.near_bins": near,
        "claw.pairs": int(claw.pair_counts.sum()),
        "claw.pairs_near": int(claw.pair_counts[:, :, :near].sum()),
        "claw.searches": searches,
        "claw.search_elems": elems,
        "claw.workers_gain": gain,
        "claw.save_s": layer("claw.save", "estimate"),
        "whsolve.solve_s": plain,
        "whsolve.with_stderr_s": both("whsolve.solve"),
        "whsolve.unknowns": solved.dimension * quad.n_nodes,
        "whsolve.residual": solved.residual,
        "whsolve.condition": solved.condition_estimate,
        "whsolve.save_s": layer("whsolve.save", "estimate"),
        "stats.flow_s": layer("stats.flow", "report"),
        "report.emit_s": layer("report.emit", "report"),
        "report.manifest_s": layer("report.manifest", "report"),
        "report.files": rep["files"],
        "report.mb": rep["bytes"] / 1e6,
    }
    # per command: CLI wall = import + layer spans + unattributed
    acct = {"trace": it_id, "commands": {}}
    unattributed = traced_total = cli_total = 0.0
    for name, key in (("simulate", "simulate_s"), ("estimate", "estimate_s"),
                      ("report", "report_s")):
        spans = sum(duration(c) for span in cmds[name] for c in tr.children(span))
        replica_wall = sum(duration(span) for span in cmds[name])
        wall = cli_sample[key]
        rest = wall - len(cmds[name]) * import_s - spans
        acct["commands"][name] = {"cli_wall_s": wall, "import_s": import_s * len(cmds[name]),
                                  "layer_spans_s": spans, "unattributed_s": rest}
        unattributed += rest
        traced_total += replica_wall + len(cmds[name]) * import_s
        cli_total += wall
    L["cli.unattributed_s"] = unattributed
    L["trace.overhead_ratio"] = traced_total / cli_total
    return derive(L), acct


def derive(L: dict) -> dict:
    """Add the ratios and computed work counts to a record of raw layer
    values (dense LU: 2n^3/3 flops; inverse from the LU: 2n^3)."""
    n = L["whsolve.unknowns"]
    L["whsolve.lu_gflop"] = 2.0 / 3.0 * n ** 3 / 1e9
    L["whsolve.inv_gflop"] = 2.0 * n ** 3 / 1e9
    L["whsolve.matrix_mb"] = 8.0 * n * n / 1e6
    L["whsolve.stderr_s"] = L.pop("whsolve.with_stderr_s") - L["whsolve.solve_s"]
    if L["simulate.events"]:
        L["simulate.us_per_event"] = L["simulate.thin_s"] / L["simulate.events"] * 1e6
        L["simulate.accept_ratio"] = L["simulate.events"] / L["simulate.candidates"]
    if L.get("io.rows"):
        L["io.rows_per_s"] = L["io.rows"] / L["io.read_s"]
    if L.get("claw.search_elems"):
        L["claw.ns_per_search_elem"] = L["claw.s"] / L["claw.search_elems"] * 1e9
    return L


# ---------------------------------------------------------------- main


def summarize(samples: list[dict], names: dict, per_layer: bool,
              pooled: dict[str, list[float]]) -> dict:
    """Median of each metric over the iterations, or over ``pooled``
    timings where a metric is timed several times per iteration."""
    metrics = {}
    for name, unit in names.items():
        values = [(s["layers"] if per_layer else s).get(name, 0.0) for s in samples]
        if name in pooled and not per_layer:
            values = pooled[name]
        med = float(statistics.median(values)) if values else 0.0
        metrics[name] = {"value": med, "unit": unit}
        if values:
            print(f"{name:28s} median {med:.6g} {unit}  max {max(values):.6g}  "
                  f"n={len(values)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "hawkesflow" / "cli.py").is_file():
        print(f"error: no hawkesflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = env_record()
    print("env", json.dumps(env))
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    chain = CHAINS[args.workload]
    if args.tiny:
        chain = Chain(**{**chain.__dict__, **TINY[args.workload]})
    samples, extra = measure_chain(chain, args.seed, args.seconds,
                                   bool(args.trace), args.tiny, work, ledger)
    if not samples:
        ledger.op("samples", ["no iteration completed"])
    metrics = summarize(samples, PER_LAYER if args.trace else END_TO_END,
                        bool(args.trace), extra["pooled"])
    failed = len(ledger.failures)
    result = {"correct": failed == 0, "attempted": ledger.attempted,
              "failed": failed, "metrics": metrics}
    inputs.write_json(work / "result.json", {**result, "env": env, "samples": samples,
                                            "failures": ledger.failures, **extra})
    for sub in ("iter", "traced", "inputs"):
        shutil.rmtree(work / sub, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
