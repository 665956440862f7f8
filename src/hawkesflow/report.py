"""Machine-readable presentation artifacts: norm tables, kernel and
conditional-law curves, flow histograms.

Everything is CSV plus one JSON manifest per bundle; numbers are printed in
shortest round-trip form so emitted files are lossless and diff-stable.
No images are rendered here: these files feed whatever plotting tool sits
downstream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._jsonio import write_json
from ._tables import float_cells, int_cells, text_cells, write_matrix_csv, write_table
from .estimate import ConditionalLawMatrix, write_law_curves
from .events.stats import FlowStatistics
from .events.types import BinningScheme
from .whsolve import KernelEstimate, write_norm_tables

__all__ = [
    "ReportBundle",
    "write_matrix_csv",
    "emit_norm_tables",
    "emit_kernel_curves",
    "emit_claw_curves",
    "emit_flow_report",
    "write_manifest",
]


@dataclass
class ReportBundle:
    """Accumulates emitted files; ``finalize`` writes the manifest."""

    out_dir: Path
    metadata: dict = field(default_factory=dict)
    files: list[Path] = field(default_factory=list)

    def add(self, paths) -> None:
        self.files.extend(Path(p) for p in paths)

    def finalize(self) -> Path:
        return write_manifest(self.out_dir, self.files, self.metadata)


def write_manifest(out_dir, files, metadata: dict) -> Path:
    out_dir = Path(out_dir)
    entries = []
    for p in sorted(set(Path(f) for f in files)):
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        entries.append({"file": p.name, "sha256": digest})
    manifest = {"metadata": metadata, "files": entries}
    path = out_dir / "report_manifest.json"
    write_json(path, manifest, sort_keys=True)
    return path


def emit_norm_tables(est: KernelEstimate, labels: list[str], out_dir,
                     scheme: BinningScheme | None = None) -> list[Path]:
    """Labeled norm and rescaled-norm tables, plus per-quadrant extracts
    (target side x source side) for signed and full-book schemes."""
    d = est.dimension
    if len(labels) != d:
        raise ValueError(f"{len(labels)} labels for dimension {d}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = write_norm_tables(est, labels, out_dir)
    blocks = scheme.side_blocks() if scheme is not None else None
    if blocks:
        for tgt_name, tgt_idx in blocks.items():
            for src_name, src_idx in blocks.items():
                sub = est.norms[np.ix_(tgt_idx, src_idx)]
                sub_resc = est.rescaled[np.ix_(tgt_idx, src_idx)]
                rows = [labels[i] for i in tgt_idx]
                cols = [labels[j] for j in src_idx]
                for prefix, m in (("norms", sub), ("rescaled_norms", sub_resc)):
                    path = out_dir / f"{prefix}_{tgt_name}_{src_name}.csv"
                    write_matrix_csv(path, m, rows, cols)
                    written.append(path)
    return written


def _curve_targets(prefix: str, what: str, selection, d: int,
                   labels: list[str] | None, out_dir):
    """``(i, j, path)`` of each selected pair; a pair outside the dimension
    raises when it is reached, after the pairs before it were written."""
    labels = labels or [str(i) for i in range(d)]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, j in selection:
        if not (0 <= i < d and 0 <= j < d):
            raise IndexError(f"{what} index ({i}, {j}) outside dimension {d}")
        yield i, j, out_dir / f"{prefix}_curve_{labels[i]}_from_{labels[j]}.csv"


def emit_kernel_curves(est: KernelEstimate, selection: list[tuple[int, int]],
                       out_dir, labels: list[str] | None = None) -> list[Path]:
    """Per-pair kernel curves ``node, phi, stderr`` for log-axis plotting."""
    nodes = float_cells(est.quad.nodes)
    no_stderr = ["0.0"] * len(nodes)
    written = []
    for i, j, path in _curve_targets("kernel", "kernel", selection, est.dimension,
                                     labels, out_dir):
        sd = no_stderr if est.stderr is None else float_cells(est.stderr[i, j])
        write_table(path, ["node", "phi", "stderr"],
                    [nodes, float_cells(est.values[i, j]), sd])
        written.append(path)
    return written


def emit_claw_curves(claw: ConditionalLawMatrix,
                     selection: list[tuple[int, int]], out_dir,
                     labels: list[str] | None = None) -> list[Path]:
    """Per-pair conditional-law curves with error bars and pair counts."""
    return write_law_curves(claw, _curve_targets("claw", "law", selection,
                                                 claw.dimension, labels, out_dir))


def emit_flow_report(stats: FlowStatistics, out_dir,
                     labels: list[str] | None = None) -> list[Path]:
    """Duration histograms, signed volume histogram, autocorrelations and a
    per-component count summary with percentage fractions."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = len(stats.mean_intensity)
    labels = labels or [str(i) for i in range(d)]
    written = []

    path = out_dir / "duration_histogram.csv"
    edges = float_cells(stats.duration_edges)
    write_table(path, ["bin_left", "bin_right", "pooled"] + list(labels),
                [edges[:-1], edges[1:], int_cells(stats.pooled_duration_counts)]
                + [int_cells(stats.duration_counts[i]) for i in range(d)])
    written.append(path)

    # Table-style summary: events per component and their share of the total.
    total = int(stats.event_counts.sum())
    frac = 100.0 * stats.event_counts / total if total else np.zeros(d)
    path = out_dir / "component_summary.csv"
    write_table(path, ["component", "events", "fraction_pct", "mean_intensity"],
                [text_cells(labels), int_cells(stats.event_counts), float_cells(frac),
                 float_cells(stats.mean_intensity)])
    written.append(path)

    if stats.volume_histogram is not None:
        path = out_dir / "volume_histogram.csv"
        write_table(path, ["signed_volume", "count"],
                    [list(map(str, stats.volume_histogram)),
                     list(map(str, stats.volume_histogram.values()))])
        written.append(path)

    if stats.sign_autocorr is not None:
        path = out_dir / "trade_autocorrelation.csv"
        lags = list(map(str, range(len(stats.sign_autocorr))))
        write_table(path, ["lag", "sign_autocorr", "volume_autocorr"],
                    [lags, float_cells(stats.sign_autocorr),
                     float_cells(stats.volume_autocorr)])
        written.append(path)
    return written
