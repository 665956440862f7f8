"""Order-flow event ingestion, reconstruction, binning and statistics."""

from .types import (
    BinningMode,
    BinningScheme,
    EventTable,
    EventType,
    FlowStatistics,
    MultivariateEventStream,
    RawRecord,
    RecordKind,
    Session,
    Side,
)
from .io import (
    load_binning_scheme,
    read_event_csv,
    read_snapshot_csv,
    save_binning_scheme,
    write_event_csv,
)
from .reconstruct import (
    ReconstructionDiagnostics,
    aggregate_simultaneous,
    reconstruct_orders,
)
from .stream import (
    assign_components,
    combine_streams,
    filter_session,
    randomize_timestamps,
)
from .stats import flow_statistics

__all__ = [
    "BinningMode", "BinningScheme", "EventTable", "EventType", "FlowStatistics",
    "MultivariateEventStream", "RawRecord", "RecordKind",
    "Session", "Side", "load_binning_scheme", "read_event_csv",
    "read_snapshot_csv", "save_binning_scheme",
    "write_event_csv", "ReconstructionDiagnostics", "aggregate_simultaneous",
    "reconstruct_orders", "assign_components", "combine_streams",
    "filter_session", "randomize_timestamps", "flow_statistics",
]
