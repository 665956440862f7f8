"""Order-flow event ingestion, reconstruction, binning and statistics."""

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    ".types": ("BinningMode", "BinningScheme", "EventTable", "EventType",
               "FlowStatistics", "MultivariateEventStream", "RawRecord",
               "RecordKind", "Session", "Side"),
    ".io": ("load_binning_scheme", "read_event_csv", "read_snapshot_csv",
            "save_binning_scheme", "write_event_csv"),
    ".reconstruct": ("ReconstructionDiagnostics", "aggregate_simultaneous",
                     "reconstruct_orders"),
    ".stream": ("assign_components", "combine_streams", "filter_session",
                "randomize_timestamps"),
    ".stats": ("flow_statistics",),
})
