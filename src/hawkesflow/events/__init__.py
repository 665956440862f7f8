"""Order-flow event ingestion, reconstruction, binning and statistics."""

from .. import _lazy_exports

__all__, __getattr__ = _lazy_exports(__name__, {
    ".types": ("BinningMode", "BinningScheme", "EventTable", "EventType",
               "MultivariateEventStream", "Session", "Side"),
    ".io": ("load_binning_scheme", "read_event_csv", "save_binning_scheme",
            "write_event_csv"),
    ".reconstruct": ("RawRecord", "RecordKind", "ReconstructionDiagnostics",
                     "aggregate_simultaneous", "read_snapshot_csv",
                     "reconstruct_orders"),
    ".stream": ("assign_components", "combine_streams", "filter_session",
                "randomize_timestamps"),
    ".stats": ("FlowStatistics", "flow_statistics"),
})
