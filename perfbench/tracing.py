"""Spans recorded around calls into the program's layers.

A span has a name, a start, an end and the span that was open when it
began.  Spans live in memory and are written out once, when the run ends.
Spans of one chain iteration share a trace identifier.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.trace_id = ""
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "trace": self.trace_id, "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def children(self, rec: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == rec["id"]]

    def total(self, name: str, within: dict) -> float:
        """Summed duration of the child spans of ``within`` called ``name``."""
        return sum(duration(s) for s in self.children(within) if s["name"] == name)

    def dump(self, path: Path, extra: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh, indent=1)
            fh.write("\n")


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


MIN_SAMPLES = 2


def more_iterations(done: int, elapsed: float, seconds: float,
                    at_least: int = MIN_SAMPLES) -> bool:
    """Start another measured iteration while the average one still fits in
    the measuring time; always run at least ``at_least``."""
    if done < at_least:
        return True
    return elapsed + elapsed / done <= seconds
