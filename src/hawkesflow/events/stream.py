"""Building and transforming multivariate event streams."""

from __future__ import annotations

import math

import numpy as np

from .types import (
    BinningScheme,
    EventTable,
    MICROSECOND,
    MultivariateEventStream,
    Session,
)

__all__ = [
    "assign_components",
    "combine_streams",
    "randomize_timestamps",
    "filter_session",
]

# Tie-break step between equal integer timestamps within one component.
# Far below the feed's 10 us resolution yet, unlike finer steps, still
# resolvable in float64 seconds at end-of-session magnitudes (~5e4 s).
TIE_STEP_US = 2.0 ** -10


def _strict_within(t: np.ndarray, cap: float) -> np.ndarray:
    """Project sorted nonnegative times onto a strictly increasing array
    that ends at or below ``cap``.

    For such floats the next float up or down is the int64 bit pattern plus
    or minus one, so a forward running maximum nudges ties up by one ulp
    each, and a backward running minimum pulls values above ``cap`` down in
    strict order.  Adding 0.0 folds -0.0, whose pattern is negative, into
    0.0; the first value keeps its own pattern unless it is capped."""
    k = np.arange(len(t))
    bits = np.maximum.accumulate((t + 0.0).view(np.int64) - k) + k
    bits = np.minimum(bits, np.float64(cap).view(np.int64)) - k
    out = (np.minimum.accumulate(bits[::-1])[::-1] + k).view(np.float64)
    np.copyto(out[:1], t[:1], where=out[:1] == t[:1])
    return out


def _to_seconds(ts_us: np.ndarray) -> np.ndarray:
    """Integer microseconds to float seconds with tie perturbation."""
    t = ts_us.astype(float)
    if len(t) > 1:
        # k-th event of a tied run gets + k * TIE_STEP_US microseconds
        new_run = np.concatenate([[True], np.diff(t) != 0])
        run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(t)), 0))
        t = t + (np.arange(len(t)) - run_start) * TIE_STEP_US
    return t * MICROSECOND


def assign_components(table: EventTable, scheme: BinningScheme,
                      duration: float | None = None,
                      session_id: str = "session-0") -> MultivariateEventStream:
    """Route events to Hawkes components by type, side and volume bin.

    Trades-only schemes drop limit and cancel events.  ``duration`` is the
    session length in seconds; by default the last event time rounded up to
    the next whole second (1 s for an empty session).
    """
    comp = scheme.components(table)
    per_comp_us = [table.ts_us[comp == c] for c in range(scheme.dimension)]
    last = max((int(c[-1]) for c in per_comp_us if len(c)), default=0)
    if duration is None:
        duration = max(1.0, math.ceil(last * MICROSECOND))
    elif not (math.isfinite(duration) and duration > 0):
        raise ValueError(
            f"session duration must be finite and positive, got {duration}")
    elif last * MICROSECOND > duration:
        raise ValueError(
            f"events extend to {last * MICROSECOND} s beyond the declared "
            f"session duration {duration} s")
    # boundary events may overshoot the duration by their tie perturbation
    times = tuple(_strict_within(_to_seconds(c), duration) for c in per_comp_us)
    session = Session(session_id, float(duration), times)
    return MultivariateEventStream(scheme.dimension, (session,))


def combine_streams(streams: list[MultivariateEventStream]) -> MultivariateEventStream:
    if not streams:
        raise ValueError("no streams to combine")
    dim = streams[0].dimension
    sessions = []
    for s in streams:
        if s.dimension != dim:
            raise ValueError("streams have mismatched dimensions")
        sessions.extend(s.sessions)
    return MultivariateEventStream(dim, tuple(sessions))


def randomize_timestamps(stream: MultivariateEventStream, round_to_us: float,
                         jitter_width_us: float, seed: int) -> MultivariateEventStream:
    """Round each timestamp to the nearest ``round_to_us`` and subtract an
    independent uniform draw from ``[0, jitter_width_us)``.

    Deterministic given the seed.  Negative results are clamped to zero and
    counted in the session metadata.  Ties are nudged apart by one ulp, and
    results past the session end are pulled back to it in strict order.
    """
    if not 0 < round_to_us < np.inf:
        raise ValueError(f"round_to_us must be finite and positive, got {round_to_us}")
    if not 0 <= jitter_width_us < np.inf:
        raise ValueError("jitter_width_us must be finite and nonnegative, "
                         f"got {jitter_width_us}")
    rng = np.random.Generator(np.random.Philox(seed))
    sessions = []
    for sess in stream.sessions:
        clamped = 0
        new_times = []
        for t in sess.times:
            ts_us = t / MICROSECOND
            rounded = np.round(ts_us / round_to_us) * round_to_us
            if jitter_width_us > 0:
                rounded = rounded - rng.uniform(0.0, jitter_width_us, size=len(t))
            below = rounded < 0
            clamped += int(below.sum())
            rounded[below] = 0.0
            # rounding may tie events or carry them past the session end
            new_times.append(_strict_within(np.sort(rounded * MICROSECOND),
                                            sess.duration))
        meta = dict(sess.meta)
        meta.update(randomize_round_to_us=round_to_us,
                    randomize_jitter_us=jitter_width_us,
                    randomize_seed=seed, clamped=clamped)
        sessions.append(Session(sess.session_id, sess.duration,
                                tuple(new_times), meta))
    return MultivariateEventStream(stream.dimension, tuple(sessions))


def filter_session(stream: MultivariateEventStream, window_start: float,
                   window_end: float) -> MultivariateEventStream:
    """Keep events with times in ``[window_start, window_end)``, re-based to
    the window start; session durations become ``window_end - window_start``.
    """
    sessions = []
    for sess in stream.sessions:
        if not (0.0 <= window_start < window_end <= sess.duration):
            raise ValueError(
                f"window [{window_start}, {window_end}) outside session "
                f"[0, {sess.duration}]")
        new_times = tuple(
            t[(t >= window_start) & (t < window_end)] - window_start
            for t in sess.times
        )
        sessions.append(Session(sess.session_id, window_end - window_start,
                                new_times, dict(sess.meta)))
    return MultivariateEventStream(stream.dimension, tuple(sessions))
