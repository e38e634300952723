"""Left-edge channel routing (the YACR stand-in of the back-end flow).

Each routing channel between standard-cell rows receives a set of
horizontal net intervals.  The classic left-edge algorithm assigns
intervals to tracks greedily: intervals sorted by left end, each placed on
the first track whose last interval ends before it starts.  Without
vertical constraints (we route trunks only; branches are vertical stubs)
the track count equals the channel density, which is optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = ["ChannelResult", "left_edge_route", "channel_density"]

#: Minimum spacing treated as overlap when packing tracks.
_EPS = 1e-9


@dataclass
class ChannelResult:
    """Track assignment for one channel."""

    #: net name -> track index (0 = bottom track).
    track_of: Dict[str, int] = field(default_factory=dict)
    num_tracks: int = 0
    density: int = 0


def channel_density(intervals: Sequence[Tuple[float, float]]) -> int:
    """Maximum number of intervals crossing any vertical line."""
    events: List[Tuple[float, int]] = []
    for lo, hi in intervals:
        if hi < lo:
            lo, hi = hi, lo
        events.append((lo, 1))
        events.append((hi, -1))
    # Ends sort before starts at the same coordinate: touching intervals
    # can share a track.
    events.sort(key=lambda e: (e[0], e[1]))
    depth = 0
    density = 0
    for _x, delta in events:
        depth += delta
        density = max(density, depth)
    return density


def left_edge_route(
    intervals: Dict[str, Tuple[float, float]]
) -> ChannelResult:
    """Assign each net interval to a track with the left-edge algorithm.

    Zero-length intervals (a point connection with no horizontal span)
    need no track and are skipped.
    """
    intervals = {
        name: (min(span), max(span))
        for name, span in intervals.items()
        if abs(span[1] - span[0]) > _EPS
    }
    result = ChannelResult()
    result.density = channel_density(list(intervals.values()))
    ordered = sorted(
        intervals.items(), key=lambda item: (item[1][0], item[1][1], item[0])
    )
    track_ends: List[float] = []
    for name, (lo, hi) in ordered:
        placed = False
        for track_index, end in enumerate(track_ends):
            if end <= lo + _EPS:
                result.track_of[name] = track_index
                track_ends[track_index] = hi
                placed = True
                break
        if not placed:
            result.track_of[name] = len(track_ends)
            track_ends.append(hi)
    result.num_tracks = len(track_ends)
    return result
