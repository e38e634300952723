"""Row-based global routing + channel assembly (the back-end of Section 5).

Every net is routed trunk-and-branch over the standard-cell image: one
horizontal trunk in a routing channel (chosen as the median of the
channels its pins prefer), vertical branches from each pin to the trunk.
Per channel, the trunk intervals are packed into tracks by the left-edge
router; channel heights follow from the track counts, rows are re-stacked,
and the final chip dimensions and routed wirelength fall out.

This substitutes for the paper's TimberWolf global router + YACR detailed
router: it consumes the same inputs and produces the same two quantities
the experiments report — final chip area and total interconnect length —
with the same qualitative congestion behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.geometry import Point
from repro.map.netlist import MappedNetwork
from repro.obs import OBS
from repro.place.detailed import DetailedPlacement
from repro.route.channel import ChannelResult, left_edge_route

__all__ = ["RoutedDesign", "route_design"]

#: Routing track pitch, µm (wire width + spacing, 3µ-era metal).
DEFAULT_TRACK_PITCH = 8.0
#: Base channel height even when empty (power rails / spacing), µm.
CHANNEL_MARGIN = 8.0


@dataclass
class RoutedDesign:
    """Outcome of global + channel routing."""

    placement: DetailedPlacement
    channels: List[ChannelResult]
    channel_heights: List[float]
    net_lengths: Dict[str, float] = field(default_factory=dict)
    chip_width: float = 0.0
    chip_height: float = 0.0

    @property
    def chip_area(self) -> float:
        """Bounding die area: rows plus the expanded channels."""
        return self.chip_width * self.chip_height

    @property
    def total_wire_length(self) -> float:
        """Sum of the per-net estimated route lengths."""
        return sum(self.net_lengths.values())

    @property
    def total_tracks(self) -> int:
        """Total routing tracks allocated across every channel."""
        return sum(c.num_tracks for c in self.channels)


def _pad_channel(position: Point, num_rows: int, row_pitch: float) -> int:
    """Channel a boundary pad naturally enters (0 .. num_rows)."""
    if row_pitch <= 0:
        return 0
    channel = round(position.y / row_pitch)
    return min(max(channel, 0), num_rows)


def _gate_rows(placement: DetailedPlacement) -> Dict[str, int]:
    """Gate name -> row index, built once (first row wins, as the old
    per-gate linear scan resolved duplicates)."""
    rows: Dict[str, int] = {}
    for row in placement.rows:
        for name in row.x_spans:
            rows.setdefault(name, row.index)
    return rows


def route_design(
    mapped: MappedNetwork,
    placement: DetailedPlacement,
    pad_positions: Dict[str, Point],
    track_pitch: float = DEFAULT_TRACK_PITCH,
) -> RoutedDesign:
    """Globally route a placed mapped netlist and assemble the chip.

    Args:
        mapped: the mapped netlist (gives the nets).
        placement: detailed (row) placement of its gates.
        pad_positions: boundary positions for every PI/PO name.
        track_pitch: channel track pitch in µm.

    Returns:
        The routed design with channel tracks, per-net routed lengths and
        final chip dimensions.
    """
    with OBS.span("route.global", rows=placement.num_rows):
        design = _route_design(
            mapped, placement, pad_positions, track_pitch)
    if OBS.enabled:
        OBS.metrics.counter("route.nets_routed").inc(len(design.net_lengths))
        OBS.metrics.counter("route.channels").inc(len(design.channels))
        OBS.metrics.gauge("route.total_tracks").set(design.total_tracks)
    return design


def _route_design(
    mapped: MappedNetwork,
    placement: DetailedPlacement,
    pad_positions: Dict[str, Point],
    track_pitch: float,
) -> RoutedDesign:
    num_rows = placement.num_rows
    row_pitch = placement.cell_height + placement.channel_height_guess
    num_channels = num_rows + 1

    # Phase 1: choose a trunk channel and interval per net.
    gate_rows = _gate_rows(placement)
    trunk_channel: Dict[str, int] = {}
    trunk_interval: Dict[str, Tuple[float, float]] = {}
    nets = [n for n in mapped.nets() if not n.driver.is_constant]
    for net in nets:
        pins: List[Tuple[Point, int]] = []
        for node in [net.driver] + [sink for sink, _pin in net.sinks]:
            if node.is_gate:
                row = gate_rows.get(node.name)
                if row is None:
                    continue
                p = placement.positions[node.name]
                pins.append((p, row))  # gates prefer the channel below
            else:
                p = pad_positions.get(node.name)
                if p is None:
                    continue
                pins.append((p, _pad_channel(p, num_rows, row_pitch)))
        if len(pins) < 2:
            continue
        prefs = sorted(c for _p, c in pins)
        channel = prefs[len(prefs) // 2]
        xs = [p.x for p, _c in pins]
        trunk_channel[net.name] = channel
        trunk_interval[net.name] = (min(xs), max(xs))

    # Phase 2: left-edge route each channel.
    channels: List[ChannelResult] = []
    channel_heights: List[float] = []
    for channel_index in range(num_channels):
        intervals = {
            name: trunk_interval[name]
            for name, c in trunk_channel.items()
            if c == channel_index and trunk_interval[name][1] - trunk_interval[name][0] > 1e-9
        }
        result = left_edge_route(intervals)
        channels.append(result)
        channel_heights.append(CHANNEL_MARGIN + result.num_tracks * track_pitch)

    # Phase 3: re-stack rows with the routed channel heights.
    final_placement = placement.with_channel_heights(channel_heights)
    channel_y = _channel_centerlines(final_placement, channel_heights)

    # Phase 4: routed length per net = trunk span + vertical branches,
    # measured against the final (re-stacked) gate positions.
    net_lengths = _recompute_lengths(
        mapped, final_placement, pad_positions, trunk_channel,
        trunk_interval, channel_y,
    )

    chip_width = max(
        [final_placement.core_width]
        + [hi for lo, hi in trunk_interval.values()]
        + [1.0]
    )
    chip_height = (
        sum(channel_heights) + num_rows * placement.cell_height
    )
    return RoutedDesign(
        final_placement,
        channels,
        channel_heights,
        net_lengths,
        chip_width,
        chip_height,
    )


def _channel_centerlines(
    placement: DetailedPlacement, channel_heights: Sequence[float]
) -> List[float]:
    """y of each channel's centre after re-stacking."""
    ys: List[float] = []
    y = 0.0
    for index, height in enumerate(channel_heights):
        ys.append(y + height / 2.0)
        y += height
        if index < placement.num_rows:
            y += placement.cell_height
    return ys


def _recompute_lengths(
    mapped: MappedNetwork,
    placement: DetailedPlacement,
    pad_positions: Dict[str, Point],
    trunk_channel: Dict[str, int],
    trunk_interval: Dict[str, Tuple[float, float]],
    channel_y: List[float],
) -> Dict[str, float]:
    """Routed length per net: trunk span plus one vertical branch per pin.

    Each net's stream is ``[trunk span, |y - trunk_y| per located pin]``
    and the ordered segment sum accumulates it left to right, so every
    length is bitwise-equal to a per-net ``+=`` loop over the same terms.
    """
    import numpy as np

    from repro.perf.vec import segment_sum_ordered

    names: List[str] = []
    vals: List[float] = []
    offs: List[int] = [0]
    get_gate = placement.positions.get
    get_pad = pad_positions.get
    for net in mapped.nets():
        name = net.driver.name
        if name not in trunk_channel:
            continue
        trunk_y = channel_y[trunk_channel[name]]
        lo, hi = trunk_interval[name]
        vals.append(hi - lo)
        for node in [net.driver] + [sink for sink, _pin in net.sinks]:
            p = get_gate(node.name) if node.is_gate else get_pad(node.name)
            if p is None:
                continue
            vals.append(abs(p.y - trunk_y))
        offs.append(len(vals))
        names.append(name)
    sums = segment_sum_ordered(
        np.asarray(vals, dtype=np.float64),
        np.asarray(offs, dtype=np.int64),
    ).tolist()
    return dict(zip(names, sums))
