"""SVG visualisation of routed layouts.

Pure-string SVG generation (no rendering dependencies): a full layout
view of a routed design — cell rows, gate outlines, routing channels
shaded by track count, pads on the boundary and optional net traces.
Used by the report CLI and the examples.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.geometry import Point, Rect

__all__ = ["layout_svg"]

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}" '
    'width="{w}" height="{h}">'
)


def _scale(region: Rect, target: float) -> float:
    extent = max(region.width, region.height, 1e-9)
    return target / extent


def layout_svg(
    routed,
    pad_positions: Optional[Dict[str, Point]] = None,
    show_nets: bool = False,
    target_size: float = 720.0,
) -> str:
    """Full layout view of a :class:`~repro.route.global_route.RoutedDesign`.

    Rows are drawn as light bands, gates as outlined boxes, channels shaded
    with intensity proportional to their track count; pads appear on the
    boundary, and ``show_nets`` overlays trunk lines.
    """
    placement = routed.placement
    region = Rect(0.0, 0.0, max(routed.chip_width, 1.0),
                  max(routed.chip_height, 1.0))
    s = _scale(region, target_size)
    width = region.width * s
    height = region.height * s

    def sx(x: float) -> float:
        return x * s

    def sy(y: float) -> float:
        return height - y * s

    parts = [
        _HEADER.format(vb=f"0 0 {width:.1f} {height:.1f}",
                       w=f"{width:.0f}", h=f"{height:.0f}"),
        f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" '
        'fill="#fcfcf8" stroke="#444"/>',
    ]

    # Channels (shaded by congestion), walked bottom-up alongside rows.
    max_tracks = max((c.num_tracks for c in routed.channels), default=0)
    y = 0.0
    for index, channel_height in enumerate(routed.channel_heights):
        tracks = routed.channels[index].num_tracks
        intensity = 0.08 + 0.5 * (tracks / max_tracks if max_tracks else 0)
        parts.append(
            f'<rect x="0" y="{sy(y + channel_height):.1f}" '
            f'width="{width:.1f}" height="{channel_height * s:.1f}" '
            f'fill="#d77" opacity="{intensity:.2f}">'
            f'<title>channel {index}: {tracks} tracks</title></rect>'
        )
        y += channel_height
        if index < placement.num_rows:
            row = placement.rows[index]
            parts.append(
                f'<rect x="0" y="{sy(y + placement.cell_height):.1f}" '
                f'width="{width:.1f}" '
                f'height="{placement.cell_height * s:.1f}" '
                'fill="#dde8dd" stroke="#9a9" stroke-width="0.5"/>'
            )
            for cell in row.cells:
                lo, hi = row.x_spans[cell]
                parts.append(
                    f'<rect x="{sx(lo):.1f}" '
                    f'y="{sy(y + placement.cell_height):.1f}" '
                    f'width="{(hi - lo) * s:.1f}" '
                    f'height="{placement.cell_height * s:.1f}" '
                    'fill="#8ab" stroke="#245" stroke-width="0.5" '
                    f'opacity="0.85"><title>{cell}</title></rect>'
                )
            y += placement.cell_height

    if show_nets:
        for name, length in sorted(routed.net_lengths.items()):
            # Trunk-only trace: horizontal line at the driver row height.
            p = placement.positions.get(name)
            if p is None:
                continue
            parts.append(
                f'<line x1="{sx(p.x) - 8:.1f}" y1="{sy(p.y):.1f}" '
                f'x2="{sx(p.x) + 8:.1f}" y2="{sy(p.y):.1f}" '
                f'stroke="#b60" stroke-width="0.7" opacity="0.6">'
                f'<title>{name}: {length:.0f} um</title></line>'
            )

    for name, p in sorted((pad_positions or {}).items()):
        px = min(max(p.x, 0.0), region.ux)
        py = min(max(p.y, 0.0), region.uy)
        parts.append(
            f'<rect x="{sx(px) - 3:.1f}" y="{sy(py) - 3:.1f}" width="6" '
            f'height="6" fill="#b43"><title>{name}</title></rect>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
