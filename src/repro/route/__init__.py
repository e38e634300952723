"""Routing substrate: wire-length estimation (half-perimeter with the
Chung–Hwang Steiner correction, rectilinear spanning trees), a left-edge
channel router, and the row-based global router that turns a detailed
placement into channel assignments, track counts, routed net lengths and
the final chip area."""

from repro.route.wirelength import chung_hwang_factor, hpwl
from repro.route.spanning import rectilinear_mst_length, rectilinear_mst_edges
from repro.route.channel import ChannelResult, left_edge_route, channel_density
from repro.route.global_route import RoutedDesign, route_design

__all__ = [
    "chung_hwang_factor",
    "hpwl",
    "rectilinear_mst_length",
    "rectilinear_mst_edges",
    "ChannelResult",
    "left_edge_route",
    "channel_density",
    "RoutedDesign",
    "route_design",
]
