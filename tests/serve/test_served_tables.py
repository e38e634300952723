"""The served table drivers against the direct ones (bit-identity)."""

from __future__ import annotations

from repro.flow.tables import run_table2
from repro.serve.client import Client
from repro.serve.driver import run_table2_served


def test_served_table2_row_equals_direct_row():
    """Same flows, same library and wire model: every field of the
    served ``misex1`` row equals the direct driver's, float for float."""
    direct = run_table2(["misex1"], verify=False)
    with Client.in_process(workers=1) as client:
        served = run_table2_served(client, ["misex1"], verify=False)
    assert served == direct
