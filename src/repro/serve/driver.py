"""Route the Table 1 / Table 2 drivers through a mapping service.

``repro.flow --server`` builds the same rows as
:func:`repro.flow.tables.run_table1` / ``run_table2`` but sources every
(circuit, flow, mode) cell from a :class:`~repro.serve.client.Client`.
Because the service is content-addressed, repeating a circuit within a
run — or re-running the suite against the same spill directory — pays
the mapping cost once and answers the rest from cache.

Payload numbers are bit-identical to the direct drivers' (same flows,
same defaults), so ``format_table1``/``format_table2`` render the served
rows unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.circuits.suite import TABLE1_CIRCUITS, TABLE2_CIRCUITS
from repro.flow.tables import TABLE2_WIRE_MODEL, Table1Row, Table2Row
from repro.serve.client import Client

__all__ = ["run_table1_served", "run_table2_served", "ServeJobFailed"]


class ServeJobFailed(RuntimeError):
    """Raised when the service answers a non-ok envelope for a table cell."""

    def __init__(self, circuit: str, flow: str, envelope: Dict[str, Any]):
        self.envelope = envelope
        super().__init__(
            f"{circuit}/{flow}: {envelope.get('status', 'error')}: "
            f"{envelope.get('error', 'no detail')}")


def _cell(client: Client, circuit: str, flow: str, mode: str, scale: float,
          verify: Union[bool, str], **options: Any) -> Dict[str, Any]:
    envelope = client.map_circuit(
        circuit, flow=flow, mode=mode, scale=scale, verify=verify, **options)
    if not envelope.get("ok"):
        raise ServeJobFailed(circuit, flow, envelope)
    return envelope["result"]


def run_table1_served(
    client: Client,
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    verify: Union[bool, str] = True,
    mapper: str = "tree",
) -> List[Table1Row]:
    """Table 1 rows with both flows served per circuit.

    ``mapper`` selects the MIS column's covering backend; the Lily cell
    is always tree-mapped (the serve layer rejects anything else).
    """
    rows: List[Table1Row] = []
    for name in circuits or TABLE1_CIRCUITS:
        mis = _cell(client, name, "mis", "area", scale, verify,
                    mapper=mapper)
        lily = _cell(client, name, "lily", "area", scale, verify)
        rows.append(Table1Row(
            name,
            mis["instance_area_mm2"], mis["chip_area_mm2"],
            mis["wire_length_mm"],
            lily["instance_area_mm2"], lily["chip_area_mm2"],
            lily["wire_length_mm"],
            mis["equivalent"], lily["equivalent"],
        ))
    return rows


def run_table2_served(
    client: Client,
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    verify: Union[bool, str] = True,
    mapper: str = "tree",
) -> List[Table2Row]:
    """Table 2 rows (1µ-scaled library + heavy wire model) served.

    The service names :func:`~repro.flow.tables.table2_library`
    ``big_1u``; the wire model is
    :data:`~repro.flow.tables.TABLE2_WIRE_MODEL`.
    """
    options = {"library": "big_1u",
               "wire_cap": [TABLE2_WIRE_MODEL.ch_per_um,
                            TABLE2_WIRE_MODEL.cv_per_um]}
    rows: List[Table2Row] = []
    for name in circuits or TABLE2_CIRCUITS:
        mis = _cell(client, name, "mis", "timing", scale, verify,
                    mapper=mapper, **options)
        lily = _cell(client, name, "lily", "timing", scale, verify, **options)
        rows.append(Table2Row(
            name,
            mis["instance_area_mm2"], mis["delay_ns"],
            lily["instance_area_mm2"], lily["delay_ns"],
            mis["equivalent"], lily["equivalent"],
        ))
    return rows
