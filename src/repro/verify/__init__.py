"""``repro.verify`` — equivalence proofs, invariant audits, fault injection.

The mapper's whole claim (Section 2) is that covering changes only *cost*,
never *function*.  This package machine-checks that claim and the
structural invariants every pipeline phase relies on:

* :mod:`repro.verify.equiv` — per-output-cone functional equivalence:
  exhaustive truth tables for small supports, seeded random vectors above;
* :mod:`repro.verify.invariants` — structural checkers for networks,
  subject graphs, mapped netlists, cone partitions, the
  egg/nestling/dove/hawk lifecycle, detailed placements and STA reports;
* :mod:`repro.verify.audit` — orchestration into ``fast``/``full`` tiers,
  wired into both flows via ``--verify`` and ``python -m repro.flow
  verify``;
* :mod:`repro.verify.faults` — deliberate corruptions proving each
  checker fires (see ``tests/verify/test_faults.py``).

Quick use::

    from repro.verify import audit_flow

    report = audit_flow(net, flow.map_result, flow.backend, level="full")
    report.raise_on_failure()
"""

from repro.verify.audit import (
    LEVELS,
    FlowArtifacts,
    audit,
    audit_flow,
    audit_mapping,
)
from repro.network.blif import po_port
from repro.verify.equiv import (
    EquivBudget,
    check_equivalence,
    cone_support,
    equivalent,
)
from repro.verify.faults import (
    FAULTS,
    FaultNotApplicable,
    FaultSpec,
    copy_artifacts,
    inject_fault,
)
from repro.verify.invariants import (
    check_cone_partition,
    check_cut_cover,
    check_lifecycle,
    check_mapped,
    check_network,
    check_placement,
    check_subject,
    check_timing,
)
from repro.verify.result import CheckResult, VerifyReport

__all__ = [
    "LEVELS",
    "FlowArtifacts",
    "audit",
    "audit_flow",
    "audit_mapping",
    "EquivBudget",
    "check_equivalence",
    "cone_support",
    "equivalent",
    "po_port",
    "FAULTS",
    "FaultNotApplicable",
    "FaultSpec",
    "copy_artifacts",
    "inject_fault",
    "check_cone_partition",
    "check_cut_cover",
    "check_lifecycle",
    "check_mapped",
    "check_network",
    "check_placement",
    "check_subject",
    "check_timing",
    "CheckResult",
    "VerifyReport",
]
