"""Naive reference engines the tests compare production kernels against.

Each production kernel in ``repro.place``, ``repro.core.lily`` and
``repro.match`` has exactly one code path.  The straightforward
implementations it must reproduce bit for bit live here, outside the
package: full-recompute annealing and detailed-swap scoring and the
string-keyed FM and global placer (:mod:`oracles.place`), Lily without
the cross-cone net cache or bounded pricing, positioned and priced from
the Section 3.3–3.4 true fanouts, fan rectangles and wire cost, with
per-consumer delay loads (:mod:`oracles.lily`) and the recursive
structural matcher (:mod:`oracles.match`).  Timing's reference,
:mod:`repro.timing.sta`, stays in the package because ``repro.verify``
audits against it.  ``tests/`` is on ``sys.path`` (it holds the root
``conftest.py``), so test modules import them as ``oracles.<name>``.
"""
