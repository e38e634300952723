"""Naive reference engines the tests compare production kernels against.

Each production kernel in ``repro.place``, ``repro.timing``,
``repro.core.lily`` and ``repro.match`` has exactly one code path.  The
straightforward implementations it must reproduce bit for bit live
here, outside the package: full-recompute annealing and detailed-swap
scoring and the string-keyed FM and global placer
(:mod:`oracles.place`), per-node heap-walk timing frontiers
(:mod:`oracles.timing`), Lily without the cross-cone net cache
(:mod:`oracles.lily`) and the recursive structural matcher
(:mod:`oracles.match`).  ``tests/`` is on ``sys.path`` (it holds the root
``conftest.py``), so test modules import them as ``oracles.<name>``.
"""
