"""Self-tests of the benchmark, on shortened (``quick``) workloads.

Run from the repository root::

    python3 -m pytest -q perfbench

* a slowed layer is charged to that layer's self time, and only to it;
* seeds: a held-out seed runs without failures, and one seed repeats its
  QoR bit for bit, in one process and across launcher processes;
* the launcher's output follows ``BENCHMARK.json``, and it fails without
  printing a result where there is no program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from repro.circuits.suite import build_circuit  # noqa: E402
from repro.map.cuts import CutMapper  # noqa: E402
from repro.network.simulate import networks_equivalent  # noqa: E402
from repro.place.global_place import GlobalPlacer  # noqa: E402

from perfbench import layers, workloads  # noqa: E402

HELD_OUT_SEED = 7
#: Long against the host's run-to-run noise on the layers of a quick pass.
DELAY_S = 2.0


def _traced_pass(workload):
    passes, clock, _ = workloads.traced(workload, seconds=0)
    (run,) = passes
    assert run.failed == 0, run.problems
    self_s = dict(clock.self_s)
    self_s["flow.self"] = run.wall_s - sum(clock.self_s.values())
    return run.wall_s, self_s, clock.calls


@pytest.mark.parametrize("name, owner, attr, layer", [
    ("layout", GlobalPlacer, "place", "place.global"),
    ("synth_cover", CutMapper, "map", "map.cuts"),
])
def test_slowed_layer_is_charged_to_that_layer_only(monkeypatch, name,
                                                     owner, attr, layer):
    workload = workloads.WORKLOADS[name](HELD_OUT_SEED, quick=True)
    _traced_pass(workload)  # warm the process-wide caches
    base_wall, base, _ = _traced_pass(workload)

    original = owner.__dict__[attr]

    def slowed(*args, **kwargs):
        time.sleep(DELAY_S)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, slowed)
    slow_wall, slow, calls = _traced_pass(workload)

    added = calls[layer] * DELAY_S
    assert calls[layer] >= 1
    assert slow[layer] - base[layer] == pytest.approx(added, rel=0.25)
    for other in base:
        if other != layer:
            assert abs(slow[other] - base[other]) < 0.25 * added, other
    assert slow_wall - base_wall == pytest.approx(added, rel=0.4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_held_out_seed_has_no_failures_and_repeats_qor(name):
    first = workloads.WORKLOADS[name](HELD_OUT_SEED, quick=True)
    second = workloads.WORKLOADS[name](HELD_OUT_SEED, quick=True)
    runs = [workloads.measure(w, seconds=0)[0] for w in (first, second)]
    for run in runs:
        assert run.attempted >= 1
        assert run.failed == 0, run.problems
    assert runs[0].qor == runs[1].qor
    assert all(value > 0 for value in runs[0].qor.values())


def _declared(net):
    return [(n.name, [f.name for f in n.fanins]) for n in net.nodes]


def test_seeds_reorder_the_suite_circuits_without_changing_them():
    for name in workloads.PAPER_CIRCUITS:
        suite = build_circuit(name)
        assert _declared(workloads.suite_circuit(
            name, workloads.DEFAULT_SEED)) == _declared(suite)
        shuffled = workloads.suite_circuit(name, HELD_OUT_SEED)
        assert _declared(shuffled) != _declared(suite)
        assert sorted(_declared(shuffled)) == sorted(_declared(suite))
        assert networks_equivalent(shuffled, suite)


def test_benchmark_definition_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for group, table in (("end_to_end", workloads.END_TO_END_METRICS),
                         ("per_layer", layers.PER_LAYER_METRICS)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[group]} \
            == table
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _launch(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "layout",
         "--seed", str(HELD_OUT_SEED), "--seconds", "0", "--quick", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def test_launcher_output_follows_the_benchmark_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    results = []
    for trace, group in (("0", "end_to_end"), ("0", "end_to_end"),
                         ("1", "per_layer")):
        proc = _launch(ROOT, "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        env_line, result_line = proc.stdout.splitlines()[-2:]
        assert json.loads(env_line)["env"]["threads"][
            "OPENBLAS_NUM_THREADS"] == "1"
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[group]}
        units = {m["name"]: m["unit"] for m in spec[group]}
        for metric, reading in result["metrics"].items():
            assert reading["unit"] == units[metric]
        results.append(result)
    # Two launcher processes at one seed: the QoR repeats bit for bit.
    for metric in workloads.QOR:
        assert results[0]["metrics"][metric] == results[1]["metrics"][metric]


def test_launcher_fails_without_a_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _launch(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
