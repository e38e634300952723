"""Determinism gate: one flow's payload hash must repeat, in and across
interpreters.

Runs one flow twice in this interpreter, each time on a freshly built
circuit, then once more in a fresh interpreter with a different
``PYTHONHASHSEED``, and hashes every deterministic job payload
(``repro.serve.jobs.build_payload``: mapped BLIF, gate positions, areas,
delay).  Any difference fails the gate: a result that leans on object
addresses or set/dict hash order shows up here.  A generated
``synth:SEED:GATES`` circuit makes the gate cover the Rent's-rule
workloads too.

The hash is printed so two checkouts can be compared on one host.  It
depends on the BLAS thread count (the placement solves run through
BLAS), so compare runs made with the same ``OPENBLAS_NUM_THREADS``.

Run from the repo root::

    PYTHONPATH=src python tools/flow_fingerprint.py synth:5:600
    PYTHONPATH=src python tools/flow_fingerprint.py synth:5:600 --mode timing
    PYTHONPATH=src python tools/flow_fingerprint.py misex1 --flow mis
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys


def payload_hash_of(circuit: str, flow: str, mode: str) -> str:
    """Map ``circuit`` once and hash the deterministic job payload."""
    from repro.circuits.suite import build_circuit
    from repro.library.standard import big_library
    from repro.serve.jobs import JobSpec, build_payload, payload_hash, run_flow

    spec = JobSpec.from_dict({"circuit": circuit, "flow": flow,
                              "mode": mode})
    result = run_flow(spec, build_circuit(circuit), big_library())
    return payload_hash(build_payload(spec, result))


def _fresh_interpreter_hash(circuit: str, flow: str, mode: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    script = (
        "import sys; sys.path.insert(0, {!r}); "
        "from flow_fingerprint import payload_hash_of; "
        "print(payload_hash_of(*sys.argv[1:]))"
    ).format(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, circuit, flow, mode],
        capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed:\n{proc.stderr}")
    return proc.stdout.strip()


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="flow_fingerprint")
    parser.add_argument("circuit", nargs="?", default="synth:5:600",
                        help="suite circuit or synth:SEED:GATES "
                             "(default synth:5:600)")
    parser.add_argument("--flow", choices=["lily", "mis"], default="lily")
    parser.add_argument("--mode", choices=["area", "timing"],
                        default="area")
    args = parser.parse_args(argv[1:])

    hashes = []
    for run in range(2):
        hashes.append(payload_hash_of(args.circuit, args.flow, args.mode))
        print(f"  in-process run {run + 1}   {hashes[-1][:16]}")
    hashes.append(_fresh_interpreter_hash(args.circuit, args.flow,
                                          args.mode))
    print(f"  fresh interpreter  {hashes[-1][:16]}")
    label = f"{args.circuit} ({args.flow} {args.mode})"
    if len(set(hashes)) != 1:
        print(f"flow fingerprint FAILED: {label} is not deterministic: "
              f"{sorted({h[:16] for h in hashes})}")
        return 1
    print(f"flow fingerprint ok: {label} repeats bit for bit "
          f"({hashes[0][:16]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
