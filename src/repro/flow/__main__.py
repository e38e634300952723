"""Command-line driver.

Commands:
    table1                regenerate Table 1 (area mode)
    table2                regenerate Table 2 (delay mode)
    report <circuit>      detailed MIS-vs-Lily report for one circuit
                          (``--svg out.svg`` also writes the Lily layout)
    verify <circuit>      run both flows under the ``repro.verify`` audit
                          and print the full checker report and the
                          process's peak RSS
"""

from __future__ import annotations

import argparse
import sys

from repro.flow.tables import (
    format_table1,
    format_table2,
    run_table1,
    run_table2,
)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(prog="repro.flow")
    parser.add_argument("command",
                        choices=["table1", "table2", "report", "verify"])
    parser.add_argument("circuits", nargs="*",
                        help="circuit names (default: full table)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size scale for the synthetic circuits")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip equivalence checking (faster)")
    parser.add_argument("--verify", choices=["fast", "full"], default=None,
                        dest="verify_level", metavar="LEVEL",
                        help="run the repro.verify audit at LEVEL "
                             "(fast|full) instead of the plain "
                             "equivalence check")
    parser.add_argument("--mode", choices=["area", "timing"], default="area",
                        help="pipeline mode for 'report'")
    parser.add_argument("--mapper", default="tree", metavar="SPEC",
                        help="covering backend for the MIS pipeline: "
                             "tree (the paper's dynamic-programming tree "
                             "mapper, default), cuts (priority-cut "
                             "enumeration + NPN boolean matching), fusion "
                             "(best of tree/cuts per output cone, unless "
                             "one is better on the whole netlist), or "
                             "lut:K (FPGA-style K-input LUT covering)")
    parser.add_argument("--svg", default=None,
                        help="write the Lily layout as SVG (report only)")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-phase time/counter breakdown "
                             "(report: per flow; table1/table2: one "
                             "profile merged over every circuit)")
    parser.add_argument("--trace", default=None, metavar="OUT.JSON",
                        help="write a Chrome trace_event JSON file loadable "
                             "in chrome://tracing or Perfetto (report only)")
    parser.add_argument("--procs", type=int, default=1, metavar="N",
                        help="worker processes for table1/table2: circuits "
                             "fan out over a process pool, one MIS+Lily "
                             "pair per worker (default 1: sequential; rows "
                             "are identical for any N)")
    parser.add_argument("--server", action="store_true",
                        help="route table1/table2 through an in-process "
                             "repro.serve service: warm shared library/"
                             "pattern state plus a content-addressed result "
                             "cache, so repeated circuits (and repeated "
                             "runs with --server-spill) map once")
    parser.add_argument("--server-spill", default=None, metavar="DIR",
                        help="spill the serve result cache to DIR so "
                             "back-to-back CLI runs share it "
                             "(implies --server)")
    parser.add_argument("--cluster", type=int, default=None, metavar="N",
                        help="shard the serve backend: an N-shard "
                             "consistent-hash ClusterRouter with a shared "
                             "spill tier instead of one server (implies "
                             "--server; --procs workers per shard)")
    args = parser.parse_args(argv)

    from repro.map.cuts import MapperSpecError, parse_mapper_spec

    circuits = args.circuits or None
    _check_circuits(args.circuits)
    try:
        parse_mapper_spec(args.mapper)
    except MapperSpecError as exc:
        raise SystemExit(str(exc))
    if args.no_verify and args.verify_level:
        raise SystemExit("--no-verify and --verify are mutually exclusive")
    if args.procs > 1 and (args.svg or args.trace):
        # Span trees live in the worker processes; only aggregated
        # ObsReports come back, so a single Chrome trace (or the report
        # command's SVG) cannot be assembled across the pool.
        raise SystemExit("--procs is incompatible with --svg/--trace")
    verify = False if args.no_verify else (args.verify_level or True)
    if args.server_spill or args.cluster is not None:
        args.server = True
    if args.cluster is not None and args.cluster < 1:
        raise SystemExit("--cluster expects a shard count >= 1")
    if args.server and args.command not in ("table1", "table2"):
        raise SystemExit("--server only applies to table1/table2")
    if args.command in ("table1", "table2"):
        if args.server:
            return _tables_served(args, circuits, verify)
        return _tables(args, circuits, verify)
    if args.command == "verify":
        return _verify(args)
    _report(args, verify)
    return 0


def _check_circuits(names) -> None:
    """Exit with a one-line error unless every circuit name is valid.

    Runs once, before any flow: a suite name must be known and a
    ``synth:SEED:GATES`` spec well formed (see
    :func:`repro.circuits.suite.build_circuit`).
    """
    from repro.circuits.suite import SUITE
    from repro.circuits.synth import parse_synth_spec

    problems, unknown = [], []
    for name in names:
        if name.startswith("synth:"):
            try:
                parse_synth_spec(name[len("synth:"):])
            except ValueError as exc:
                problems.append(f"malformed circuit spec {name!r} ({exc})")
        elif name not in SUITE:
            unknown.append(name)
    if unknown:
        problems.append(
            f"unknown circuit(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(SUITE))} or synth:SEED:GATES)")
    if problems:
        raise SystemExit("; ".join(problems))


def _tables(args, circuits, verify) -> int:
    """The ``table1`` / ``table2`` commands (optionally process-parallel)."""
    from repro.obs import OBS, merge_reports

    obs_out = [] if args.profile else None
    observing = args.profile and args.procs <= 1
    if observing:
        # Sequential runs record in this process; workers bring their own
        # sessions (see flow.tables._circuit_in_worker).
        OBS.enable()
    try:
        if args.command == "table1":
            rows = run_table1(circuits, scale=args.scale, verify=verify,
                              procs=args.procs, obs_out=obs_out,
                              mapper=args.mapper)
            print(format_table1(rows))
        else:
            rows = run_table2(circuits, scale=args.scale, verify=verify,
                              procs=args.procs, obs_out=obs_out,
                              mapper=args.mapper)
            print(format_table2(rows))
    finally:
        if observing:
            OBS.disable()
    if obs_out:
        merged = merge_reports(obs_out)
        print()
        print(merged.format_table())
    return 0


def _tables_served(args, circuits, verify) -> int:
    """``table1``/``table2`` with every cell answered by ``repro.serve``.

    The service holds the warm library/pattern state and a
    content-addressed result cache (optionally spilled to
    ``--server-spill DIR``, which back-to-back CLI invocations share).
    A cache-statistics line follows the table so hits are visible.
    """
    from repro.obs import OBS
    from repro.serve import Client, ServerConfig
    from repro.serve.driver import run_table1_served, run_table2_served

    if args.cluster is not None:
        from repro.serve.cluster import ClusterConfig, ClusterRouter

        backend = ClusterRouter(ClusterConfig(
            shards=args.cluster, workers=max(1, args.procs),
            spill_dir=args.server_spill))
        client_cm = Client.wrap(backend)
    else:
        client_cm = Client.in_process(ServerConfig(
            workers=max(1, args.procs), spill_dir=args.server_spill))
    if args.profile:
        OBS.enable()
    try:
        with client_cm as client:
            if args.command == "table1":
                rows = run_table1_served(client, circuits, scale=args.scale,
                                         verify=verify, mapper=args.mapper)
                print(format_table1(rows))
            else:
                rows = run_table2_served(client, circuits, scale=args.scale,
                                         verify=verify, mapper=args.mapper)
                print(format_table2(rows))
            stats = client.stats()
            cache = stats["cache"]
            print(f"serve: {stats['counters']['jobs']} jobs, "
                  f"{cache['hits']} cache hits "
                  f"({cache['disk_hits']} from disk), "
                  f"{cache['misses']} misses, "
                  f"{stats['counters']['degraded']} degraded")
            if "router" in stats:
                router = stats["router"]
                print(f"cluster: {router['shards_alive']}/"
                      f"{router['shards']} shards alive, "
                      f"{router['routed']} routed, "
                      f"{router['failovers']} failovers")
            latency = client.metrics().get(
                "histograms", {}).get("serve.latency_s")
            if latency and latency.get("count"):
                print(f"serve latency_s: p50 {latency['p50']:.4g}, "
                      f"p90 {latency['p90']:.4g}, "
                      f"p99 {latency['p99']:.4g} "
                      f"({latency['count']} mapped)")
            if args.profile:
                merged = client.server.merged_obs()
                if merged is not None:
                    print()
                    print(merged.format_table())
    finally:
        if args.profile:
            OBS.disable()
    return 0


def _verify(args) -> int:
    """The ``verify`` command: audit both flows on each circuit.

    Runs the MIS and Lily pipelines (in the requested mode) with the
    ``repro.verify`` audit attached and prints every checker's verdict,
    then the process's peak RSS beside the overall verdict.  Returns a
    non-zero exit code if any check fails, so the command works as a CI
    gate.
    """
    from repro.circuits.suite import TABLE1_CIRCUITS, build_circuit
    from repro.flow.pipeline import lily_flow, mis_flow
    from repro.library.standard import big_library
    from repro.obs import peak_rss_mb

    level = args.verify_level or "fast"
    library = big_library()
    failures = 0
    # ``main`` has checked every name.
    names = args.circuits or TABLE1_CIRCUITS
    for name in names:
        net = build_circuit(name, scale=args.scale)
        for flow_fn in (mis_flow, lily_flow):
            if flow_fn is mis_flow:
                result = flow_fn(net, library, mode=args.mode, verify=level,
                                 mapper=args.mapper)
            else:
                result = flow_fn(net, library, mode=args.mode, verify=level)
            report = result.verify_report
            counts = report.counts()
            status = "ok" if report.passed else "FAILED"
            print(f"== {name} / {result.mapper} / {args.mode}: "
                  f"{counts['passed']}/{counts['run']} checks passed "
                  f"[{status}]")
            if not report.passed:
                failures += counts["failed"]
                for check in report.failures:
                    print(f"   {check}")
    print()
    peak = peak_rss_mb()
    memory = f"; peak RSS {peak:.1f} MB" if peak is not None else ""
    if failures:
        print(f"verification FAILED: {failures} failing checks{memory}")
        return 1
    print(f"verification passed (level={level}){memory}")
    return 0


def _report(args, verify) -> None:
    from repro.circuits.suite import build_circuit
    from repro.flow.pipeline import lily_flow, mis_flow
    from repro.flow.report import circuit_report, comparison_report
    from repro.library.standard import big_library
    from repro.obs import OBS

    if not args.circuits:
        raise SystemExit("report needs a circuit name")
    if args.trace:
        # Fail before running the flows, not after minutes of mapping.
        try:
            with open(args.trace, "w"):
                pass
        except OSError as exc:
            raise SystemExit(f"cannot write trace file {args.trace!r}: {exc}")
    observing = bool(args.profile or args.trace)
    if observing:
        OBS.enable()
    library = big_library()
    try:
        for name in args.circuits:
            net = build_circuit(name, scale=args.scale)
            mis = mis_flow(net, library, mode=args.mode, verify=verify,
                           mapper=args.mapper)
            lily = lily_flow(net, library, mode=args.mode, verify=verify)
            print(comparison_report(mis, lily))
            print()
            print(circuit_report(lily))
            for result in (mis, lily):
                report = result.verify_report
                if report is None:
                    continue
                counts = report.counts()
                print(f"\nverify[{result.mapper}]: {counts['passed']}/"
                      f"{counts['run']} checks passed (level={report.level})")
                for check in report.failures:
                    print(f"  {check}")
            if args.profile:
                for result in (mis, lily):
                    if result.obs is not None:
                        print()
                        print(result.obs.format_table())
            if args.svg:
                from repro.viz import layout_svg

                svg = layout_svg(
                    lily.backend.routed, lily.backend.pad_positions
                )
                with open(args.svg, "w") as f:
                    f.write(svg)
                print(f"\nlayout written to {args.svg}")
        if args.trace:
            OBS.tracer.write_chrome_trace(args.trace)
            print(f"\ntrace written to {args.trace} "
                  f"(open in chrome://tracing or Perfetto)")
    finally:
        if observing:
            OBS.disable()


if __name__ == "__main__":
    sys.exit(main())
