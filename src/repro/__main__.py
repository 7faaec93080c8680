"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # available experiments + cost
    python -m repro table8               # regenerate one artefact
    python -m repro fig4_6 tables1_3     # several at once
    python -m repro all                  # everything (minutes)
    python -m repro report [PATH]        # full markdown report (minutes)
    python -m repro report --quick       # fast subset, printed to stdout
    python -m repro run EXPERIMENT ... [--obs|--no-obs]
                       [--cache-dir [PATH]] [--results-db [PATH]]
                                         # run through the unified
                                         # options surface (--results-db
                                         # records the run)
    python -m repro profile EXPERIMENT [--trace-out [PATH]]
                                       [--metrics-out [PATH]]
                                       [--flamegraph-out [PATH]]
                                         # run observed; export Perfetto
                                         # trace, metrics summary and/or
                                         # folded flamegraph stacks
    python -m repro guard [--policy NAME] [--buddy-every N]
                          [--report-out [PATH]]
                                         # numerical-health supervision
                                         # demo (overhead + recovery
                                         # matrix + buddy-vs-disk)
    python -m repro campaign [SELECTOR ...] [--sweep NAME] [--workers N]
                             [--cache-dir [PATH]] [--resume]
                             [--obs|--no-obs] [--no-cache]
                             [--report-out [PATH]] [--json-out [PATH]]
                             [--results] [--results-db [PATH]]
                             [--fleet HOST:PORT,...] [--listen [HOST:PORT]]
                             [--max-attempts N]
                                         # process-parallel sweep over
                                         # the registry with content-
                                         # addressed result caching
                                         # (--results-db records each
                                         # unit in the cross-run index;
                                         # --fleet/--listen dispatch to
                                         # socket-transport workers with
                                         # dead-host recovery)
    python -m repro fleet worker --connect HOST:PORT
                                 [--cache-dir [PATH]] [--name NAME]
                                 [--chaos SPEC]
                                         # one distributed campaign
                                         # worker (see docs/fleet.md)
    python -m repro results ingest|query|runs|trajectory|prune ...
                                         # SQLite cross-run result
                                         # index: provenance-stamped
                                         # ingestion, read-only SQL,
                                         # canned reports, cache GC
                                         # (see `results -h`)
    python -m repro serve [--host HOST] [--port PORT] [--workers N]
                          [--queue-limit N] [--cache-dir [PATH]]
                          [--results-db [PATH]] [--no-obs]
                                         # always-on service gateway
                                         # (cache-first, coalescing,
                                         # admission control)
    python -m repro serve --bench [--seed N] [--json-out [PATH]]
                                         # seeded bursty load replay
                                         # (cold + warm SLO summary)
"""

from __future__ import annotations

import difflib
import sys
import time

from repro.reporting.experiments import EXPERIMENTS, run_experiment


def _unknown_experiment(idents: list[str]) -> int:
    for ident in idents:
        close = difflib.get_close_matches(ident, EXPERIMENTS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        print(f"unknown experiment {ident!r}{hint} (try 'list')",
              file=sys.stderr)
    return 2


def _cmd_list() -> int:
    for ident, spec in sorted(EXPERIMENTS.items()):
        print(f"{ident:15s} [{spec.cost:6s}] {spec.doc}")
    return 0


def _cmd_report(rest: list[str]) -> int:
    from repro.reporting.report import generate_report, write_report

    quick = False
    paths: list[str] = []
    for arg in rest:
        if arg == "--quick":
            quick = True
        elif arg.startswith("-"):
            # Unknown flags used to be silently treated as "not a path"
            # and dropped, so e.g. a misspelled --qiuck ran the full
            # minutes-long report.  Fail fast instead.
            print(f"report: unknown option {arg!r} (only --quick is "
                  f"accepted)", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) > 1:
        print(f"report: at most one output path, got {paths!r}",
              file=sys.stderr)
        return 2
    if paths:
        out = write_report(paths[0], quick=quick)
        print(f"report written to {out}")
    else:
        print(generate_report(quick=quick))
    return 0


def _optional_value(rest: list[str], i: int) -> tuple[str | None, int]:
    """Value of a flag whose argument is optional: consume ``rest[i+1]``
    only if present and not itself a flag."""
    if i + 1 < len(rest) and not rest[i + 1].startswith("-"):
        return rest[i + 1], i + 2
    return None, i + 1


def _db_default(rest: list[str], i: int) -> tuple[str, int]:
    """``--results-db [PATH]``: explicit path or the conventional one."""
    from repro.results import DEFAULT_DB

    value, i = _optional_value(rest, i)
    return value or DEFAULT_DB, i


def _cmd_run(rest: list[str]) -> int:
    from repro import api
    from repro.options import RunOptions

    idents: list[str] = []
    obs = False
    cache_dir: str | None = None
    results_db: str | None = None
    i = 0
    while i < len(rest):
        arg = rest[i]
        if arg == "--obs":
            obs = True
            i += 1
        elif arg == "--no-obs":
            obs = False
            i += 1
        elif arg == "--cache-dir":
            from repro.campaign.scheduler import default_cache_dir

            cache_dir, i = _optional_value(rest, i)
            cache_dir = cache_dir or default_cache_dir()
        elif arg == "--results-db":
            results_db, i = _db_default(rest, i)
        elif arg.startswith("-"):
            print(f"run: unknown option {arg!r}", file=sys.stderr)
            return 2
        else:
            idents.append(arg)
            i += 1
    if not idents:
        print("run: at least one experiment identifier is required "
              "(try 'list')", file=sys.stderr)
        return 2
    unknown = [ident for ident in idents if ident not in EXPERIMENTS]
    if unknown:
        return _unknown_experiment(unknown)
    opts = RunOptions(obs=obs, cache_dir=cache_dir, results_db=results_db)
    for ident in idents:
        start = time.time()
        result = api.run(ident, options=opts)
        print(result.render())
        print(f"[{ident} ran in {time.time() - start:.1f}s]\n")
    if results_db:
        print(f"runs recorded in result index {results_db}")
    return 0


def _cmd_profile(rest: list[str]) -> int:
    from repro import api
    from repro.options import RunOptions

    ident: str | None = None
    trace_out: str | None = None
    metrics_out: str | None = None
    flamegraph_out: str | None = None
    results_db: str | None = None
    want_trace = want_metrics = want_flame = False
    i = 0
    while i < len(rest):
        arg = rest[i]
        if arg == "--trace-out":
            want_trace = True
            trace_out, i = _optional_value(rest, i)
        elif arg == "--metrics-out":
            want_metrics = True
            metrics_out, i = _optional_value(rest, i)
        elif arg == "--flamegraph-out":
            want_flame = True
            flamegraph_out, i = _optional_value(rest, i)
        elif arg == "--results-db":
            results_db, i = _db_default(rest, i)
        elif arg.startswith("-"):
            print(f"profile: unknown option {arg!r}", file=sys.stderr)
            return 2
        elif ident is None:
            ident = arg
            i += 1
        else:
            print(f"profile: expected one experiment, got {ident!r} and "
                  f"{arg!r}", file=sys.stderr)
            return 2
    if ident is None:
        print("profile: an experiment identifier is required (try 'list')",
              file=sys.stderr)
        return 2
    if ident not in EXPERIMENTS:
        return _unknown_experiment([ident])
    if want_trace and trace_out is None:
        trace_out = f"trace-{ident}.json"
    if want_metrics and metrics_out is None:
        metrics_out = f"metrics-{ident}.json"
    if want_flame and flamegraph_out is None:
        flamegraph_out = f"flamegraph-{ident}.folded"
    opts = RunOptions(results_db=results_db)
    if not (want_trace or want_metrics or want_flame):
        # Still observe — print the metrics summary so a bare
        # `profile fig1` is useful on its own.
        from repro.obs import render_metrics_markdown

        result = api.profile(ident, options=opts)
        print(result.render())
        print(render_metrics_markdown(result.metrics()))
        return 0
    start = time.time()
    result = api.profile(ident, trace_out=trace_out,
                         metrics_out=metrics_out,
                         flamegraph_out=flamegraph_out, options=opts)
    print(result.render())
    if trace_out:
        print(f"trace written to {trace_out}")
    if metrics_out:
        print(f"metrics written to {metrics_out}")
    if flamegraph_out:
        print(f"flamegraph stacks written to {flamegraph_out}")
    print(f"[{ident} profiled in {time.time() - start:.1f}s]")
    return 0


def _cmd_guard(rest: list[str]) -> int:
    from repro import api
    from repro.guard import POLICY_NAMES, GuardConfig

    policy: str | None = None
    buddy_every: int | None = None
    report_out: str | None = None
    want_report = False
    i = 0
    while i < len(rest):
        arg = rest[i]
        if arg == "--policy":
            if i + 1 >= len(rest):
                print("guard: --policy requires a value "
                      f"(one of {', '.join(POLICY_NAMES)})", file=sys.stderr)
                return 2
            policy, i = rest[i + 1], i + 2
        elif arg == "--buddy-every":
            if i + 1 >= len(rest):
                print("guard: --buddy-every requires an integer",
                      file=sys.stderr)
                return 2
            try:
                buddy_every = int(rest[i + 1])
            except ValueError:
                print(f"guard: --buddy-every expects an integer, got "
                      f"{rest[i + 1]!r}", file=sys.stderr)
                return 2
            i += 2
        elif arg == "--report-out":
            want_report = True
            report_out, i = _optional_value(rest, i)
        elif arg.startswith("-"):
            print(f"guard: unknown option {arg!r}", file=sys.stderr)
            return 2
        else:
            print(f"guard: unexpected argument {arg!r}", file=sys.stderr)
            return 2
    overrides = {}
    if policy is not None:
        overrides["policy"] = policy
    if buddy_every is not None:
        overrides["buddy_every"] = buddy_every
    try:
        gcfg = GuardConfig(**overrides)
    except ValueError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    from repro.options import RunOptions

    start = time.time()
    result = api.run("guard", options=RunOptions(guard=gcfg))
    text = result.render()
    print(text)
    if want_report:
        report_out = report_out or "guard-report.md"
        with open(report_out, "w", encoding="utf-8") as fh:
            fh.write("# Guard supervision report\n\n```\n")
            fh.write(text)
            fh.write("\n```\n")
        print(f"report written to {report_out}")
    print(f"[guard regenerated in {time.time() - start:.1f}s]")
    return 0


def _cmd_campaign(rest: list[str]) -> int:
    import json

    from repro import api
    from repro.campaign.scheduler import default_cache_dir
    from repro.campaign.units import SWEEPS

    selectors: list[str] = []
    sweep: str | None = None
    workers = 1
    cache_dir: str | None = None
    resume = False
    obs = False
    use_cache = True
    report_out: str | None = None
    json_out: str | None = None
    results_db: str | None = None
    fleet: object = None
    max_attempts: int | None = None
    want_report = want_json = show_results = False
    i = 0
    while i < len(rest):
        arg = rest[i]
        if arg == "--fleet":
            if i + 1 >= len(rest):
                print("campaign: --fleet requires worker addresses "
                      "(HOST:PORT[,HOST:PORT...])", file=sys.stderr)
                return 2
            fleet, i = rest[i + 1], i + 2
        elif arg == "--listen":
            value, i = _optional_value(rest, i)
            fleet = f"listen:{value}" if value else "listen"
        elif arg == "--max-attempts":
            if i + 1 >= len(rest):
                print("campaign: --max-attempts requires an integer",
                      file=sys.stderr)
                return 2
            try:
                max_attempts = int(rest[i + 1])
            except ValueError:
                print(f"campaign: --max-attempts expects an integer, got "
                      f"{rest[i + 1]!r}", file=sys.stderr)
                return 2
            i += 2
        elif arg == "--workers":
            if i + 1 >= len(rest):
                print("campaign: --workers requires an integer",
                      file=sys.stderr)
                return 2
            try:
                workers = int(rest[i + 1])
            except ValueError:
                print(f"campaign: --workers expects an integer, got "
                      f"{rest[i + 1]!r}", file=sys.stderr)
                return 2
            if workers < 1:
                print("campaign: --workers must be >= 1", file=sys.stderr)
                return 2
            i += 2
        elif arg == "--sweep":
            if i + 1 >= len(rest):
                print(f"campaign: --sweep requires a name "
                      f"(one of {', '.join(sorted(SWEEPS))})",
                      file=sys.stderr)
                return 2
            sweep, i = rest[i + 1], i + 2
        elif arg == "--cache-dir":
            cache_dir, i = _optional_value(rest, i)
            cache_dir = cache_dir or default_cache_dir()
        elif arg == "--resume":
            resume = True
            i += 1
        elif arg == "--obs":
            obs = True
            i += 1
        elif arg == "--no-obs":
            obs = False
            i += 1
        elif arg == "--no-cache":
            use_cache = False
            i += 1
        elif arg == "--report-out":
            want_report = True
            report_out, i = _optional_value(rest, i)
        elif arg == "--json-out":
            want_json = True
            json_out, i = _optional_value(rest, i)
        elif arg == "--results":
            show_results = True
            i += 1
        elif arg == "--results-db":
            results_db, i = _db_default(rest, i)
        elif arg.startswith("-"):
            print(f"campaign: unknown option {arg!r}", file=sys.stderr)
            return 2
        else:
            selectors.append(arg)
            i += 1
    if selectors and sweep:
        print("campaign: pass selectors or --sweep, not both",
              file=sys.stderr)
        return 2
    if resume and cache_dir is None:
        cache_dir = default_cache_dir()
    from repro.options import RunOptions

    start = time.time()
    try:
        report = api.run_campaign(
            selectors or None, sweep=sweep,
            options=RunOptions(
                workers=workers, cache_dir=cache_dir, resume=resume,
                obs=obs, use_cache=use_cache, results_db=results_db,
                fleet=fleet, max_attempts=max_attempts,
            ),
        )
    except (KeyError, ValueError) as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    print(report.render(include_results=show_results))
    if want_report:
        report_out = report_out or "campaign-report.md"
        with open(report_out, "w", encoding="utf-8") as fh:
            fh.write("# Campaign report\n\n```\n")
            fh.write(report.render(include_results=True))
            fh.write("\n```\n")
        print(f"report written to {report_out}")
    if want_json:
        json_out = json_out or "campaign-report.json"
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"json report written to {json_out}")
    if results_db:
        print(f"units recorded in result index {results_db} "
              f"(query with `python -m repro results runs "
              f"--db {results_db}`)")
    salvaged = f", {report.salvaged} salvaged" if report.salvaged else ""
    print(f"[campaign finished in {time.time() - start:.1f}s: "
          f"{report.cache_hits} hit(s), "
          f"{report.cache_misses - report.salvaged} computed"
          f"{salvaged}, {report.failures} failed]")
    return 1 if report.failures else 0


def _cmd_serve(rest: list[str]) -> int:
    import asyncio
    import json

    host = "127.0.0.1"
    port = 0
    workers = 4
    queue_limit = 64
    cache_dir: str | None = None
    results_db: str | None = None
    spans = True
    bench = False
    seed: int | None = None
    json_out: str | None = None
    want_json = False
    i = 0
    while i < len(rest):
        arg = rest[i]
        if arg == "--host":
            if i + 1 >= len(rest):
                print("serve: --host requires a value", file=sys.stderr)
                return 2
            host, i = rest[i + 1], i + 2
        elif arg in ("--port", "--workers", "--queue-limit", "--seed"):
            if i + 1 >= len(rest):
                print(f"serve: {arg} requires an integer", file=sys.stderr)
                return 2
            try:
                value = int(rest[i + 1])
            except ValueError:
                print(f"serve: {arg} expects an integer, got "
                      f"{rest[i + 1]!r}", file=sys.stderr)
                return 2
            if arg == "--port":
                port = value
            elif arg == "--workers":
                workers = value
            elif arg == "--queue-limit":
                queue_limit = value
            else:
                seed = value
            i += 2
        elif arg == "--cache-dir":
            cache_dir, i = _optional_value(rest, i)
            cache_dir = cache_dir or ".repro-serve-cache"
        elif arg == "--results-db":
            results_db, i = _db_default(rest, i)
        elif arg == "--no-obs":
            # Per-request gateway spans off (the serve analogue of an
            # unobserved run).
            spans = False
            i += 1
        elif arg == "--bench":
            bench = True
            i += 1
        elif arg == "--json-out":
            want_json = True
            json_out, i = _optional_value(rest, i)
        elif arg.startswith("-"):
            print(f"serve: unknown option {arg!r}", file=sys.stderr)
            return 2
        else:
            print(f"serve: unexpected argument {arg!r}", file=sys.stderr)
            return 2

    if bench:
        from repro.serve.bench import run_bench
        from repro.serve.loadgen import DEFAULT_SEED

        report = run_bench(seed if seed is not None else DEFAULT_SEED,
                           cache_dir=cache_dir)
        cold, warm = report["cold"], report["warm"]
        print(f"cold pass: {cold['requests']} requests, "
              f"coalesce rate {cold['coalesce_rate']:.0%}, "
              f"{cold['failures']} failed")
        print(f"warm pass: {warm['requests']} requests, "
              f"hit rate {warm['hit_rate']:.0%}, "
              f"hit p99 {warm['latency_us']['hit']['p99']} us, "
              f"{warm['throughput_rps']:.1f} rps, "
              f"{warm['failures']} failed")
        if want_json:
            json_out = json_out or "serve-slo.json"
            with open(json_out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"SLO summary written to {json_out}")
        failed = (cold["failures"] + warm["failures"]
                  + len(cold["sha_conflicts"]) + len(warm["sha_conflicts"]))
        return 1 if failed else 0

    from repro.serve import Gateway, ServeConfig

    try:
        config = ServeConfig(host=host, port=port, pool_workers=workers,
                             queue_limit=queue_limit, cache_dir=cache_dir,
                             results_db=results_db, spans=spans)
    except (TypeError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2

    async def _serve_forever() -> None:
        async with Gateway(config) as gateway:
            bound_host, bound_port = await gateway.start_server()
            print(f"gateway listening on http://{bound_host}:{bound_port} "
                  f"(POST /run, POST /campaign, GET /status, GET /metrics; "
                  f"Ctrl-C to stop)")
            try:
                await asyncio.Event().wait()
            finally:
                print(json.dumps(gateway.status(), indent=1, sort_keys=True))

    try:
        asyncio.run(_serve_forever())
    except KeyboardInterrupt:
        print("gateway stopped")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        print("Experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0
    if args[0] == "list":
        return _cmd_list()
    if args[0] == "report":
        return _cmd_report(args[1:])
    if args[0] == "run":
        return _cmd_run(args[1:])
    if args[0] == "profile":
        return _cmd_profile(args[1:])
    if args[0] == "campaign":
        return _cmd_campaign(args[1:])
    if args[0] == "serve":
        return _cmd_serve(args[1:])
    if args[0] == "results":
        from repro.results.cli import main as results_main

        return results_main(args[1:])
    if args[0] == "fleet":
        from repro.fleet.cli import main as fleet_main

        return fleet_main(args[1:])
    if args[0] == "guard" and len(args) > 1:
        # Bare `guard` falls through to the registry experiment below;
        # with flags it becomes the configured demo + report writer.
        return _cmd_guard(args[1:])
    idents = sorted(EXPERIMENTS) if args == ["all"] else args
    # Validate everything up front so a typo late in the list cannot
    # waste the minutes the earlier experiments take.
    unknown = [ident for ident in idents if ident not in EXPERIMENTS]
    if unknown:
        return _unknown_experiment(unknown)
    for ident in idents:
        start = time.time()
        result = run_experiment(ident)
        print(result.render())
        print(f"[{ident} regenerated in {time.time() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
