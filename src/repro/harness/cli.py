"""Command-line entry point: regenerate any table or figure.

Every registered study (Fig. 4, Figs. 11-15, Tables I and IV, plus the
``mcsweep``, ``recovery_cost`` and ``catalog`` extensions) runs through
``silo-repro exp``; the other subcommands are the validation,
tracing and maintenance tools.  Examples::

    silo-repro exp list                  # the declarative registry
    silo-repro exp run fig11             # paper-sized campaign
    silo-repro exp run fig12 --smoke     # CI-sized campaign
    silo-repro exp run --all --smoke --jobs 2
    silo-repro exp run fig14 --set transactions=80 --json
    silo-repro exp run fig11 --set 'core_counts=(1,8)' --set transactions=300
    silo-repro exp run fig12 --jobs 8    # fan cells across 8 processes
    silo-repro exp run fig12             # re-run: served from .repro-cache/
    silo-repro exp run fig13 --no-cache
    silo-repro exp run fig15 --fresh     # recompute, refresh the cache
    silo-repro exp run --all --jobs 8
    silo-repro crashtest --crash-points 3
    silo-repro faultsweep --smoke --jobs 2
    silo-repro litmus --smoke --jobs 2
    silo-repro trace --scheme all
    silo-repro chaos --smoke --jobs 2
    silo-repro cache stats
    silo-repro cache clear

Exit codes are uniform across all subcommands: 0 on success, 1 when
an experiment fails (a raised cell or an oracle violation), 2 on a
usage or configuration error (unknown experiment, bad ``--set`` key,
malformed flags), 3 when a ``--partial`` run completed with holes
(results rendered, but cells are missing), and 130 when a campaign
was interrupted (SIGINT) and drained gracefully — its journal is
flushed and ``--resume`` continues where it stopped.

Every campaign fans its (workload x scheme x cores x config) cells
out through :class:`repro.harness.executor.Executor`: ``--jobs N``
worker processes (default: all CPUs; ``--jobs 1`` is the serial
in-process path) over the content-addressed result cache in
``.repro-cache/`` (keyed by cell spec + a source fingerprint, so any
simulator edit invalidates it automatically).  Results are
bit-identical at any jobs count and cache state.  A cell that fails
is reported with its worker traceback, the rest of the campaign
completes, and the exit status is nonzero.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro import __version__
from repro.common.errors import ConfigError, ExecutionError
from repro.harness import crashtest, faultsweep, litmus, replay, tracecmd
from repro.harness.executor import CampaignInterrupted, Executor, spec_key
from repro.harness.experiments import load_all, render, run_campaign
from repro.harness.experiments.engine import PartialCampaignResult
from repro.harness.journal import CampaignJournal
from repro.harness.resultcache import ResultCache
from repro.harness.traceartifacts import TraceArtifactStore

#: Uniform exit codes for every subcommand (legacy, exp, cache, replay).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
#: A --partial campaign rendered, but with missing cells.
EXIT_PARTIAL = 3
#: SIGINT drained gracefully (128 + SIGINT, the shell convention).
EXIT_INTERRUPTED = 130

_EXPERIMENTS = {
    "crashtest": lambda args, ex: crashtest.run(
        points_per_pair=args.crash_points, seed=args.seed, executor=ex
    ),
    "faultsweep": lambda args, ex: faultsweep.run(
        points_per_pair=args.crash_points,
        seed=args.seed,
        executor=ex,
        output=args.fault_output,
        smoke=args.smoke,
        trace_output=args.fault_trace_output,
    ),
    "litmus": lambda args, ex: litmus.run(
        smoke=args.smoke,
        executor=ex,
        output=args.litmus_output,
    ),
    "trace": lambda args, ex: tracecmd.run(
        scheme=args.scheme,
        workload=args.workload,
        transactions=min(args.transactions, 100),
        output=args.trace_out,
        executor=ex,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silo-repro",
        description="Reproduce the Silo paper (HPCA 2023) on the "
        "trace-driven simulator.  'silo-repro exp list|run' regenerates "
        "its tables and figures; the commands below validate, trace "
        "and maintain the simulator.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["cache", "chaos", "replay"],
        help="which tool to run ('exp' runs the registered studies: see "
        "'silo-repro exp --help'), 'cache' to manage the result cache, "
        "'chaos' to self-test the execution layer under injected "
        "faults, or 'replay' to re-run one failed cell from its --spec "
        "JSON",
    )
    parser.add_argument(
        "action",
        nargs="?",
        choices=["stats", "clear"],
        help="cache only: 'stats' (default) or 'clear'",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=200,
        help="trace only: transactions per thread, capped at 100 "
        "(default 200)",
    )
    parser.add_argument(
        "--crash-points",
        type=int,
        default=20,
        help="crash points per (scheme, workload) pair for "
        "crashtest/faultsweep",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed for the randomized crashtest/faultsweep draws "
        "(default 0)",
    )
    parser.add_argument(
        "--fault-output",
        default="FAULTSWEEP.json",
        help="faultsweep only: where to write the campaign report "
        "(default: FAULTSWEEP.json)",
    )
    parser.add_argument(
        "--trace-output",
        dest="fault_trace_output",
        default=None,
        help="faultsweep only: also write a Chrome/Perfetto trace of "
        "one representative faulted cell (crash + recovery events)",
    )
    parser.add_argument(
        "--litmus-output",
        default="LITMUS.json",
        help="litmus only: where to write the campaign report "
        "(default: LITMUS.json)",
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="replay only: the cell-spec JSON printed by a failing "
        "crashtest/faultsweep cell",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes to fan cells across (default: all CPUs; "
        "1 = in-process serial execution)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely (no reads, no writes)",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="recompute every cell, overwriting its cache entry",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $SILO_CACHE_DIR or "
        ".repro-cache)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        help="cells per worker task (default: auto-sized from a cheap "
        "cost estimate; 1 = one task per cell)",
    )
    parser.add_argument(
        "--cell-timeout",
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog per cell: a task exceeding "
        "SECONDS x its cell count has its worker killed and the cells "
        "recorded as 'timeout' (or retried); 'auto' calibrates from "
        "observed completions, 0 disables (default: off)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-dispatch cells whose worker died or timed out up to N "
        "extra times, with exponential backoff (default: 0)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="faultsweep only: continue an interrupted campaign from "
        "its journal, re-running only unfinished cells",
    )
    parser.add_argument(
        "--chaos-output",
        default="CHAOS.json",
        help="chaos only: where to write the self-test report "
        "(default: CHAOS.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="faultsweep/litmus/chaos: shrink the grid to a "
        "<60s CI budget",
    )
    parser.add_argument(
        "--scheme",
        default="silo",
        help="trace only: design to trace, or 'all' for every "
        "registered design (default: silo)",
    )
    parser.add_argument(
        "--workload",
        default=tracecmd.DEFAULT_WORKLOAD,
        help="trace only: workload to trace (default: "
        f"{tracecmd.DEFAULT_WORKLOAD})",
    )
    parser.add_argument(
        "--trace-out",
        default="TRACE.json",
        help="trace only: output file; with --scheme all the scheme "
        "name is appended per file (default: TRACE.json)",
    )
    return parser


def build_exp_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="silo-repro exp",
        description="Declarative experiment registry: list the registered "
        "studies or run them through the generic campaign engine.",
    )
    parser.add_argument(
        "--version", action="version", version=f"silo-repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the registered experiments")
    p_list.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing (name/figure/description/params)",
    )

    p_run = sub.add_parser("run", help="run one or more experiments")
    p_run.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="registered experiment name(s); see 'silo-repro exp list'",
    )
    p_run.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    fmt = p_run.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json",
        dest="fmt",
        action="store_const",
        const="json",
        help="render results as JSON instead of the text report",
    )
    fmt.add_argument(
        "--csv",
        dest="fmt",
        action="store_const",
        const="csv",
        help="render results as CSV instead of the text report",
    )
    fmt.add_argument(
        "--chart",
        dest="fmt",
        action="store_const",
        const="chart",
        help="render results as ASCII bar charts",
    )
    p_run.set_defaults(fmt="report")
    p_run.add_argument(
        "--smoke",
        action="store_true",
        help="use the spec's smoke parameters (small, CI-sized campaign)",
    )
    p_run.add_argument(
        "--engine",
        choices=("exact", "columnar"),
        default="exact",
        help="execution engine for every simulated cell (default: "
        "exact; columnar is the bit-identical batched engine)",
    )
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spec parameter; VALUE is parsed as a Python "
        "literal when possible, else kept as a string.  May repeat.  An "
        "unknown KEY is a usage error for a named run; with --all it is "
        "applied only to the specs that declare it",
    )
    p_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes to fan cells across (default: all CPUs; "
        "1 = in-process serial execution)",
    )
    p_run.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely (no reads, no writes)",
    )
    p_run.add_argument(
        "--fresh",
        action="store_true",
        help="recompute every cell, overwriting its cache entry",
    )
    p_run.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $SILO_CACHE_DIR or "
        ".repro-cache)",
    )
    p_run.add_argument(
        "--batch",
        type=int,
        default=None,
        help="cells per worker task (default: auto-sized from a cheap "
        "cost estimate; 1 = one task per cell)",
    )
    p_run.add_argument(
        "--cell-timeout",
        default=None,
        metavar="SECONDS",
        help="wall-clock watchdog per cell: a task exceeding "
        "SECONDS x its cell count has its worker killed and the cells "
        "recorded as 'timeout' (or retried); 'auto' calibrates from "
        "observed completions, 0 disables (default: off)",
    )
    p_run.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-dispatch cells whose worker died or timed out up to N "
        "extra times, with exponential backoff (default: 0)",
    )
    p_run.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted campaign from its journal, "
        "re-running only unfinished cells (needs the result cache)",
    )
    p_run.add_argument(
        "--partial",
        action="store_true",
        help="degrade gracefully: render failed/timed-out cells as "
        "explicit holes (with replay one-liners) around whatever "
        "assembles, exit 3 instead of aborting the report",
    )
    return parser


def _parse_cell_timeout(value):
    """``--cell-timeout`` values: ``None``/``0`` off, ``"auto"``, or a
    positive float of seconds."""
    if value is None:
        return None
    if value == "auto":
        return "auto"
    try:
        seconds = float(value)
    except ValueError:
        raise ConfigError(
            f"--cell-timeout expects a number of seconds or 'auto', "
            f"got {value!r}"
        )
    return seconds if seconds > 0 else None


def _campaign_journal(args, campaign_key: str):
    """The checkpoint journal for one campaign identity, honoring
    ``--resume`` (keep it) vs. a fresh run (discard any leftover).
    Resilience flags never join the key: they change scheduling, not
    which cells the campaign contains."""
    if getattr(args, "no_cache", False):
        if getattr(args, "resume", False):
            raise ConfigError("--resume needs the result cache "
                              "(drop --no-cache)")
        return None
    journal = CampaignJournal(args.cache_dir, campaign=campaign_key)
    if not getattr(args, "resume", False):
        journal.discard()
    return journal


def _report_interrupted(exc: CampaignInterrupted, name: str) -> int:
    """Render a graceful partial stop: flush the journal's partial
    manifest, say how to continue, exit 130 — never a stack trace."""
    records = []
    for outcome in exc.outcomes:
        record = {
            "spec": json.loads(spec_key(outcome.spec)),
            "ok": outcome.ok,
            "kind": outcome.kind,
            "cached": outcome.cached,
        }
        records.append(record)
    print(f"[{name} interrupted] {exc}", file=sys.stderr)
    if exc.journal is not None:
        path = exc.journal.write_partial_manifest(records)
        if path:
            print(f"[{name}] partial manifest: {path}", file=sys.stderr)
    return EXIT_INTERRUPTED


def _parse_overrides(pairs: List[str]) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for text in pairs:
        key, eq, raw = text.partition("=")
        if not eq or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {text!r}")
        try:
            overrides[key] = ast.literal_eval(raw)
        except (SyntaxError, ValueError):
            overrides[key] = raw
    return overrides


def _exp_list(args) -> int:
    registry = load_all()
    if args.json:
        payload = [
            {
                "name": spec.name,
                "figure": spec.figure,
                "description": spec.description,
                "params": {k: repr(v) for k, v in spec.params.items()},
            }
            for spec in registry.specs()
        ]
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    specs = registry.specs()
    name_w = max(len(s.name) for s in specs)
    fig_w = max(len(s.figure) for s in specs)
    for spec in specs:
        print(f"{spec.name:<{name_w}}  {spec.figure:<{fig_w}}  {spec.description}")
    return EXIT_OK


def _exp_run(args) -> int:
    registry = load_all()
    if args.all and args.names:
        raise ConfigError("give experiment names or --all, not both")
    if not args.all and not args.names:
        raise ConfigError(
            "nothing to run: give experiment names or --all "
            "(see 'silo-repro exp list')"
        )
    overrides = _parse_overrides(args.overrides)
    # Resolve every name before running anything: an unknown experiment
    # is a usage error, not a partial campaign.
    specs = (
        registry.specs()
        if args.all
        else [registry.get(name) for name in args.names]
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    trace_store = None if args.no_cache else TraceArtifactStore(args.cache_dir)
    executor = Executor(
        jobs=args.jobs,
        cache=cache,
        fresh=args.fresh,
        progress=args.fmt == "report",
        batch=args.batch,
        trace_store=trace_store,
        cell_timeout=_parse_cell_timeout(args.cell_timeout),
        retries=args.retries,
    )
    failures = 0
    partials = 0
    json_docs: Dict[str, object] = {}
    for spec in specs:
        applicable = (
            {k: v for k, v in overrides.items() if k in spec.params}
            if args.all
            else overrides
        )
        campaign_key = (
            f"exp|{spec.name}|smoke={args.smoke}|engine={args.engine}|"
            + json.dumps(applicable, sort_keys=True, default=repr)
        )
        journal = _campaign_journal(args, campaign_key)
        executor.journal = journal
        started = time.time()
        # The executor is shared across studies and its stats are
        # lifetime totals; the footer reports this study's share.
        before = replace(executor.stats)
        try:
            result, campaign = run_campaign(
                spec,
                executor=executor,
                smoke=args.smoke,
                engine=args.engine,
                partial=args.partial,
                **applicable,
            )
        except CampaignInterrupted as exc:
            return _report_interrupted(exc, spec.name)
        except ExecutionError as exc:
            print(f"[{spec.name} FAILED]\n{exc}", file=sys.stderr)
            failures += 1
            continue
        if journal is not None:
            # Clean completion: the checkpoint has served its purpose
            # (reusable outcomes live on in the result cache).
            journal.discard()
        is_partial = isinstance(result, PartialCampaignResult)
        partials += is_partial
        if args.fmt == "json":
            json_docs[spec.name] = {
                "manifest": campaign.manifest(),
                "tables": (
                    result.to_json_dict()
                    if is_partial
                    else result.to_json_payload()
                ),
            }
            continue
        print(render(result, args.fmt))
        if args.fmt == "report":
            stats = executor.stats
            journal_hits = stats.journal_hits - before.journal_hits
            journal_text = (
                f", {journal_hits} journal-served" if journal_hits else ""
            )
            print(
                f"[{spec.name} completed in {time.time() - started:.1f}s; "
                f"campaign: {stats.cells - before.cells} cells, "
                f"{stats.cache_hits - before.cache_hits} cached"
                f"{journal_text}, {executor.jobs} jobs]\n"
            )
    if args.fmt == "json" and json_docs:
        if len(json_docs) == 1 and not args.all:
            (payload,) = json_docs.values()
            print(json.dumps(payload, indent=2))
        else:
            print(json.dumps(json_docs, indent=2))
    if failures:
        return EXIT_FAILURE
    return EXIT_PARTIAL if partials else EXIT_OK


def _exp_main(argv: List[str]) -> int:
    args = build_exp_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _exp_list(args)
        return _exp_run(args)
    except ConfigError as exc:
        print(f"silo-repro exp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExecutionError as exc:
        print(f"silo-repro exp: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def _cache_command(args) -> int:
    cache = ResultCache(args.cache_dir)
    traces = TraceArtifactStore(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        removed_traces = traces.clear()
        print(f"removed {removed} cache entries from {cache.root}")
        print(f"removed {removed_traces} trace artifacts from {traces.root}")
    else:
        print(cache.format_stats())
        print(traces.format_stats())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["exp"]:
        return _exp_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "cache":
        return _cache_command(args)
    if args.action is not None:
        parser.error("an action is only valid with the 'cache' command")
    if args.experiment == "replay":
        if not args.spec:
            parser.error("replay needs --spec '<cell json>'")
        try:
            result = replay.run(args.spec)
        except ConfigError as exc:
            print(f"silo-repro: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(result.format_report())
        return EXIT_OK if result.passed else EXIT_FAILURE
    if args.spec is not None:
        parser.error("--spec is only valid with the 'replay' command")
    if args.experiment == "chaos":
        from repro.harness import chaos

        result = chaos.run(
            smoke=args.smoke,
            jobs=args.jobs if args.jobs is not None else 2,
            seed=args.seed,
            output=args.chaos_output,
        )
        print(result.format_report())
        return EXIT_OK if result.passed else EXIT_FAILURE
    if args.resume and args.experiment not in ("faultsweep", "litmus"):
        parser.error(
            "--resume is only supported for 'faultsweep' and 'litmus' "
            "here (and for 'silo-repro exp run')"
        )
    if args.resume and args.no_cache:
        parser.error("--resume needs the result cache (drop --no-cache)")

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    trace_store = None if args.no_cache else TraceArtifactStore(args.cache_dir)
    try:
        cell_timeout = _parse_cell_timeout(args.cell_timeout)
    except ConfigError as exc:
        print(f"silo-repro: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    executor = Executor(
        jobs=args.jobs,
        cache=cache,
        fresh=args.fresh,
        progress=True,
        batch=args.batch,
        trace_store=trace_store,
        cell_timeout=cell_timeout,
        retries=args.retries,
    )
    name = args.experiment
    journal = None
    if name in ("faultsweep", "litmus") and cache is not None:
        campaign_key = (
            f"faultsweep|seed={args.seed}|points={args.crash_points}"
            f"|smoke={args.smoke}"
            if name == "faultsweep"
            else f"litmus|smoke={args.smoke}"
        )
        try:
            journal = _campaign_journal(args, campaign_key)
        except ConfigError as exc:
            print(f"silo-repro: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    executor.journal = journal
    started = time.time()
    try:
        result = _EXPERIMENTS[name](args, executor)
    except CampaignInterrupted as exc:
        return _report_interrupted(exc, name)
    except ExecutionError as exc:
        print(f"[{name} FAILED]\n{exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ConfigError as exc:
        print(f"silo-repro: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if journal is not None:
        journal.discard()
    print(result.format_report())
    # Validation sweeps (crashtest/faultsweep) fail the run on oracle
    # violations, not only on raised cells.
    passed = getattr(result, "passed", True) is not False
    if not passed:
        print(f"[{name} FAILED: oracle violations]", file=sys.stderr)
    stats = executor.stats
    print(
        f"[{name} completed in {time.time() - started:.1f}s; "
        f"campaign: {stats.cells} cells, {stats.cache_hits} cached, "
        f"{executor.jobs} jobs]\n"
    )
    return EXIT_OK if passed else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
