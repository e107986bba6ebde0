"""JSONL batch CLI for the scheduling service: ``python -m repro.service``.

Reads schedule requests (one versioned JSON payload per line, see
:class:`repro.service.ScheduleRequest`), executes them as one batch through
:class:`repro.service.SchedulingService`, and writes the responses — one
versioned JSON payload per line, in request order — to stdout or ``--output``.

Alternatively ``--scenario`` builds the batch declaratively: requests are
generated from a named (or inline-JSON) scenario for ``--systems`` system
indices and each ``--methods`` spec, with no request file at all.
``--campaign`` goes one level further and expands a whole campaign grid
(see :mod:`repro.campaign`) into the batch.

Examples::

    # Schedule a request file on four workers with a persistent cache
    python -m repro.service requests.jsonl --workers 4 --cache-dir cache/ -o responses.jsonl

    # Pipe mode: requests on stdin, responses on stdout
    python -m repro.service - < requests.jsonl > responses.jsonl

    # Declarative mode: schedule 3 systems of a preset scenario two ways
    python -m repro.service --scenario faulty-controller --systems 3 \
        --methods static gpiocp -o responses.jsonl

Re-running the same requests against a populated ``--cache-dir`` recomputes
nothing: every response comes back flagged ``cache: hit``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, TextIO

from repro.cli import add_pool_and_cache_arguments, check_pool_and_cache_arguments
from repro.core import logging as relog
from repro.core.profiling import DEFAULT_PROFILE_PATH, maybe_profile
from repro.scenario import create_scenario, format_scenario_listing
from repro.scheduling import format_scheduler_listing
from repro.service.messages import ScheduleRequest
from repro.service.service import SchedulingService
from repro.service.spec import SchedulerSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Batch-schedule JSONL schedule requests; JSONL responses out.",
    )
    parser.add_argument(
        "input",
        nargs="?",
        default=None,
        help="request JSONL file ('-' reads stdin); one versioned "
        "repro/schedule-request payload per line.  Omit when using --scenario",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_JSON",
        help="generate the request batch from a scenario (a registered preset "
        "name, see --list-scenarios, or inline repro/scenario JSON) instead "
        "of reading a request file",
    )
    parser.add_argument(
        "--systems",
        type=int,
        default=1,
        metavar="N",
        help="with --scenario: schedule system indices 0..N-1 (default: 1)",
    )
    parser.add_argument(
        "--methods",
        nargs="+",
        default=["static"],
        metavar="SPEC",
        help="with --scenario: scheduler spec strings to evaluate per system "
        "(default: static)",
    )
    parser.add_argument(
        "--campaign",
        default=None,
        metavar="SPEC_OR_FILE",
        help="generate the request batch from a campaign grid (a repro/campaign "
        "JSON file or inline JSON) instead of a request file; responses come "
        "back in canonical grid order.  See `python -m repro.campaign` for "
        "checkpointed runs and aggregated reports",
    )
    parser.add_argument(
        "--list-methods",
        action="store_true",
        help="list the registered scheduling methods and exit",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list the registered scenario presets and exit",
    )
    parser.add_argument(
        "--list-execution-models",
        action="store_true",
        help="list the registered run-time execution models and exit "
        "(simulated via `python -m repro.runtime`)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="response JSONL file (default: stdout)",
    )
    add_pool_and_cache_arguments(
        parser,
        cache_dir_help="directory for the persistent content-addressed schedule "
        "cache (omit to cache in memory for this batch only)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print the schedule cache's lifetime counters "
        "(entries/hits/misses/stores) and the per-worker memo-cache "
        "hit/miss counters to stderr after the batch",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=DEFAULT_PROFILE_PATH,
        default=None,
        metavar="PSTATS",
        help="run the batch under cProfile: dump raw stats to PSTATS "
        f"(default: {DEFAULT_PROFILE_PATH}) and print the top-20 cumulative "
        "summary to stderr",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the batch's metrics (Prometheus text exposition: request "
        "counters, cache ops, per-phase latency histograms) to FILE",
    )
    relog.add_log_level_argument(parser)
    return parser


def scenario_requests(
    scenario_ref: str, methods: Sequence[str], n_systems: int
) -> List[ScheduleRequest]:
    """Build the declarative request batch of ``--scenario`` mode."""
    scenario = create_scenario(scenario_ref)
    requests = []
    for system_index in range(n_systems):
        for method in methods:
            spec = SchedulerSpec.parse(method)
            requests.append(
                ScheduleRequest(
                    scenario=scenario,
                    system_index=system_index,
                    spec=spec,
                    request_id=f"{scenario.name}/{system_index}/{spec}",
                )
            )
    return requests


def campaign_requests(campaign_ref: str) -> List[ScheduleRequest]:
    """Build the request batch of ``--campaign`` mode: the whole grid.

    Requests are content-identical to what :class:`~repro.campaign.CampaignRunner`
    submits, so a service batch and a checkpointed campaign run share
    schedule-cache entries.
    """
    from repro.campaign import cell_request, load_campaign

    spec = load_campaign(campaign_ref)
    return [cell_request(spec, cell) for cell in spec.cells()]


def read_requests(handle: TextIO, *, source: str) -> List[ScheduleRequest]:
    requests: List[ScheduleRequest] = []
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            requests.append(ScheduleRequest.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as error:
            raise SystemExit(f"{source}:{line_number}: invalid request: {error}")
    return requests


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    relog.configure_from_args(args)
    if args.list_methods or args.list_scenarios or args.list_execution_models:
        if args.list_methods:
            print(format_scheduler_listing())
        if args.list_scenarios:
            print(format_scenario_listing())
        if args.list_execution_models:
            from repro.runtime import format_execution_model_listing

            print(format_execution_model_listing())
        return 0
    check_pool_and_cache_arguments(parser, args)
    sources = [
        source
        for source in (args.input, args.scenario, args.campaign)
        if source is not None
    ]
    if len(sources) != 1:
        parser.error("provide exactly one of an input file, --scenario and --campaign")
    if args.systems < 1:
        parser.error(f"--systems must be >= 1, got {args.systems}")

    if args.campaign is not None:
        try:
            requests = campaign_requests(args.campaign)
        except (ValueError, KeyError) as error:
            parser.error(f"--campaign: {error}")
    elif args.scenario is not None:
        try:
            requests = scenario_requests(args.scenario, args.methods, args.systems)
        except (ValueError, KeyError) as error:
            parser.error(f"--scenario: {error}")
    elif args.input == "-":
        requests = read_requests(sys.stdin, source="<stdin>")
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            requests = read_requests(handle, source=args.input)

    with maybe_profile(args.profile):
        with SchedulingService(
            n_workers=args.workers,
            cache_dir=args.cache_dir,
            cache_backend=args.cache_backend,
        ) as service:
            responses = service.submit_batch(requests)
            stats = service.stats()
            metrics_snapshot = service.metrics()

    lines = "".join(response.to_json() + "\n" for response in responses)
    if args.output is None:
        sys.stdout.write(lines)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(lines)

    hits = sum(1 for response in responses if response.cache == "hit")
    print(
        f"{len(responses)} response(s): {stats['computed']} computed, "
        f"{hits} served from cache",
        file=sys.stderr,
    )
    if args.verbose:
        print(format_cache_stats("schedule cache", stats), file=sys.stderr)
        print(format_memo_stats(metrics_snapshot), file=sys.stderr)
    if args.metrics_out is not None:
        from repro.obs import write_metrics_file

        write_metrics_file(args.metrics_out, metrics_snapshot)
        relog.info("metrics-written", path=args.metrics_out)
    return 0


def format_cache_stats(label: str, stats: dict) -> str:
    """One stderr line of a service's cache counters (``--verbose`` mode)."""
    if "cache_entries" not in stats:
        return f"{label}: disabled"
    line = (
        f"{label}: {stats['cache_entries']} entries, "
        f"{stats['cache_hits']} hits, {stats['cache_misses']} misses, "
        f"{stats['cache_stores']} stores"
    )
    backend = stats.get("cache_backend")
    if isinstance(backend, dict) and backend.get("name"):
        location = backend.get("location")
        where = f" at {location}" if location else ""
        line += f" [backend: {backend['name']}{where}]"
    return line


def format_memo_stats(metrics_snapshot: dict) -> str:
    """One stderr line of per-worker memo-cache counters (``--verbose`` mode).

    Reads the ``repro_memo_ops_total`` samples of a merged metrics snapshot;
    pool workers drain their process-local memo deltas into the registry
    snapshots they ship back, so the totals cover the dispatching process and
    every worker alike.
    """
    from repro.obs.metrics import MEMO_OPS_TOTAL

    family = metrics_snapshot.get("families", {}).get(MEMO_OPS_TOTAL, {})
    per_memo: dict = {}
    for sample in family.get("samples", []):
        labels = sample.get("labels", {})
        ops = per_memo.setdefault(str(labels.get("memo", "?")), {})
        op = str(labels.get("op", "?"))
        ops[op] = ops.get(op, 0) + int(sample.get("value", 0))
    if not per_memo:
        return "memo caches: (no activity)"
    parts = []
    for name in sorted(per_memo):
        ops = per_memo[name]
        part = f"{name} {ops.get('hit', 0)} hits / {ops.get('miss', 0)} misses"
        if ops.get("evict"):
            part += f" / {ops['evict']} evictions"
        parts.append(part)
    return "memo caches: " + ", ".join(parts)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
