"""CLI of the serving daemon: ``python -m repro.server``.

``serve`` runs the daemon in the foreground until it is told to stop (the
wire-level ``shutdown`` op, SIGINT or SIGTERM — all drain gracefully)::

    python -m repro.server serve --port 7341 --workers 4 --cache-dir cache/

``request`` is the batch CLIs' exact JSONL contract, routed through a running
daemon instead of a private pool: request envelopes in (schedule and sim
requests may be mixed), response envelopes out, in input order — plus the
same declarative ``--scenario`` mode as ``python -m repro.service``::

    python -m repro.server request --server 127.0.0.1:7341 requests.jsonl -o out.jsonl
    python -m repro.server request --server 127.0.0.1:7341 \
        --scenario faulty-controller --systems 3 --methods static gpiocp

``stats``, ``health``, ``metrics`` and ``shutdown`` are one-shot ops against
a daemon (``metrics`` prints Prometheus text exposition, the rest JSON)::

    python -m repro.server stats --server 127.0.0.1:7341
    python -m repro.server metrics --server 127.0.0.1:7341
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
from typing import Any, Dict, List, Optional, Sequence, TextIO

from repro.cli import add_pool_and_cache_arguments, check_pool_and_cache_arguments
from repro.core import logging as relog
from repro.server.client import ServerClient, parse_address
from repro.server.daemon import DEFAULT_HOST, ReproServer
from repro.server.dispatcher import DEFAULT_MAX_QUEUE
from repro.server.protocol import DEFAULT_MAX_LINE_BYTES

DEFAULT_PORT = 7341


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Persistent scheduling/simulation server and its clients.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run the daemon in the foreground until shut down"
    )
    serve.add_argument("--host", default=DEFAULT_HOST, help=f"bind address (default: {DEFAULT_HOST})")
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"listen port; 0 binds an ephemeral port (default: {DEFAULT_PORT})",
    )
    add_pool_and_cache_arguments(
        serve,
        cache_dir_help="persistent cache root, in the batch CLIs' layout "
        "(schedules/ and sim-responses/ beneath it); omit to cache in memory only",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=DEFAULT_MAX_QUEUE,
        metavar="N",
        help="admission bound: computations queued or running before requests "
        f"are rejected with retry-after (default: {DEFAULT_MAX_QUEUE})",
    )
    serve.add_argument(
        "--max-line-bytes",
        type=int,
        default=DEFAULT_MAX_LINE_BYTES,
        metavar="N",
        help=f"wire-protocol per-line limit (default: {DEFAULT_MAX_LINE_BYTES})",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        metavar="FILE",
        help="write the bound port to FILE once listening (handy with --port 0)",
    )
    serve.add_argument(
        "--no-remote-shutdown",
        action="store_true",
        help="ignore the wire-level shutdown op (signals still work)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the final metrics (Prometheus text exposition) to FILE "
        "when the daemon stops",
    )
    relog.add_log_level_argument(serve, default="info")

    request = commands.add_parser(
        "request",
        help="send a JSONL request batch through a running daemon "
        "(the batch CLIs' envelope format, schedule and sim requests mixed)",
    )
    _add_server_argument(request)
    request.add_argument(
        "input",
        nargs="?",
        default=None,
        help="request JSONL file ('-' reads stdin); one versioned "
        "repro/schedule-request or repro/sim-request payload per line.  "
        "Omit when using --scenario",
    )
    request.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_JSON",
        help="generate schedule requests from a scenario (preset name or "
        "inline repro/scenario JSON) instead of reading a request file",
    )
    request.add_argument(
        "--systems",
        type=int,
        default=1,
        metavar="N",
        help="with --scenario: schedule system indices 0..N-1 (default: 1)",
    )
    request.add_argument(
        "--methods",
        nargs="+",
        default=["static"],
        metavar="SPEC",
        help="with --scenario: scheduler spec strings per system (default: static)",
    )
    request.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="response JSONL file (default: stdout)",
    )
    request.add_argument(
        "--window",
        type=int,
        default=32,
        metavar="N",
        help="requests kept in flight on the connection (default: 32)",
    )

    relog.add_log_level_argument(request)

    for name, help_text in (
        ("stats", "print a running daemon's live statistics as JSON"),
        ("health", "print a running daemon's health summary as JSON"),
        ("metrics", "print a running daemon's metrics as Prometheus text"),
        ("shutdown", "ask a running daemon to drain and exit"),
    ):
        command = commands.add_parser(name, help=help_text)
        _add_server_argument(command)
        relog.add_log_level_argument(command)
    return parser


def _add_server_argument(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--server",
        default=f"{DEFAULT_HOST}:{DEFAULT_PORT}",
        metavar="HOST:PORT",
        help=f"daemon address (default: {DEFAULT_HOST}:{DEFAULT_PORT})",
    )


def serve_main(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    check_pool_and_cache_arguments(parser, args)
    # Checked here, before anything opens a cache or binds a port.
    if args.max_queue < 1:
        parser.error(f"--max-queue must be >= 1, got {args.max_queue}")
    if args.max_line_bytes < 1:
        parser.error(f"--max-line-bytes must be >= 1, got {args.max_line_bytes}")
    server = ReproServer(
        host=args.host,
        port=args.port,
        n_workers=args.workers,
        cache_dir=args.cache_dir,
        cache_backend=args.cache_backend,
        max_queue=args.max_queue,
        max_line_bytes=args.max_line_bytes,
        allow_remote_shutdown=not args.no_remote_shutdown,
        port_file=args.port_file,
    )

    async def run() -> None:
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signal_number, server.request_shutdown)
        await server.start()
        relog.info(
            "server-started",
            host=server.host,
            port=server.port,
            workers=args.workers,
            cache=args.cache_backend or args.cache_dir or "memory",
        )
        await server.run()

    asyncio.run(run())
    if args.metrics_out is not None:
        from repro.obs.expo import write_metrics_file

        write_metrics_file(args.metrics_out, server.metrics_snapshot())
        relog.info("metrics-written", path=args.metrics_out)
    relog.info("server-stopped")
    return 0


def read_envelopes(handle: TextIO, *, source: str) -> List[Dict[str, Any]]:
    """Read raw request envelopes (one JSON object per line)."""
    envelopes: List[Dict[str, Any]] = []
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            envelope = json.loads(line)
        except ValueError as error:
            raise SystemExit(f"{source}:{line_number}: invalid JSON: {error}")
        if not isinstance(envelope, dict):
            raise SystemExit(f"{source}:{line_number}: expected a JSON object")
        envelopes.append(envelope)
    return envelopes


def request_main(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if (args.input is None) == (args.scenario is None):
        parser.error("provide exactly one of an input file and --scenario")
    if args.systems < 1:
        parser.error(f"--systems must be >= 1, got {args.systems}")
    if args.window < 1:
        parser.error(f"--window must be >= 1, got {args.window}")
    if args.scenario is not None:
        from repro.service.__main__ import scenario_requests

        try:
            requests = scenario_requests(args.scenario, args.methods, args.systems)
        except (ValueError, KeyError) as error:
            parser.error(f"--scenario: {error}")
        envelopes = [request.to_dict() for request in requests]
    elif args.input == "-":
        envelopes = read_envelopes(sys.stdin, source="<stdin>")
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            envelopes = read_envelopes(handle, source=args.input)

    host, port = parse_address(args.server)
    with ServerClient(host, port, window=args.window) as client:
        answers = client.submit_envelopes(envelopes)

    lines = "".join(json.dumps(answer, sort_keys=True) + "\n" for answer in answers)
    if args.output is None:
        sys.stdout.write(lines)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(lines)

    statuses = [answer["data"]["cache"]["status"] for answer in answers]
    computed = sum(1 for status in statuses if status != "hit")
    hits = sum(1 for status in statuses if status == "hit")
    print(
        f"{len(answers)} response(s): {computed} computed, {hits} served from cache",
        file=sys.stderr,
    )
    return 0


def one_shot_main(args: argparse.Namespace) -> int:
    host, port = parse_address(args.server)
    with ServerClient(host, port) as client:
        payload = client.call(args.command)
    if args.command == "metrics":
        # The payload wraps Prometheus text exposition; print it raw so the
        # output pipes straight into scrape tooling.
        sys.stdout.write(payload["text"])
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    relog.configure_from_args(args)
    if args.command == "serve":
        return serve_main(args, parser)
    if args.command == "request":
        try:
            parse_address(args.server)
        except ValueError as error:
            parser.error(f"--server: {error}")
        return request_main(args, parser)
    try:
        parse_address(args.server)
    except ValueError as error:
        parser.error(f"--server: {error}")
    return one_shot_main(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
