"""Command-line options shared by the batch CLIs and the serving daemon.

``--workers``, ``--cache-dir`` and ``--cache-backend`` size the worker pool
and choose the persistent cache of ``python -m repro.service``,
``repro.runtime``, ``repro.campaign run`` and ``repro.server serve``; they
are declared and checked here once.  Each CLI describes its own
``--cache-dir`` layout.
"""

from __future__ import annotations

import argparse


def add_pool_and_cache_arguments(parser: argparse.ArgumentParser, *, cache_dir_help: str) -> None:
    """Attach ``--workers``, ``--cache-dir`` and ``--cache-backend`` to ``parser``."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1); results are bit-identical at any "
        "worker count",
    )
    parser.add_argument("--cache-dir", default=None, metavar="DIR", help=cache_dir_help)
    parser.add_argument(
        "--cache-backend",
        default=None,
        metavar="SPEC",
        help="storage backend for the persistent caches, as a 'name:key=value' "
        "spec string — e.g. 'sqlite:path=cache.db' holds every cache in one "
        "file, safe to share between concurrent processes (see `python -m "
        "repro.store --list-backends`).  Conflicts with --cache-dir",
    )


def check_pool_and_cache_arguments(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject (through ``parser.error``) what :func:`add_pool_and_cache_arguments`
    parsed but no service accepts."""
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.cache_dir is not None and args.cache_backend is not None:
        parser.error("pass either --cache-dir or --cache-backend, not both")
    if args.cache_backend is not None:
        # Opened once here, as the CLI is about to anyway, so that a bad spec
        # or option is reported against the flag instead of as a traceback.
        from repro.store import create_backend

        try:
            create_backend(args.cache_backend).close()
        except ValueError as error:
            parser.error(f"--cache-backend: {error}")
