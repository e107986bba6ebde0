"""The serving daemon with the benchmark's tracer installed.

Usage: ``python perfbench/traced_daemon.py SPANS_PATH SERVE_ARGS...``.

Installs the wrappers of ``tracer.py`` and then runs ``repro.server``'s own
``serve`` entry point with ``SERVE_ARGS``, so the daemon's event loop calls
the cache, store and pool-submission functions it always calls, through the
wrappers.  When the daemon stops, its spans and their per-layer summary
(under ``meta.summary``) are written to ``SPANS_PATH``.  Work inside the
daemon's pool worker is not traced here.
"""

import sys
from pathlib import Path


def main() -> int:
    spans_path, serve_args = Path(sys.argv[1]), sys.argv[2:]
    import tracer as tracing
    from repro.server.__main__ import main as server_main

    recorder = tracing.Tracer()
    tracing.install(recorder)
    try:
        return server_main(["serve", *serve_args])
    finally:
        tracing.uninstall(recorder)
        recorder.dump(spans_path, {"summary": recorder.summary()})


if __name__ == "__main__":
    sys.exit(main())
