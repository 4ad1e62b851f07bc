"""One benchmark run: a fresh process that calls one entry point in-process.

``bench/run.py`` starts it as::

    BENCH_ENTRY=run python bench/drive.py READY_FILE TRACE_DIR -- ARGS...

``BENCH_ENTRY`` names the entry module (see ``ENTRIES``); ``ARGS`` are
the command-line arguments its ``main`` receives, exactly as the
console script would pass them. The entry module is imported at module
level, the way a console script imports it, so workers started with the
``spawn`` method (they re-import the main module) load the same modules
they load under the real command. Once imported, ``drive.py`` writes the
``time.perf_counter()`` reading to ``READY_FILE``: CLOCK_MONOTONIC is
one clock for every process on the host, so the parent subtracts its
spawn reading to get the run's set-up time.

``TRACE_DIR`` is ``-`` for an untraced run. Otherwise the layer
wrappers of :mod:`tracing` are installed before the ready mark, the
entry call runs inside the root span, and every traced process writes
``spans-<pid>.jsonl`` there; ``missing.json`` lists the wrap targets
that no longer exist.

``drive.py --probe OUT_JSON`` imports the entry module, loads the C
simulator kernel (building it on first use) and writes the library
versions and whether the kernel loaded to ``OUT_JSON``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path

ENTRIES = {
    "run": "repro.experiments.runner",
    "lint": "repro.analysis.cli",
    "stream": "stream",
}

_ENTRY = os.environ.get("BENCH_ENTRY")
entry = importlib.import_module(ENTRIES[_ENTRY]) if _ENTRY else None


def probe(out: Path) -> int:
    from importlib.metadata import PackageNotFoundError, version

    from repro.sim import _ckernel

    versions = {}
    for package in ("numpy", "scipy", "cffi"):
        try:
            versions[package] = version(package)
        except PackageNotFoundError:
            versions[package] = None
    versions["ckernel"] = _ckernel.load() is not None
    out.write_text(json.dumps(versions))
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "--probe":
        return probe(Path(argv[1]))
    ready_file, trace_dir, separator, *args = argv
    if separator != "--":
        raise SystemExit(f"usage: drive.py READY_FILE TRACE_DIR -- ARGS (got {argv})")
    if trace_dir == "-":
        Path(ready_file).write_text(repr(time.perf_counter()))
        return entry.main(args)

    import tracing

    tracer = tracing.Tracer(run=_ENTRY)
    missing = tracing.install(tracer, trace_dir)
    Path(trace_dir, "missing.json").write_text(json.dumps(missing))
    Path(ready_file).write_text(repr(time.perf_counter()))
    try:
        with tracer.span(tracing.ROOT, entry=_ENTRY):
            return entry.main(args)
    finally:
        tracer.restore()
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
