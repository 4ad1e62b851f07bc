"""Incremental lint cache: content-hash-keyed reuse of per-file results.

Two kinds of entries ride on the :class:`repro.core.diskcache.DiskCache`
machinery (atomic writes, LRU eviction, quarantine-on-corruption):

* **summaries** — a file's :class:`~repro.analysis.graph.ModuleSummary`,
  keyed by ``(engine version, config fingerprint, path, content hash)``.
  The summary depends on nothing but the file's bytes and where it sits
  (its module name, against which relative imports resolve), so a warm
  run rebuilds the whole-program graph without parsing anything.
* **diagnostics** — a file's final findings (which carry its path),
  keyed additionally by the content hashes of its transitive
  package-internal imports (the callee summaries its cross-module
  rules consult), the project-facts fingerprint (schema columns,
  metrics keys, registry ids) and the fingerprint of the input schemas
  inferred *for* its functions from call sites elsewhere. That last
  component points against the import direction: REP202 facts flow
  caller -> callee, so a caller edit that changes what a callee
  receives re-keys the callee too, keeping the cache sound without
  hashing the whole reverse closure.

Editing one file therefore invalidates exactly: the file itself, every
file whose import closure contains it, and any file whose inferred
input schemas the edit changed. Everything else is served from cache.
"""

from __future__ import annotations

from pathlib import Path

from ..core.diskcache import MISS, DiskCache, cache_key

__all__ = ["LintCache", "MISS"]

#: Bump when summary shape, diagnostic semantics, key derivation or the
#: cache's entry format change; old entries then miss, not quarantine.
ENGINE_VERSION = "repro-lint/9"


class LintCache:
    """Disk-backed store for per-file summaries and diagnostics."""

    def __init__(self, root: str | Path) -> None:
        # Entries are tiny (a summary or a diagnostic list per file);
        # budget by count, two entries per tree file plus headroom.
        self._cache = DiskCache(
            Path(root), max_bytes=256 * 1024**2, max_entries=4096
        )

    # -- keys -----------------------------------------------------------------

    @staticmethod
    def summary_key(config_fp: str, relpath: str, src_hash: str) -> str:
        return cache_key(
            kind="reprolint-summary",
            engine=ENGINE_VERSION,
            config=config_fp,
            path=relpath,
            src=src_hash,
        )

    @staticmethod
    def diagnostics_key(
        config_fp: str,
        facts_fp: str,
        relpath: str,
        src_hash: str,
        closure_hashes: tuple[str, ...],
        flow_fp: str,
    ) -> str:
        return cache_key(
            kind="reprolint-diags",
            engine=ENGINE_VERSION,
            config=config_fp,
            facts=facts_fp,
            path=relpath,
            src=src_hash,
            closure=tuple(sorted(closure_hashes)),
            flow=flow_fp,
        )

    # -- entries --------------------------------------------------------------

    def get(self, key: str) -> object:
        return self._cache.get(key)

    def put(self, key: str, value: object) -> None:
        self._cache.put(key, value)

    @property
    def stats(self):
        return self._cache.stats
