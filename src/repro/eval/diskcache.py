"""Disk-backed persistent evaluation cache.

The in-memory tiers of :class:`~repro.eval.core.Evaluator` die with
the process; this cache lets an :class:`~repro.eval.core.
EvaluatorPool` spill evaluated entries to disk and warm-start from
them, so repeated dse/campaign/verify sweeps over shared workloads
skip already-evaluated cells across runs (and across worker
processes sharing one filesystem).

Layout — content-addressed, one file per entry::

    <cache-dir>/
        v<format>-<package version>/       # invalidation namespace
            <problem key>/                 # sha256 of the problem
                                           # fingerprint (workload,
                                           # fault model, priorities)
                estimates/<aa>/<sha256 of the tier key>.pkl
                schedules/<aa>/<...>.pkl

The tier key is the exact in-memory cache key (solution fingerprint
plus evaluation config such as bus contention and slack sharing), so
a disk hit is keyed by precisely what determines the result. Entries
are pickled evaluation objects; loads are verified bit-identical to
recomputes by the tests. Only the *leaf* tiers (estimates, exact
schedules) spill to disk: caching a composite like
:class:`~repro.eval.core.DesignEvaluation` would let a disk hit skip
the nested schedule lookup and skew its miss counters, which sweep
cells report.

Invalidation is by namespace: the top-level directory embeds the
on-disk format *and* the package version, so upgrading the package
(or bumping :data:`CACHE_FORMAT` on semantic changes) simply stops
reading old entries — stale directories can be deleted at leisure.

Robustness over cleverness: writes go through a unique temp file and
``os.replace`` (concurrent writers of the same key both produce valid
entries, last one wins); unreadable or corrupt entries count as
misses and are recomputed and overwritten; I/O errors never fail an
evaluation — the cache degrades to a no-op and counts the error.

Because the disk lookup happens *after* an in-memory miss is counted
and stores exactly what the compute path would have produced, enabling
the cache changes no result and no in-memory counter — reports stay
byte-identical with and without it. Wiring is therefore out-of-band:
the ``REPRO_EVAL_CACHE_DIR`` environment variable (or the
``cache_dir`` pool argument) rather than job parameters.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import uuid
from dataclasses import dataclass
from pathlib import Path

#: Environment variable naming the cache directory; read per
#: :class:`~repro.eval.core.EvaluatorPool` construction, so worker
#: processes inherit the choice through their environment.
CACHE_DIR_ENV = "REPRO_EVAL_CACHE_DIR"

#: On-disk format version; bump when entry semantics change.
CACHE_FORMAT = 1


def cache_dir_default() -> str | None:
    """The environment-configured cache directory (None: disabled)."""
    value = os.environ.get(CACHE_DIR_ENV, "").strip()
    return value or None


@dataclass
class DiskCacheStats:
    """Lookup/store counters of one :class:`DiskCache`."""

    hits: int = 0
    misses: int = 0
    stored: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        """Total disk probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from disk."""
        return self.hits / self.lookups if self.lookups else 0.0


class DiskCache:
    """One cache directory (see the module docstring)."""

    def __init__(self, root: str | Path) -> None:
        # Imported here, not at module top: the version lookup scans
        # the installed distributions, a cost only runs with a cache
        # directory should pay.
        from repro._version import __version__

        self.root = Path(root)
        self.namespace = self.root / f"v{CACHE_FORMAT}-{__version__}"
        self.stats = DiskCacheStats()

    @staticmethod
    def _digest(value: object) -> str:
        return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()

    def problem_key(self, fingerprint: object) -> str:
        """Stable directory name for one problem fingerprint."""
        return self._digest(fingerprint)

    def _entry_path(self, problem_key: str, tier: str,
                    key: object) -> Path:
        digest = self._digest((CACHE_FORMAT, tier, key))
        return (self.namespace / problem_key / tier / digest[:2]
                / f"{digest}.pkl")

    def get(self, problem_key: str, tier: str, key: object):
        """The stored entry, or None (miss, corrupt, unreadable)."""
        path = self._entry_path(problem_key, tier, key)
        try:
            payload = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            value = pickle.loads(payload)
        # repro: allow[REP005] pickle raises arbitrary exception types
        # on corrupt bytes; degrading to a counted miss is the contract
        except Exception:
            # Corrupt entry (killed writer on a filesystem without
            # atomic replace, bit rot): a miss that will be recomputed
            # and overwritten.
            self.stats.misses += 1
            self.stats.errors += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, problem_key: str, tier: str, key: object,
            value: object) -> None:
        """Store one entry atomically; I/O problems are swallowed."""
        try:
            payload = pickle.dumps(value,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        # repro: allow[REP005] pickle raises arbitrary exception types
        # on unpicklable values; the cache degrades to a counted error
        except Exception:
            self.stats.errors += 1
            return
        path = self._entry_path(problem_key, tier, key)
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        except OSError:
            self.stats.errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass  # a path component is not even a directory
            return
        self.stats.stored += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats
        return (f"DiskCache({str(self.root)!r}, {s.hits} hit(s), "
                f"{s.misses} miss(es), {s.stored} stored)")
