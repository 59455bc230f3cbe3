"""The rule catalog.

Importing this package registers every rule with
:mod:`repro.devtools.registry`.  Rules are grouped by the invariant family
they guard:

* :mod:`.immutability` — REP2xx, ``Pattern`` and tree-node value semantics;
* :mod:`.determinism` — REP3xx, seeded randomness outside ``synth``;
* :mod:`.hygiene` — REP4xx, public-API and hot-path hygiene;
* :mod:`.encoding` — REP5xx, the bitmask-kernel contract of the encoded
  tree hot paths;
* :mod:`.resilience` — REP6xx, stray sleeps and unbounded retry loops;
* :mod:`.kernels` — REP7xx, batched counting (no per-candidate probe
  loops outside the legacy oracle);
* :mod:`.serve` — REP8xx, the serving tier's event-loop contract (no
  blocking calls inside coroutines);
* :mod:`.streaming` — REP9xx, bounded state on unbounded feeds (every
  growth in a streaming path has an eviction or watermark bound);
* :mod:`.durability` — REP10xx, atomic state-file writes (durable state
  routes through the snapshot helper; append-only logs are the exempt
  journal/WAL idiom);
* :mod:`.columnar` — REP11xx, vectorized scans (no Python loops over the
  segment store's row buffer outside the wide-vocabulary fallback).
"""

from repro.devtools.rules import (  # noqa: F401  (imports register rules)
    columnar,
    determinism,
    durability,
    encoding,
    hygiene,
    immutability,
    kernels,
    resilience,
    serve,
    streaming,
)

__all__ = [
    "columnar",
    "determinism",
    "durability",
    "encoding",
    "hygiene",
    "immutability",
    "kernels",
    "resilience",
    "serve",
    "streaming",
]
