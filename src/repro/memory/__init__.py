"""Memory-system substrates.

The paper connects the execution stations "to an interleaved data cache
and to an instruction trace cache via two fat-tree or butterfly
networks".  This subpackage provides cycle-level behavioural models of
those structures, with the fat tree (:mod:`repro.network.fattree`) as
the admission network:

* :mod:`repro.memory.mainmem` -- a flat word-addressed backing store
  with configurable access latency.
* :mod:`repro.memory.interleaved_cache` -- a banked, word-interleaved,
  write-back data cache; one request per bank per cycle, bank conflicts
  and miss traffic modelled, fed through a fat-tree admission stage.
* :mod:`repro.memory.trace_cache` -- an instruction trace cache
  (Rotenberg et al.) that lets the fetch unit cross taken branches.
* :mod:`repro.memory.cluster_cache` -- the Section 7 suggestion: a data
  cache distributed among the clusters, cutting shared-memory bandwidth.
"""

from repro.memory.cluster_cache import ClusterCacheStats, ClusteredMemory
from repro.memory.interleaved_cache import CacheStats, InterleavedCache, MemoryRequest
from repro.memory.mainmem import MainMemory
from repro.memory.trace_cache import TraceCache, TraceCacheStats

__all__ = [
    "CacheStats",
    "ClusterCacheStats",
    "ClusteredMemory",
    "InterleavedCache",
    "MemoryRequest",
    "MainMemory",
    "TraceCache",
    "TraceCacheStats",
]
