"""The Ultrascalar processors: the paper's primary contribution.

One cycle-accurate behavioural engine runs all three designs, with the
one scheduling policy the paper proves all three microarchitectures
implement; they differ only in how many stations refill at a time:

* :class:`repro.ultrascalar.ring.RingProcessor` — the Ultrascalar I:
  a wrap-around ring of execution stations connected by per-register
  CSPP circuits, with per-station refill (``cluster_size = 1``).  With
  ``1 < cluster_size < n`` it becomes the **hybrid**: clusters of
  stations refill as a unit, exactly as the paper's clusters behave
  like "super execution stations".
* :class:`repro.ultrascalar.us2.BatchProcessor` — the Ultrascalar II:
  the same engine with one cluster spanning the window, so a batch of
  ``n`` instructions issues out of order and the stations refill only
  when the whole batch has finished ("stations idle waiting for
  everyone to finish").
* :mod:`repro.ultrascalar.vector_engine` — a NumPy-vectorized
  implementation of the ring datapath for large-``n`` studies,
  bit-equivalent to :class:`RingProcessor` on register workloads.

Factories in :mod:`repro.ultrascalar.processor` build the three
configurations the paper compares.
"""

from repro.ultrascalar.memsys import CachedMemory, IdealMemory, MemorySystem
from repro.ultrascalar.processor import (
    ProcessorConfig,
    ProcessorResult,
    TimingRecord,
    make_hybrid,
    make_ultrascalar1,
    make_ultrascalar2,
)
from repro.ultrascalar.ring import RingProcessor
from repro.ultrascalar.scheduler import SchedulerCircuit, prioritized_grants
from repro.ultrascalar.station import Station, StationState
from repro.ultrascalar.trace_view import render_pipeline, stall_breakdown
from repro.ultrascalar.us2 import BatchProcessor

__all__ = [
    "CachedMemory",
    "IdealMemory",
    "MemorySystem",
    "ProcessorConfig",
    "ProcessorResult",
    "TimingRecord",
    "make_hybrid",
    "make_ultrascalar1",
    "make_ultrascalar2",
    "RingProcessor",
    "SchedulerCircuit",
    "prioritized_grants",
    "Station",
    "StationState",
    "render_pipeline",
    "stall_breakdown",
    "BatchProcessor",
]
