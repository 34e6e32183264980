"""The execution station (the paper's Figure 2).

"An execution station is responsible for decoding and executing an
instruction given the data in its register file.  Each station includes
its own functional units (ALU), its own register file, instruction
decode logic, and control logic."

In the behavioural model a station carries one dynamic instruction and
its progress through the pipeline-less Ultrascalar lifecycle:

EMPTY -> WAITING (arguments not all ready)
      -> EXECUTING (functional-unit latency counting down)
      -> MEMORY (loads/stores waiting on the memory system)
      -> DONE (result computed, ready bit high)

Deallocation back to EMPTY happens when the station and every earlier
station are DONE — computed, like everything else, by a CSPP condition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.frontend.fetch import FetchedInstruction


class StationState(enum.Enum):
    """Lifecycle of an execution station's current instruction."""

    EMPTY = "empty"
    WAITING = "waiting"
    EXECUTING = "executing"
    MEMORY = "memory"
    DONE = "done"


@dataclass
class Station:
    """One execution station's dynamic state."""

    index: int
    fetched: FetchedInstruction | None = None
    state: StationState = StationState.EMPTY
    #: dynamic sequence number of the held instruction (fetch order)
    seq: int = -1
    #: cycle the instruction entered this station
    fetch_cycle: int = -1
    #: cycle execution began (arguments became ready), -1 until issue
    issue_cycle: int = -1
    #: cycle the result became available to consumers (DONE), -1 until then
    complete_cycle: int = -1
    #: remaining functional-unit cycles while EXECUTING
    remaining: int = 0
    #: resolved operand values (filled at issue)
    operands: tuple[int, ...] = ()
    #: result value (valid when DONE and the instruction writes a register)
    result: int | None = None
    #: effective address for memory operations
    address: int | None = None
    #: actual branch outcome (valid when DONE for control instructions)
    taken: bool | None = None
    #: id of the outstanding memory request, if any
    memory_request_id: int | None = None
    #: architecturally committed, but the station is not yet freed
    #: (clusters of stations deallocate as a unit)
    committed: bool = False

    @property
    def occupied(self) -> bool:
        """True when the station holds an instruction."""
        return self.state is not StationState.EMPTY

    @property
    def done(self) -> bool:
        """True when the held instruction has finished executing."""
        return self.state is StationState.DONE

    def clear(self) -> None:
        """Return the station to EMPTY (deallocation or squash)."""
        self.fetched = None
        self.state = StationState.EMPTY
        self.seq = -1
        self.fetch_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.remaining = 0
        self.operands = ()
        self.result = None
        self.address = None
        self.taken = None
        self.memory_request_id = None
        self.committed = False

    def load(self, fetched: FetchedInstruction, seq: int, cycle: int) -> None:
        """Fill the station with a newly fetched instruction."""
        self.clear()
        self.fetched = fetched
        self.state = StationState.WAITING
        self.seq = seq
        self.fetch_cycle = cycle

    @property
    def writes_register(self) -> int | None:
        """The register this station's instruction writes, if any."""
        if self.fetched is None:
            return None
        writes = self.fetched.instruction.writes
        return writes[0] if writes else None
