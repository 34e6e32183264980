"""LatencyModel: per-opcode execute latencies."""

import dataclasses

import pytest

from repro.isa import LatencyModel
from repro.isa.latency import PAPER_LATENCIES, UNIT_LATENCIES
from repro.isa.opcodes import OpClass, Opcode

#: the model field that sets each class's latency
FIELD = {
    OpClass.ALU: "alu",
    OpClass.MUL: "mul",
    OpClass.DIV: "div",
    OpClass.LOAD: "load",
    OpClass.STORE: "store",
    OpClass.BRANCH: "branch",
    OpClass.JUMP: "jump",
    OpClass.SYSTEM: "system",
}

DISTINCT = LatencyModel(alu=2, mul=4, div=11, load=5, store=6, branch=7, jump=8, system=9)


@pytest.mark.parametrize(
    "model",
    [LatencyModel(), PAPER_LATENCIES, UNIT_LATENCIES, DISTINCT],
    ids=["default", "paper", "unit", "distinct"],
)
def test_every_opcode_takes_its_class_latency(model):
    for op in Opcode:
        assert model.latency_of(op) == getattr(model, FIELD[op.op_class]), op


def test_figure_3_latencies():
    # "division takes 10 clock cycles, multiplication 3, and addition 1"
    model = LatencyModel()
    assert [model.latency_of(op) for op in (Opcode.ADD, Opcode.MUL, Opcode.DIV)] == [1, 3, 10]
    assert model.latency_of(Opcode.REM) == 10
    assert model.latency_of(Opcode.MULI) == 3
    assert {UNIT_LATENCIES.latency_of(op) for op in Opcode} == {1}


def test_table_is_not_part_of_the_value():
    assert LatencyModel() == PAPER_LATENCIES
    assert hash(LatencyModel()) == hash(PAPER_LATENCIES)
    assert "_cycles" not in repr(DISTINCT)
    changed = dataclasses.replace(DISTINCT, mul=12)
    assert changed.latency_of(Opcode.MUL) == 12
    assert changed.latency_of(Opcode.ADD) == 2


def test_latencies_must_be_positive():
    with pytest.raises(ValueError, match="latency div"):
        LatencyModel(div=0)
