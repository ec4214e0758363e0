"""Machine descriptions: ports, latencies, vector parameters, presets."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from repro.machine.cache import CacheHierarchy


class OpClass(enum.Enum):
    """Operation classes with distinct latency/throughput characteristics."""

    INT_ADD = "int_add"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FLOAT_ADD = "float_add"
    FLOAT_MUL = "float_mul"
    FLOAT_DIV = "float_div"
    BITWISE = "bitwise"
    SHIFT = "shift"
    COMPARE = "compare"
    SELECT = "select"
    CONVERT = "convert"
    MATH_CALL = "math_call"
    LOAD = "load"
    STORE = "store"
    SHUFFLE = "shuffle"


@dataclass(frozen=True)
class OpCost:
    """Latency and reciprocal throughput (uops issued per port per cycle)."""

    latency: float
    recip_throughput: float


#: Latencies/throughputs loosely modelled on Intel client cores (Agner Fog
#: tables); they only need to be *relatively* right for the experiments.
_DEFAULT_OP_COSTS: Dict[OpClass, OpCost] = {
    OpClass.INT_ADD: OpCost(1.0, 0.33),
    OpClass.INT_MUL: OpCost(3.0, 1.0),
    OpClass.INT_DIV: OpCost(24.0, 12.0),
    OpClass.FLOAT_ADD: OpCost(4.0, 0.5),
    OpClass.FLOAT_MUL: OpCost(4.0, 0.5),
    OpClass.FLOAT_DIV: OpCost(13.0, 5.0),
    OpClass.BITWISE: OpCost(1.0, 0.33),
    OpClass.SHIFT: OpCost(1.0, 0.5),
    OpClass.COMPARE: OpCost(1.0, 0.5),
    OpClass.SELECT: OpCost(1.0, 0.5),
    OpClass.CONVERT: OpCost(3.0, 1.0),
    OpClass.MATH_CALL: OpCost(18.0, 10.0),
    OpClass.LOAD: OpCost(4.0, 0.5),
    OpClass.STORE: OpCost(4.0, 1.0),
    OpClass.SHUFFLE: OpCost(1.0, 1.0),
}


@dataclass
class MachineDescription:
    """Everything the simulator and the vectorizer need to know about a CPU.

    The defaults describe an AVX2 client core similar to the i7-8559U the
    paper used: 256-bit vectors, 2 vector ALU ports, 2 load ports, 1 store
    port, 4-wide issue, 16 architectural vector registers.
    """

    name: str = "avx2"
    vector_bits: int = 256
    max_vectorize_width: int = 64
    max_interleave: int = 16
    vector_alu_ports: int = 2
    load_ports: int = 2
    store_ports: int = 1
    issue_width: int = 4
    vector_registers: int = 16
    frequency_ghz: float = 2.7
    op_costs: Dict[OpClass, OpCost] = field(
        default_factory=lambda: dict(_DEFAULT_OP_COSTS)
    )
    cache: CacheHierarchy = field(default_factory=CacheHierarchy.skylake_like)
    #: Extra uops per element for gathers/scatters (no fast gather hardware).
    gather_cost_per_element: float = 1.5
    scatter_cost_per_element: float = 2.0
    #: Extra uops per vector access with a constant non-unit stride.
    strided_cost_per_element: float = 0.6
    #: Penalty factor applied to unaligned vector memory accesses.
    misalignment_penalty: float = 0.15
    #: Fixed cycles for entering a vectorized loop (runtime trip-count and
    #: alias checks) when the trip count or aliasing is unknown statically.
    runtime_check_cycles: float = 24.0
    #: Cycles per scalar iteration of loop control (increment+compare+branch).
    loop_overhead_cycles: float = 1.0
    #: Cost of combining VF partial results of a reduction at loop exit.
    reduction_combine_cost_per_step: float = 1.0
    #: Cycles per vector register spilled/reloaded per loop iteration.
    spill_cost_cycles: float = 6.0

    # -- derived helpers ---------------------------------------------------------

    def lanes_for(self, element_bits: int) -> int:
        """How many elements of this width fit in one physical register."""
        return max(1, self.vector_bits // max(1, element_bits))

    def physical_parts(self, vf: int, element_bits: int) -> int:
        """Number of physical vector registers one logical <VF x ty> occupies."""
        lanes = self.lanes_for(element_bits)
        return max(1, -(-vf // lanes))  # ceil division

    def cost(self, op_class: OpClass) -> OpCost:
        return self.op_costs[op_class]

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / (self.frequency_ghz * 1e9)


def avx2_machine() -> MachineDescription:
    """256-bit AVX2 machine fashioned after the paper's i7-8559U."""
    return MachineDescription()


def avx512_machine() -> MachineDescription:
    """A wider machine (AVX-512-like) used in ablation benches."""
    machine = MachineDescription(name="avx512", vector_bits=512, vector_registers=32)
    return machine


def scalar_machine() -> MachineDescription:
    """A machine without SIMD (every vector op is scalarised)."""
    return MachineDescription(name="scalar", vector_bits=64, max_vectorize_width=1,
                              max_interleave=4)


#: The machine every experiment uses unless stated otherwise.
DEFAULT_MACHINE = avx2_machine()
