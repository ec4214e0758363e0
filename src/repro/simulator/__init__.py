"""Deterministic cycle-level cost simulator.

This package stands in for the paper's physical testbed (clang -O3 binaries
timed on an i7-8559U).  Given an IR function, a machine description and a
vectorization plan it produces a cycle estimate that responds to VF and IF
the way real hardware does:

* wider VF amortises per-element instruction cost until the physical vector
  width is exhausted, after which each logical vector op costs multiple
  physical ops,
* interleaving hides the latency of reduction recurrences by providing
  independent accumulator chains,
* strided and gathered accesses cost more per element and waste bandwidth,
* short trip counts make aggressive factors counter-productive (the vector
  body never executes and everything runs in the scalar epilogue),
* too much VF×IF runs out of vector registers and pays spill traffic,
* working sets that fall out of cache become bandwidth bound, which is what
  the Polly-style tiling pass exploits.
"""

from repro.simulator.cost import IterationCost, LoopCost, estimate_loop_cost
from repro.simulator.engine import FunctionCost, Simulator, simulate_function
from repro.simulator.compile_time import estimate_compile_time

__all__ = [
    "IterationCost",
    "LoopCost",
    "estimate_loop_cost",
    "FunctionCost",
    "Simulator",
    "simulate_function",
    "estimate_compile_time",
]
