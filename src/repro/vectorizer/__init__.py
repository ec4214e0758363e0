"""Loop vectorizer: legality, planning and the LLVM-like baseline cost model.

The flow mirrors LLVM's LoopVectorize pass:

1. :mod:`repro.vectorizer.legality` decides whether a loop may be vectorized
   at all and bounds the legal VF (dependences, early exits, calls).
2. :mod:`repro.vectorizer.planner` turns *requested* factors (from pragmas or
   an agent's action) into an *effective* :class:`LoopVectorPlan` after
   clamping against legality and the machine.
3. :mod:`repro.vectorizer.cost_model` is the baseline: it picks VF/IF with a
   linear per-instruction cost table, exactly the kind of model the paper
   criticises for ignoring the computation graph.
4. The oracle the paper compares against is not here:
   :class:`repro.agents.brute_force.BruteForceAgent` measures every (VF, IF)
   pair of a loop through the run's evaluation service (reward cache, store
   and pipeline), and Figures 1, 2 and 7-9 all read its grid.
"""

from repro.vectorizer.legality import VectorizationLegality, check_legality
from repro.vectorizer.planner import FunctionVectorPlan, LoopVectorPlan, build_plan
from repro.vectorizer.cost_model import BaselineCostModel, BaselineDecision

__all__ = [
    "VectorizationLegality",
    "check_legality",
    "LoopVectorPlan",
    "FunctionVectorPlan",
    "build_plan",
    "BaselineCostModel",
    "BaselineDecision",
]
