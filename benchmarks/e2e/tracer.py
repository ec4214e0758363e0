"""In-memory span tracer that wraps the program's public entry points.

The benchmark measures layers from outside: nothing under ``src/`` knows it
is being traced.  :func:`install` replaces each entry point in
:data:`SPAN_TARGETS` with a recording wrapper — a method on its class (and
on every subclass that overrides it), a module-level function at its
definition site *and* in every loaded ``repro.*`` module that bound it with
``from x import f`` (otherwise ``build_plan``, ``lower_function``,
``extract_loops``, ``evaluate_requests`` … would record nothing: their
callers hold the original object).

Each span is ``[name, start, end, parent]`` kept in a per-thread list;
nothing is aggregated or written while the workload runs.  A layer's self
time is its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Dict, List, Tuple

#: span name -> entry points, as ``(module, "function")`` or
#: ``(module, "Class.method")``.
SPAN_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "frontend.parse": (("repro.frontend.parser", "parse_source"),),
    "core.extract_loops": (("repro.core.loop_extractor", "extract_loops"),),
    "core.lower_kernel": (("repro.core.pipeline", "CompileAndMeasure.lower_kernel"),),
    "core.measure": (
        ("repro.core.pipeline", "CompileAndMeasure.measure_with_pragmas"),
        ("repro.core.pipeline", "CompileAndMeasure.measure_with_factors"),
        ("repro.core.pipeline", "CompileAndMeasure.measure_function"),
        ("repro.core.pipeline", "CompileAndMeasure.measure_baseline"),
    ),
    "ir.lower_function": (("repro.ir.lowering", "lower_function"),),
    "analysis.analyze_loop": (("repro.analysis.loopinfo", "analyze_loop"),),
    "vectorizer.build_plan": (("repro.vectorizer.planner", "build_plan"),),
    "vectorizer.baseline_decide": (
        ("repro.vectorizer.cost_model", "BaselineCostModel.decide_loop"),
    ),
    "simulator.simulate": (("repro.simulator.engine", "Simulator.simulate"),),
    "simulator.compile_time": (
        ("repro.simulator.compile_time", "estimate_compile_time"),
    ),
    "polly.transform": (
        ("repro.polly.optimizer", "PollyOptimizer.optimize"),
        ("repro.polly.scop", "detect_scop"),
        ("repro.polly.transforms", "clone_function"),
        ("repro.polly.transforms", "tile_loop_nest"),
        ("repro.polly.transforms", "fuse_adjacent_loops"),
    ),
    "embedding.path_contexts": (
        ("repro.embedding.ast_paths", "extract_path_contexts"),
    ),
    "embedding.embed": (("repro.embedding.code2vec", "Code2VecModel.embed"),),
    "embedding.pretrain": (("repro.embedding.pretrain", "Code2VecPretrainer.train"),),
    "tasks.observation_features": (
        ("repro.tasks.base", "OptimizationTask.observation_features"),
    ),
    "tasks.apply": (("repro.tasks.base", "OptimizationTask.apply"),),
    "rl.build_samples": (("repro.rl.env", "build_samples"),),
    "rl.collect_batch": (("repro.rl.ppo", "PPOTrainer.collect_batch"),),
    "rl.act_batch": (("repro.rl.policy", "Policy.act_batch"),),
    "rl.update": (("repro.rl.ppo", "PPOTrainer.update"),),
    "rl.fused_minibatch": (("repro.rl.fused_update", "FusedUpdater.update_minibatch"),),
    "nn.adam_step": (("repro.nn.optim", "Adam.step"),),
    "nn.clip_gradients": (("repro.nn.optim", "Optimizer.clip_gradients"),),
    "cache.evaluate_requests": (("repro.cache.reward_cache", "evaluate_requests"),),
    "cache.measure": (
        ("repro.cache.reward_cache", "RewardCache.measure_baseline"),
        ("repro.cache.reward_cache", "RewardCache.measure_application"),
    ),
    "store.append": (("repro.distributed.store", "PersistentRewardStore.append"),),
    "store.load": (("repro.distributed.store", "PersistentRewardStore.load"),),
    "evaluation.compare": (("repro.evaluation.comparison", "ComparisonRunner.run"),),
    "agents.brute_force": (("repro.agents.brute_force", "BruteForceAgent.select_factors"),),
    "serving.next_batch": (("repro.serving.queue", "AdmissionQueue.next_batch"),),
    "serving.codec": (
        ("repro.serving.schema", "encode_message"),
        ("repro.serving.schema", "decode_message"),
    ),
    "serving.client_round_trip": (
        ("repro.serving.client", "TCPClient.optimize_many"),
        ("repro.serving.client", "InProcessClient.optimize_many"),
    ),
}

#: Name of the span ``worker.py`` wraps around the whole measured phase.
ROOT = "workload"


class Tracer:
    """Records spans while :attr:`active`; wrappers are pass-through otherwise."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (thread ident, span list) per thread that recorded anything.
        self._threads: List[Tuple[int, list]] = []

    # -- recording ----------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans))
            return local.spans, local.stack

    def wrap(self, name: str, function):
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            spans, stack = self._state()
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__e2e_traced__ = function
        return traced

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one recorded span adds to a call, measured on a no-op.

        Times the wrapper against the bare call on a throw-away tracer, so
        the estimate needs no second run of the workload and is not at the
        mercy of a noisy neighbour the way a traced/untraced wall ratio is.
        """
        def bare():
            return None

        probe = Tracer()
        probe.active = True
        timings = []
        for function in (probe.wrap("probe", bare), bare):
            started = time.perf_counter()
            for _ in range(calls):
                function()
            timings.append(time.perf_counter() - started)
        return max(0.0, timings[0] - timings[1]) / calls

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`SPAN_TARGETS`."""
        for name, targets in SPAN_TARGETS.items():
            for module_name, qualified in targets:
                module = importlib.import_module(module_name)
                if "." in qualified:
                    class_name, method = qualified.split(".")
                    self._wrap_method(name, getattr(module, class_name), method)
                else:
                    self._wrap_function(name, getattr(module, qualified))

    def _wrap_method(self, name: str, cls, method: str) -> None:
        original = cls.__dict__.get(method)
        if original is not None and not hasattr(original, "__e2e_traced__"):
            setattr(cls, method, self.wrap(name, original))
        for subclass in cls.__subclasses__():
            self._wrap_method(name, subclass, method)

    def _wrap_function(self, name: str, original) -> None:
        traced = self.wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, traced)

    # -- aggregation --------------------------------------------------------

    def aggregate(self, window_end: float, inside: Tuple[str, str]) -> Dict[str, object]:
        """Per-name ``calls``/``self_s`` over every thread, plus root totals.

        A span still open when tracing stopped (a worker thread blocked in
        ``next_batch``) is clipped to ``window_end``.  ``inside`` is a
        ``(name, ancestor)`` pair: ``nested_calls`` counts the spans called
        ``name`` that ran anywhere below a span called ``ancestor``.
        """
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        # The measuring thread is the one whose first span is the root.
        root_total = root_self = root_tree_self = 0.0
        nested_calls = 0
        with self._lock:
            threads = list(self._threads)
        for _ident, spans in threads:
            durations = [
                (end if end > 0.0 else window_end) - start
                for _name, start, end, _parent in spans
            ]
            own = list(durations)
            for index, (_name, _start, _end, parent) in enumerate(spans):
                if parent >= 0:
                    own[parent] -= durations[index]
            below: List[bool] = []
            for index, (name, _start, _end, parent) in enumerate(spans):
                under = parent >= 0 and (below[parent] or spans[parent][0] == inside[1])
                below.append(under)
                nested_calls += under and name == inside[0]
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + own[index]
            if spans and spans[0][0] == ROOT:
                root_total, root_self, root_tree_self = durations[0], own[0], sum(own)
        return {
            "calls": calls,
            "self_s": self_s,
            "root_total_s": root_total,
            "root_self_s": root_self,
            "root_tree_self_s": root_tree_self,
            "nested_calls": nested_calls,
            "spans": sum(len(spans) for _ident, spans in threads),
        }
