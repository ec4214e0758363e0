"""Speculative prefetch: evaluate the policy's likely next actions early.

While PPO is inside policy inference / the update step, the fleet's
workers are idle.  :class:`SpeculativePrefetcher` fills that window: after
each rollout chunk is submitted, it peeks at the environment's *upcoming*
samples (no RNG is consumed — rollout order is untouched), replays the
policy's deterministic forward pass over their observations, ranks the
joint action distribution of each sample, and asks the fleet to evaluate
the top-k most likely actions at low priority.  By the time the rollout
reaches those samples, the demanded keys resolve as store hits (or join
the in-flight speculation) instead of paying a dispatch-and-wait.

The ranking reuses the exact inference kernels ``act_batch`` runs (the
policy's ``head_features`` + the stable softmax), and decodes index
tuples through the env's action space for the sample's task — the same
space the demand path uses — so a speculated key is byte-identical to
the demanded one.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np


class SpeculativePrefetcher:
    """Rank likely next actions and warm the fleet cache with them.

    ``env`` is a :class:`repro.rl.env.MultiTaskEnv` and ``policy`` the
    trainer's :class:`repro.rl.policy.MultiTaskPolicy` or
    :class:`repro.rl.policy.ConditionedPolicy`.  ``top_k``/``horizon``
    default from the service's ``prefetch_top_k`` / ``prefetch_horizon``
    knobs; ``horizon`` is how many upcoming samples to speculate on per
    call.  Tasks whose head is Gaussian are not speculated on.
    """

    #: Joint action spaces larger than this are not enumerated.
    MAX_JOINT_ACTIONS = 65536

    def __init__(self, env, policy, service, top_k=None, horizon=None):
        self.env = env
        self.policy = policy
        self.service = service
        self.top_k = int(service.prefetch_top_k if top_k is None else top_k)
        if horizon is None:
            horizon = service.prefetch_horizon
        self.horizon = int(horizon) if horizon else 16

    def prefetch(self) -> int:
        """Issue one round of speculation; returns how many were issued."""
        if self.top_k <= 0 or self.service.workers == 0:
            return 0
        by_task: Dict[str, List[object]] = {}
        for sample in self.env.peek_upcoming(self.horizon):
            by_task.setdefault(sample.task_name, []).append(sample)
        return sum(
            self._prefetch_task(task_name, samples)
            for task_name, samples in by_task.items()
        )

    def _prefetch_task(self, task_name: str, samples) -> int:
        from repro.rl.policy import _stable_matmul

        bank = self.policy.heads_for(task_name)
        if bank.kind != "discrete":
            return 0
        space = self.env.action_spaces[task_name]
        total = space.num_actions
        if total > self.MAX_JOINT_ACTIONS:
            return 0
        observations = np.stack(
            [np.asarray(sample.observation, dtype=np.float64) for sample in samples]
        )
        features = self.policy.head_features(observations, [task_name] * len(samples))
        # The act_batch softmax, per factored dimension.
        per_dim = []
        for head in bank.heads:
            logits = _stable_matmul(features, head.weight.data) + head.bias.data
            shifted = logits - logits.max(axis=1, keepdims=True)
            exps = np.exp(shifted)
            per_dim.append(exps / exps.sum(axis=1, keepdims=True))
        requests: List[Tuple[object, int, Tuple[int, ...]]] = []
        count = min(self.top_k, total)
        for row, sample in enumerate(samples):
            joint = per_dim[0][row]
            for probs in per_dim[1:]:
                joint = np.multiply.outer(joint, probs[row])
            flat = joint.reshape(-1)
            ranked = np.argsort(-flat, kind="stable")[:count]
            index_tuples = np.unravel_index(ranked, joint.shape)
            for position in range(count):
                raw = np.array(
                    [int(dim[position]) for dim in index_tuples], dtype=np.int64
                )
                decoded = space.decode(raw)
                requests.append((sample.kernel, sample.loop_index, decoded))
        return int(self.service.prefetch(requests, task=self.env.tasks[task_name]))
