"""Tests for the transfer stack: conditioned policy, splits, fine-tuning.

The guarantees pinned here:

* ``make_policy(conditioning="banks")`` is the PR-5 head-bank network to
  the byte: construction, sampling (including the RNG stream state) and
  Adam updates match a directly-constructed ``MultiTaskPolicy`` exactly;
* the embedding-conditioned policy keeps the batched-inference contract
  (``act_batch`` == N serial ``act`` calls, bit for bit) and its
  ``evaluate`` reproduces the sampled log-probs — property-tested over
  random same-arity menu sets and task subsets;
* a frozen-trunk fine-tune moves *only* the target task's embedding row
  and head stack: the trunk, the new-task prior and every other task's
  embedding row keep their exact bytes across ten optimizer steps;
* kernel splits are seed-stable across processes (regardless of
  ``PYTHONHASHSEED``), disjoint, covering, and leakage-checked — a
  comparison whose "held-out" kernels were trained on is rejected;
* ``compare_all_tasks(kernel_split=...)`` emits the generalization
  matrix for every trained task, and the compile service serves every
  task of one conditioned policy in a single coalesced tick.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import evaluate, ops
from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.datasets.kernels import LoopKernel
from repro.evaluation.comparison import GeneralizationMatrix, SplitComparison
from repro.evaluation.splits import KernelSplit, split_kernels
from repro.nn.optim import Adam
from repro.rl.policy import ConditionedPolicy, MultiTaskPolicy, make_policy
from repro.rl.spaces import DiscreteFactorSpace
from repro.serving import CompileRequest, CompileService
from repro.tasks import get_task

ALL_TASKS = ("vectorization", "polly-tiling", "unrolling")

SOURCES = {
    "dot": """
float a[2048], b[2048];
float dot() {
    float s = 0;
    for (int i = 0; i < 2048; i++) {
        s += a[i] * b[i];
    }
    return s;
}
""",
    "scale": """
float x[2048], y[2048];
void scale(float alpha) {
    for (int i = 0; i < 2048; i++) {
        y[i] = alpha * x[i];
    }
}
""",
    "saxpy": """
float u[2048], v[2048];
void saxpy(float alpha) {
    for (int i = 0; i < 2048; i++) {
        v[i] = alpha * u[i] + v[i];
    }
}
""",
    "shift": """
int p[2048], q[2048];
void shift() {
    for (int i = 0; i < 2048; i++) {
        q[i] = p[i] + 3;
    }
}
""",
}

FUNCTION_NAMES = {"dot": "dot", "scale": "scale", "saxpy": "saxpy", "shift": "shift"}


def suite():
    return [
        LoopKernel(name=name, source=source, function_name=FUNCTION_NAMES[name])
        for name, source in SOURCES.items()
    ]


def snapshot(module):
    return [parameter.data.copy() for parameter in module.parameters()]


def bytes_equal(before, after):
    return all(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(before, after)
    )


# ---------------------------------------------------------------------------
# Satellite 1: conditioning="banks" is the PR-5 network, byte for byte
# ---------------------------------------------------------------------------


class TestBanksByteIdentity:
    def _spaces(self):
        return OrderedDict(
            (name, get_task(name).action_space("discrete"))
            for name in ("vectorization", "unrolling")
        )

    def _pair(self, seed=3):
        spaces = self._spaces()
        via_factory = make_policy(
            "discrete", 10, spaces=spaces, seed=seed, conditioning="banks"
        )
        direct = MultiTaskPolicy(10, spaces, seed=seed)
        return via_factory, direct

    def test_construction_is_byte_identical(self):
        via_factory, direct = self._pair()
        assert type(via_factory) is MultiTaskPolicy
        factory_state = via_factory.state_dict()
        direct_state = direct.state_dict()
        assert factory_state.keys() == direct_state.keys()
        for key in factory_state:
            assert np.array_equal(factory_state[key], direct_state[key])

    def test_sampling_and_rng_stream_are_byte_identical(self):
        via_factory, direct = self._pair()
        observations = np.random.default_rng(0).normal(size=(6, 10))
        for row in observations:
            for task in ("vectorization", "unrolling"):
                a = via_factory.act(row, task=task)
                b = direct.act(row, task=task)
                assert np.array_equal(a.action, b.action)
                assert a.log_prob == b.log_prob
                assert a.value == b.value
        assert (
            via_factory.rng.bit_generator.state == direct.rng.bit_generator.state
        )

    def test_adam_updates_are_byte_identical(self):
        via_factory, direct = self._pair()
        rng = np.random.default_rng(1)
        observations = rng.normal(size=(8, 10))
        actions = np.stack(
            [rng.integers(0, 2, size=8), rng.integers(0, 2, size=8)], axis=1
        )
        for policy in (via_factory, direct):
            optimizer = Adam(policy.parameters(), 1e-2)
            for _ in range(3):
                optimizer.zero_grad()
                log_probs, entropy, values = evaluate(
                    policy, observations, actions, task="vectorization"
                )
                loss = ops.mean(ops.add(log_probs, ops.add(entropy, values)))
                loss.backward()
                optimizer.step()
        factory_state = via_factory.state_dict()
        direct_state = direct.state_dict()
        for key in factory_state:
            assert np.array_equal(factory_state[key], direct_state[key])

    def test_default_for_joint_spaces_is_embedding(self):
        spaces = self._spaces()
        joint = make_policy("discrete", 10, spaces=spaces, seed=0)
        assert isinstance(joint, ConditionedPolicy)
        single = make_policy(
            "discrete",
            10,
            spaces=OrderedDict([("vectorization", spaces["vectorization"])]),
            seed=0,
        )
        assert type(single) is MultiTaskPolicy


# ---------------------------------------------------------------------------
# Satellite 2: property tests over random menus and task subsets
# ---------------------------------------------------------------------------


def menu_sets():
    """Random same-arity menu sets: 1-3 factors of 2-4 choices each."""
    return st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3)


def conditioned(sizes, task_count, seed, observation_dim=6):
    menus = tuple(tuple(range(size)) for size in sizes)
    spaces = OrderedDict(
        (f"task{i}", DiscreteFactorSpace(menus)) for i in range(task_count)
    )
    return ConditionedPolicy(
        observation_dim, spaces, hidden_sizes=(16, 16), seed=seed, task_embed_dim=4
    )


class TestConditionedProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        sizes=menu_sets(),
        task_count=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
        data=st.data(),
    )
    def test_act_batch_matches_serial_act_bytewise(
        self, sizes, task_count, seed, data
    ):
        batch = data.draw(st.integers(min_value=1, max_value=7))
        names = [
            data.draw(st.sampled_from([f"task{i}" for i in range(task_count)]))
            for _ in range(batch)
        ]
        observations = np.random.default_rng(seed).normal(size=(batch, 6))
        batched_policy = conditioned(sizes, task_count, seed)
        serial_policy = conditioned(sizes, task_count, seed)

        batched = batched_policy.act_batch(observations, tasks=names)
        serial = [
            serial_policy.act(observations[i], task=names[i]) for i in range(batch)
        ]
        for a, b in zip(batched, serial):
            assert np.array_equal(a.action, b.action)
            assert a.log_prob == b.log_prob
            assert a.value == b.value
        assert (
            batched_policy.rng.bit_generator.state
            == serial_policy.rng.bit_generator.state
        )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        sizes=menu_sets(),
        task_count=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_evaluate_round_trips_sampled_log_probs(self, sizes, task_count, seed):
        policy = conditioned(sizes, task_count, seed)
        observations = np.random.default_rng(seed + 1).normal(size=(5, 6))
        for name in policy.task_names:
            outputs = policy.act_batch(observations, task=name)
            actions = np.stack([output.action for output in outputs])
            log_probs, _entropy, values = evaluate(
                policy, observations, actions, task=name
            )
            assert np.allclose(
                log_probs.data, [output.log_prob for output in outputs]
            )
            assert np.allclose(values.data, [output.value for output in outputs])

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        sizes=menu_sets(),
        task_count=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_frozen_fine_tune_moves_only_the_new_task(
        self, sizes, task_count, seed
    ):
        policy = conditioned(sizes, task_count, seed)
        menus = tuple(tuple(range(size)) for size in sizes)
        row = policy.add_task("fresh", DiscreteFactorSpace(menus))
        assert np.array_equal(row.data, policy.new_task_init.data)

        trunk_before = snapshot(policy.trunk)
        prior_before = policy.new_task_init.data.copy()
        rows_before = {
            name: policy.task_embeddings[name].data.copy()
            for name in policy.task_names
            if name != "fresh"
        }
        stacks_before = {
            name: snapshot(policy.heads_for(name))
            for name in policy.task_names
            if name != "fresh"
        }
        fresh_row_before = row.data.copy()

        rng = np.random.default_rng(seed + 2)
        observations = rng.normal(size=(6, 6))
        actions = np.stack(
            [rng.integers(0, size, size=6) for size in sizes], axis=1
        )
        optimizer = Adam(policy.transfer_parameters("fresh"), 1e-2)
        for _ in range(10):
            policy.zero_grad()
            log_probs, entropy, values = evaluate(
                policy, observations, actions, task="fresh"
            )
            loss = ops.mean(ops.add(log_probs, ops.add(entropy, values)))
            loss.backward()
            optimizer.step()

        assert bytes_equal(trunk_before, snapshot(policy.trunk))
        assert np.array_equal(prior_before, policy.new_task_init.data)
        for name, before in rows_before.items():
            assert np.array_equal(before, policy.task_embeddings[name].data)
        for name, before in stacks_before.items():
            assert bytes_equal(before, snapshot(policy.heads_for(name)))
        assert not np.array_equal(fresh_row_before, row.data)

    def test_shared_stack_private_for_added_tasks(self):
        policy = conditioned([3, 3], task_count=2, seed=0)
        # Same arity at construction -> one shared stack.
        assert policy.heads_for("task0") is policy.heads_for("task1")
        policy.add_task("later", DiscreteFactorSpace(((0, 1, 2), (0, 1, 2))))
        # Same arity via add_task -> private stack (transfer isolation).
        assert policy.heads_for("later") is not policy.heads_for("task0")


# ---------------------------------------------------------------------------
# Satellite 3: split integrity
# ---------------------------------------------------------------------------


class TestKernelSplits:
    NAMES = [f"kernel{i:02d}" for i in range(12)]

    def test_disjoint_and_covering(self):
        for fraction in (0.1, 0.25, 0.5, 0.75):
            for seed in range(5):
                split = split_kernels(self.NAMES, fraction, seed=seed)
                assert set(split.train).isdisjoint(split.test)
                assert sorted(split.train + split.test) == sorted(self.NAMES)
                assert split.train and split.test

    def test_seed_changes_the_partition(self):
        partitions = {
            split_kernels(self.NAMES, 0.5, seed=seed).test for seed in range(8)
        }
        assert len(partitions) > 1

    def test_stable_across_processes_and_hash_seeds(self):
        script = (
            "from repro.evaluation.splits import split_kernels\n"
            f"split = split_kernels({self.NAMES!r}, 0.25, seed=7)\n"
            "print(split.train); print(split.test)\n"
        )
        outputs = []
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH", "")])
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        reference = split_kernels(self.NAMES, 0.25, seed=7)
        assert outputs[0] == f"{reference.train}\n{reference.test}\n"

    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            split_kernels(["a", "a", "b"], 0.5)
        with pytest.raises(ValueError, match="fraction"):
            split_kernels(["a", "b"], 1.5)
        with pytest.raises(ValueError, match="at least"):
            split_kernels(["solo"], 0.5)
        with pytest.raises(ValueError, match="at least one held-out"):
            KernelSplit(train=("a",), test=())
        with pytest.raises(ValueError, match="leaks"):
            KernelSplit(train=("a", "b"), test=("b",))
        split = KernelSplit(train=("a",), test=("b",))
        with pytest.raises(ValueError, match="not covered"):
            split.partition(["a", "b", "c"])
        with pytest.raises(ValueError, match="not in the suite"):
            KernelSplit.from_holdout(["a", "b"], ["missing"])

    def test_leakage_detection(self):
        split = KernelSplit(train=("a", "b"), test=("c", "d"))
        split.assert_no_leakage(["a", "b"])
        with pytest.raises(ValueError, match="overlap the run's training"):
            split.assert_no_leakage(["a", "c"])


# ---------------------------------------------------------------------------
# Transfer protocol end to end (+ satellite 4: conditioned serving)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def holdout_framework():
    """Two tasks trained jointly, one task and one kernel held out."""
    kernels = suite()
    config = TrainingConfig(
        tasks=list(ALL_TASKS),
        holdout_task="polly-tiling",
        holdout_kernels=["shift"],
        rl_total_steps=48,
        rl_batch_size=24,
        learning_rate=1e-3,
        pretrain_epochs=0,
        seed=0,
    )
    framework, _artifacts = NeuroVectorizer.train(kernels, config)
    yield framework, kernels
    framework.close()


class TestTransferProtocol:
    def test_holdouts_recorded_and_policy_conditioned(self, holdout_framework):
        framework, _kernels = holdout_framework
        policy = framework.agent.policy
        assert isinstance(policy, ConditionedPolicy)
        assert sorted(policy.task_names) == ["unrolling", "vectorization"]
        assert framework.holdout_task == "polly-tiling"
        assert framework.kernel_split is not None
        assert framework.kernel_split.test == ("shift",)
        assert set(framework.training_kernel_names) == {"dot", "scale", "saxpy"}

    def test_generalization_matrix_replays_training_split(self, holdout_framework):
        framework, kernels = holdout_framework
        matrix = framework.compare_all_tasks(kernels, kernel_split=True)
        assert isinstance(matrix, GeneralizationMatrix)
        assert list(matrix) == [task.name for task in framework.tasks]
        for _name, entry in matrix.items():
            assert isinstance(entry, SplitComparison)
            assert set(entry.train.speedups) == {"dot", "scale", "saxpy"}
            assert set(entry.test.speedups) == {"shift"}
            for side in entry.sides.values():
                assert side.geomean("baseline") == 1.0
                assert {row["baseline"] for row in side.speedups.values()} == {1.0}
        rendered = matrix.format_table().render()
        assert "train" in rendered and "test" in rendered

    def test_leaky_split_is_rejected(self, holdout_framework):
        framework, kernels = holdout_framework
        leaky = KernelSplit(train=("shift", "dot"), test=("scale", "saxpy"))
        with pytest.raises(ValueError, match="overlap the run's training"):
            framework.compare_all_tasks(kernels, kernel_split=leaky)

    def test_replay_without_recorded_split_is_rejected(self):
        framework = NeuroVectorizer.default()
        with pytest.raises(ValueError, match="recorded none"):
            framework.compare_all_tasks(suite(), kernel_split=True)

    def test_fine_tune_freezes_trunk_and_other_tasks(self, holdout_framework):
        framework, kernels = holdout_framework
        policy = framework.agent.policy
        trunk_before = snapshot(policy.trunk)
        rows_before = {
            name: policy.task_embeddings[name].data.copy()
            for name in policy.task_names
        }
        stacks_before = {
            name: snapshot(policy.heads_for(name)) for name in policy.task_names
        }

        history = framework.fine_tune(
            [kernel for kernel in kernels if kernel.name != "shift"],
            total_steps=24,
            batch_size=12,
        )
        assert history.iterations

        assert "polly-tiling" in policy.task_names
        assert bytes_equal(trunk_before, snapshot(policy.trunk))
        for name, before in rows_before.items():
            assert np.array_equal(before, policy.task_embeddings[name].data)
        for name, before in stacks_before.items():
            assert bytes_equal(before, snapshot(policy.heads_for(name)))
        assert "polly-tiling" in [task.name for task in framework.tasks]

        # The fine-tuned task now answers the full per-task surface.
        decisions = framework.decide_sites(kernels[0], task="polly-tiling")
        assert decisions
        matrix = framework.compare_all_tasks(kernels, kernel_split=True)
        assert sorted(matrix) == sorted(ALL_TASKS)
        for _name, entry in matrix.items():
            for side in entry.sides.values():
                assert {row["baseline"] for row in side.speedups.values()} == {1.0}
        assert matrix.format_table().render()

    def test_fine_tune_needs_conditioned_policy(self):
        framework = NeuroVectorizer.default()
        with pytest.raises(ValueError, match="conditioning='embedding'"):
            framework.fine_tune(suite(), task="unrolling")


class TestConditionedServing:
    @pytest.fixture(scope="class")
    def joint_framework(self):
        kernels = suite()[:2]
        config = TrainingConfig(
            tasks=list(ALL_TASKS),
            rl_total_steps=48,
            rl_batch_size=24,
            learning_rate=1e-3,
            pretrain_epochs=0,
            seed=0,
        )
        framework, _artifacts = NeuroVectorizer.train(kernels, config)
        yield framework
        framework.close()

    def test_conditioned_policy_serves_every_task_in_one_tick(
        self, joint_framework
    ):
        policy = joint_framework.agent.policy
        assert isinstance(policy, ConditionedPolicy)
        service = CompileService(
            policy,
            joint_framework.embedding_model,
            tasks=list(ALL_TASKS),
            max_batch_size=len(ALL_TASKS),
        )
        futures = [
            service.submit(CompileRequest(source=SOURCES["scale"], task=task))
            for task in ALL_TASKS
        ]
        service.start()
        responses = [future.result(timeout=30) for future in futures]
        service.stop()
        assert all(response.ok for response in responses)
        assert {response.task for response in responses} == set(ALL_TASKS)
        assert all(response.decisions for response in responses)
        assert service.report().ticks == 1

    def test_service_rejects_mismatched_conditioned_menus(self, joint_framework):
        wrong = ConditionedPolicy(
            joint_framework.agent.policy.observation_dim,
            OrderedDict(
                [("unrolling", DiscreteFactorSpace(((1, 2), (3, 4))))]
            ),
        )
        with pytest.raises(ValueError, match="menus"):
            CompileService(
                wrong, joint_framework.embedding_model, tasks=["unrolling"]
            )
