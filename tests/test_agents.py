"""Agent tests: random, NNS, decision tree, brute force, baseline, policy."""

import numpy as np
import pytest

from repro.agents import (
    BaselineAgent,
    BruteForceAgent,
    DecisionTree,
    DecisionTreeAgent,
    NearestNeighborAgent,
    PolicyAgent,
    RandomSearchAgent,
)
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService
from repro.rl.policy import make_policy
from repro.rl.spaces import DEFAULT_IF_VALUES, DEFAULT_VF_VALUES
from repro.tasks import resolve_task


DOT = LoopKernel(
    name="dot",
    source=(
        "int vec[512] __attribute__((aligned(16)));\n"
        "int kernel() { int s = 0; for (int i = 0; i < 512; i++) s += vec[i] * vec[i]; return s; }"
    ),
    function_name="kernel",
)


class TestRandomSearchAgent:
    def test_factors_come_from_menu(self):
        agent = RandomSearchAgent(seed=0)
        for _ in range(50):
            decision = agent.select_factors(np.zeros(4))
            vf, interleave = decision.action
            assert vf in DEFAULT_VF_VALUES
            assert interleave in DEFAULT_IF_VALUES

    def test_deterministic_given_seed(self):
        first = [RandomSearchAgent(seed=7).select_factors(np.zeros(2)).as_tuple()
                 for _ in range(1)]
        second = [RandomSearchAgent(seed=7).select_factors(np.zeros(2)).as_tuple()
                  for _ in range(1)]
        assert first == second

    def test_covers_multiple_factors(self):
        agent = RandomSearchAgent(seed=1)
        seen = {agent.select_factors(np.zeros(2)).as_tuple() for _ in range(100)}
        assert len(seen) > 10

    def test_kernel_queries_are_order_independent(self):
        # Regression: decisions for a given (kernel, loop) must depend only
        # on the agent's seed, never on how many other queries ran first —
        # cache hits reordering or skipping evaluations cannot change them.
        other = LoopKernel(
            name="other",
            source=(
                "int buf[256];\n"
                "int acc() { int s = 0; for (int i = 0; i < 256; i++)"
                " s += buf[i]; return s; }"
            ),
            function_name="acc",
        )
        direct = RandomSearchAgent(seed=3).select_factors(
            np.zeros(2), kernel=DOT, loop_index=0
        )
        reordered_agent = RandomSearchAgent(seed=3)
        for _ in range(17):  # burn unrelated queries first
            reordered_agent.select_factors(np.zeros(2))
            reordered_agent.select_factors(np.zeros(2), kernel=other, loop_index=0)
        reordered = reordered_agent.select_factors(np.zeros(2), kernel=DOT, loop_index=0)
        assert direct.as_tuple() == reordered.as_tuple()

    def test_best_of_n_unaffected_by_warm_cache(self):
        # A pre-warmed shared cache changes which draws are evaluated vs
        # looked up, but must not change the seeded decision.
        from repro.cache.reward_cache import RewardCache, evaluate_requests

        pipeline = CompileAndMeasure()
        cold = RandomSearchAgent(
            seed=11, candidates=5, evaluation_service=EvaluationService(pipeline)
        ).select_factors(np.zeros(2), kernel=DOT, loop_index=0)

        warm_cache = RewardCache()
        for vf in DEFAULT_VF_VALUES:  # pre-populate the whole VF row
            evaluate_requests(pipeline, warm_cache, [(DOT, 0, (vf, 1))], task=resolve_task(None))
        warm = RandomSearchAgent(
            seed=11, candidates=5, evaluation_service=EvaluationService(pipeline, warm_cache)
        ).select_factors(np.zeros(2), kernel=DOT, loop_index=0)
        assert cold.as_tuple() == warm.as_tuple()

    def test_best_of_n_without_a_service_is_rejected(self):
        # Without a service to measure the draws, best-of-N would silently
        # return its first draw.
        with pytest.raises(ValueError, match="evaluation_service"):
            RandomSearchAgent(seed=0, candidates=8)
        # One draw needs no measuring, so no service.
        single = RandomSearchAgent(seed=0, candidates=1)
        assert single.select_factors(np.zeros(1), kernel=DOT, loop_index=0).as_tuple()

    def test_distinct_loops_get_distinct_streams(self):
        agent = RandomSearchAgent(seed=5)
        decisions = {
            agent.select_factors(np.zeros(2), kernel=DOT, loop_index=i).as_tuple()
            for i in range(24)
        }
        assert len(decisions) > 1


class TestNearestNeighborAgent:
    def test_exact_match_returns_label(self):
        embeddings = np.eye(4)
        labels = [(1, 1), (4, 2), (8, 4), (64, 16)]
        agent = NearestNeighborAgent(k=1).fit(embeddings, labels)
        decision = agent.select_factors(np.array([0, 0, 1.0, 0]))
        assert decision.as_tuple() == (8, 4)

    def test_nearest_by_distance(self):
        embeddings = np.array([[0.0, 0.0], [10.0, 10.0]])
        labels = [(2, 2), (32, 8)]
        agent = NearestNeighborAgent(k=1, normalize=False).fit(embeddings, labels)
        assert agent.select_factors(np.array([1.0, 0.5])).as_tuple() == (2, 2)
        assert agent.select_factors(np.array([9.0, 9.5])).as_tuple() == (32, 8)

    def test_majority_vote_with_k3(self):
        embeddings = np.array([[0.0], [0.1], [0.2], [5.0]])
        labels = [(8, 2), (8, 2), (4, 1), (64, 16)]
        agent = NearestNeighborAgent(k=3, normalize=False).fit(embeddings, labels)
        assert agent.select_factors(np.array([0.05])).as_tuple() == (8, 2)

    def test_unfitted_agent_raises(self):
        with pytest.raises(RuntimeError):
            NearestNeighborAgent().select_factors(np.zeros(3))

    def test_fit_validates_shapes(self):
        with pytest.raises(ValueError):
            NearestNeighborAgent().fit(np.zeros((3, 2)), [(1, 1)])
        with pytest.raises(ValueError):
            NearestNeighborAgent(k=0)


class TestDecisionTree:
    def test_fits_axis_aligned_split(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(200, 3))
        labels = (features[:, 1] > 0.2).astype(int)
        tree = DecisionTree(max_depth=3).fit(features, labels)
        accuracy = (tree.predict(features) == labels).mean()
        assert accuracy > 0.95

    def test_multiclass(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(300, 2))
        labels = (features[:, 0] > 0).astype(int) + 2 * (features[:, 1] > 0).astype(int)
        tree = DecisionTree(max_depth=4).fit(features, labels)
        assert (tree.predict(features) == labels).mean() > 0.9

    def test_max_depth_respected(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(200, 4))
        labels = rng.integers(0, 5, size=200)
        tree = DecisionTree(max_depth=3).fit(features, labels)
        assert tree.depth() <= 3

    def test_pure_node_stops_splitting(self):
        features = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([1, 1, 1])
        tree = DecisionTree().fit(features, labels)
        assert tree.node_count() == 1
        assert tree.predict_one(np.array([5.0])) == 1

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTree().predict_one(np.zeros(2))

    def test_agent_round_trips_factor_labels(self):
        embeddings = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
        labels = [(1, 1), (8, 2), (16, 4), (64, 16)] * 10
        agent = DecisionTreeAgent(max_depth=4).fit(np.array(embeddings), labels)
        assert agent.select_factors(np.array([1.0, 1.0])).as_tuple() == (64, 16)
        assert agent.select_factors(np.array([0.0, 1.0])).as_tuple() == (8, 2)

    def test_agent_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeAgent().select_factors(np.zeros(2))


class TestSearchAndBaselineAgents:
    def test_brute_force_matches_direct_search(self, pipeline):
        agent = BruteForceAgent(evaluation_service=EvaluationService(pipeline))
        decision = agent.select_factors(np.zeros(4), kernel=DOT, loop_index=0)
        best = pipeline.measure_with_factors(DOT, {0: decision.as_tuple()})
        worse = pipeline.measure_with_factors(DOT, {0: (1, 1)})
        assert best.cycles <= worse.cycles

    def test_brute_force_requires_kernel(self):
        with pytest.raises(ValueError):
            BruteForceAgent().select_factors(np.zeros(4))

    def test_brute_force_caches(self, pipeline):
        agent = BruteForceAgent(evaluation_service=EvaluationService(pipeline))
        first = agent.select_factors(np.zeros(4), kernel=DOT, loop_index=0)
        second = agent.select_factors(np.zeros(4), kernel=DOT, loop_index=0)
        assert first.as_tuple() == second.as_tuple()

    def test_baseline_agent_matches_cost_model(self, pipeline):
        agent = BaselineAgent(pipeline)
        decision = agent.select_factors(np.zeros(4), kernel=DOT, loop_index=0)
        assert decision.as_tuple() == (4, 2)

    def test_baseline_agent_without_kernel_is_scalar(self):
        assert BaselineAgent().select_factors(np.zeros(4)).as_tuple() == (1, 1)

    def test_policy_agent_decodes_with_policy_space(self):
        policy = make_policy("discrete", 6, seed=0)
        agent = PolicyAgent(policy)
        decision = agent.select_factors(np.zeros(6))
        vf, interleave = decision.action
        assert vf in DEFAULT_VF_VALUES
        assert interleave in DEFAULT_IF_VALUES
