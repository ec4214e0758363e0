"""A CART decision tree over loop embeddings (§3.5).

scikit-learn is not available offline, so the tree (Gini-impurity CART with
axis-aligned splits) is implemented from scratch.  The tree classifies the
flattened (VF, IF) pair index; labels come from the brute-force search on the
training set, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents.base import AgentDecision, VectorizationAgent
from repro.datasets.kernels import LoopKernel


@dataclass
class _TreeNode:
    """One node of the CART tree."""

    prediction: int
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions ** 2))


class DecisionTree:
    """Gini CART classifier with axis-aligned splits."""

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 4,
        min_samples_leaf: int = 1,
        max_thresholds_per_feature: int = 16,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds_per_feature = max_thresholds_per_feature
        self.rng = np.random.default_rng(seed)
        self.root: Optional[_TreeNode] = None
        self.n_classes = 0

    # -- fitting ------------------------------------------------------------------

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DecisionTree":
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels must have the same length")
        self.n_classes = int(labels.max()) + 1 if labels.size else 1
        self.root = self._build(features, labels, depth=0)
        return self

    def _majority(self, labels: np.ndarray) -> int:
        counts = np.bincount(labels, minlength=self.n_classes)
        return int(np.argmax(counts))

    def _build(self, features: np.ndarray, labels: np.ndarray, depth: int) -> _TreeNode:
        node = _TreeNode(prediction=self._majority(labels))
        if (
            depth >= self.max_depth
            or labels.shape[0] < self.min_samples_split
            or np.unique(labels).size <= 1
        ):
            return node
        split = self._best_split(features, labels)
        if split is None:
            return node
        feature, threshold = split
        mask = features[:, feature] <= threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(features[mask], labels[mask], depth + 1)
        node.right = self._build(features[~mask], labels[~mask], depth + 1)
        return node

    def _best_split(
        self, features: np.ndarray, labels: np.ndarray
    ) -> Optional[Tuple[int, float]]:
        best_feature: Optional[int] = None
        best_threshold = 0.0
        parent_counts = np.bincount(labels, minlength=self.n_classes)
        best_impurity = _gini(parent_counts)
        total = labels.shape[0]
        improved = False
        for feature in range(features.shape[1]):
            column = features[:, feature]
            unique_values = np.unique(column)
            if unique_values.size <= 1:
                continue
            if unique_values.size > self.max_thresholds_per_feature:
                quantiles = np.linspace(0.05, 0.95, self.max_thresholds_per_feature)
                candidates = np.unique(np.quantile(column, quantiles))
            else:
                candidates = (unique_values[:-1] + unique_values[1:]) / 2.0
            for threshold in candidates:
                mask = column <= threshold
                left_count = int(mask.sum())
                if left_count == 0 or left_count == total:
                    continue
                left_counts = np.bincount(labels[mask], minlength=self.n_classes)
                right_counts = parent_counts - left_counts
                impurity = (
                    left_count * _gini(left_counts)
                    + (total - left_count) * _gini(right_counts)
                ) / total
                if impurity < best_impurity - 1e-12:
                    best_impurity = impurity
                    best_feature = feature
                    best_threshold = float(threshold)
                    improved = True
        if not improved or best_feature is None:
            return None
        return best_feature, best_threshold

    # -- inference ------------------------------------------------------------------

    def predict_one(self, features: np.ndarray) -> int:
        if self.root is None:
            raise RuntimeError("DecisionTree.fit() has not been called")
        node = self.root
        while not node.is_leaf:
            if features[node.feature] <= node.threshold:
                node = node.left
            else:
                node = node.right
        return node.prediction

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        return np.array([self.predict_one(row) for row in features], dtype=np.int64)

    def depth(self) -> int:
        def _depth(node: Optional[_TreeNode]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self.root)

    def node_count(self) -> int:
        def _count(node: Optional[_TreeNode]) -> int:
            if node is None:
                return 0
            return 1 + _count(node.left) + _count(node.right)

        return _count(self.root)


class DecisionTreeAgent(VectorizationAgent):
    """Predicts task actions with a decision tree over the learned embedding.

    The tree classifies the flattened action index over the task's menus
    (the (VF, IF) grid by default); labels come from the brute-force search
    on the training set, exactly as in the paper.
    """

    name = "decision_tree"

    def __init__(self, max_depth: int = 8, seed: int = 0, task=None):
        from repro.rl.spaces import DiscreteFactorSpace
        from repro.tasks import resolve_task

        self.task = resolve_task(task)
        # The space owns the (tested, tie-break-pinned) flatten/unflatten
        # between action tuples and the tree's class labels.
        self._space = DiscreteFactorSpace(menus=self.task.menus)
        self.tree = DecisionTree(max_depth=max_depth, seed=seed)
        self._fitted = False

    def fit(
        self, embeddings: np.ndarray, labels: Sequence[Tuple[int, ...]]
    ) -> "DecisionTreeAgent":
        encoded = np.array(
            [self._space.flatten_action(label) for label in labels], dtype=np.int64
        )
        self.tree.n_classes = self._space.num_actions
        features = np.asarray(embeddings, dtype=np.float64)
        self.tree.root = self.tree._build(features, encoded, depth=0)
        self._fitted = True
        return self

    def select_factors(
        self,
        observation: np.ndarray,
        kernel: Optional[LoopKernel] = None,
        loop_index: int = 0,
    ) -> AgentDecision:
        if not self._fitted:
            raise RuntimeError("DecisionTreeAgent.fit() has not been called")
        label = self.tree.predict_one(np.asarray(observation, dtype=np.float64))
        return AgentDecision(action=self._space.unflatten_action(label))
