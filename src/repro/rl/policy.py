"""Policy networks: one shared tanh-MLP trunk, task-conditioned heads.

Every policy is keyed by task name.  Two architectures share the routing
API:

* :class:`MultiTaskPolicy` — a shared trunk feeding one *head bank* per
  optimization task (categorical heads per decision dimension or a
  Gaussian mean head, plus a value head, built from the task's own
  :class:`~repro.rl.spaces.ActionSpace`).
* :class:`ConditionedPolicy` — a learned task-embedding table: each row
  is concatenated onto the shared-trunk output and fed through one head
  stack per action *arity*, so same-arity tasks share heads and are told
  apart only by their embedding — which is what lets the policy transfer
  to tasks it never trained on (see ``add_task``/``transfer_parameters``).

``act``/``act_batch`` take a task id and route through that task's bank
or embedding, so one network jointly learns several tasks while each task
keeps its own action menus.  :func:`make_policy` picks the architecture
via ``conditioning=`` ("embedding" is the default for joint spaces,
"banks" for one task).

A single-task policy is the one-entry case: one bank named for its task,
which also serves requests that name no task.  With the default
vectorization task's (VF, IF) space the discrete policy reproduces the
paper's architecture exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.nn.layers import ACTIVATIONS, MLP, Dense, Module, Parameter
from repro.rl.spaces import (
    _SPACE_KINDS,
    ActionSpace,
    ContinuousJointSpace,
    DiscreteFactorSpace,
)
from repro.tasks import resolve_task


@dataclass
class PolicyOutput:
    """Result of acting on one observation."""

    action: np.ndarray
    log_prob: float
    value: float


# -- batch-size-invariant inference kernels -----------------------------------
#
# ``act_batch`` guarantees byte-identical results to N sequential ``act``
# calls.  BLAS ``@`` breaks that guarantee: (1, K) @ (K, M) and row i of
# (N, K) @ (K, M) take different kernel paths and differ in the last ULP.
# ``np.einsum`` contracts each output element independently of the batch
# size, so the whole inference forward is built on it.


def _stable_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Matmul whose row ``i`` is bitwise independent of the batch size."""
    return np.einsum("ij,jk->ik", x, w)


def _dense_forward(layer: Dense, x: np.ndarray) -> np.ndarray:
    output = _stable_matmul(x, layer.weight.data) + layer.bias.data
    return ACTIVATIONS[layer.activation](output)


def _trunk_forward(trunk: MLP, x: np.ndarray) -> np.ndarray:
    """Raw-NumPy forward through the trunk."""
    out = x
    for layer in trunk.layers:
        out = _dense_forward(layer, out)
    return out


def _grouped_act(
    banks: List["_TaskHeads"],
    features: np.ndarray,
    rng: np.random.Generator,
    deterministic: bool,
) -> List[PolicyOutput]:
    """Vectorized sampling over feature rows, each served by ``banks[i]``.

    RNG values are drawn flat in row order first, then rows are grouped by
    head bank so mixed-task chunks run one batched head forward per bank —
    the sample stream equals that of sequential per-row acts (the
    seed-identity guarantee the rollout layer relies on).
    """
    count = features.shape[0]
    draw_rows: List[Optional[np.ndarray]] = [None] * count
    if not deterministic:
        kinds = {bank.kind for bank in banks}
        if len(kinds) == 1:
            # One flat draw covering every row, split in row order:
            # identical stream to per-row draws (array fills are
            # sequential), one Generator call instead of N.
            counts = [bank.draw_dims for bank in banks]
            total = int(np.sum(counts, dtype=np.int64)) if counts else 0
            flat = (
                rng.random(total)
                if kinds == {"discrete"}
                else rng.standard_normal(total)
            )
            offset = 0
            for index, width in enumerate(counts):
                draw_rows[index] = flat[offset : offset + width]
                offset += width
        else:
            # Mixed discrete/Gaussian banks interleave uniform and
            # normal draws; keep the exact serial consumption order.
            for index, bank in enumerate(banks):
                draw_rows[index] = (
                    rng.random(bank.draw_dims)
                    if bank.kind == "discrete"
                    else rng.standard_normal(bank.draw_dims)
                )
    groups: "OrderedDict[int, List[int]]" = OrderedDict()
    bank_by_id = {}
    for index, bank in enumerate(banks):
        bank_by_id[id(bank)] = bank
        groups.setdefault(id(bank), []).append(index)
    outputs: List[Optional[PolicyOutput]] = [None] * count
    for bank_id, row_indices in groups.items():
        bank = bank_by_id[bank_id]
        grouped_draws = None
        if not deterministic:
            grouped_draws = np.stack([draw_rows[i] for i in row_indices])
        actions, log_probs, values = bank.act_batch_from_hidden(
            features[row_indices], grouped_draws, deterministic
        )
        for position, index in enumerate(row_indices):
            outputs[index] = PolicyOutput(
                action=actions[position].copy(),
                log_prob=float(log_probs[position]),
                value=float(values[position]),
            )
    return outputs  # type: ignore[return-value]


def _gaussian_width(space: ActionSpace) -> int:
    """Mean dimensions of a Gaussian head over ``space``: one real number
    for the joint encoding, one per menu otherwise."""
    return 1 if isinstance(space, ContinuousJointSpace) else space.dims


class _TaskHeads(Module):
    """One task's head bank: action heads + value head over the trunk.

    ``kind`` is ``"discrete"`` (one categorical head per menu) or
    ``"gaussian"`` (one mean dimension per continuous value, with a
    learned log-std); the head widths come from ``space``.  Construction
    draws from ``rng`` in the exact order the pre-redesign single-task
    policies did — action heads, then the value head — so a one-bank
    policy is weight-identical to the seed.
    """

    def __init__(
        self,
        hidden_dim: int,
        space: ActionSpace,
        rng: np.random.Generator,
        initial_log_std: float = -0.5,
    ):
        self.space = space
        if isinstance(space, DiscreteFactorSpace):
            self.kind = "discrete"
            self.heads = [
                Dense(hidden_dim, classes, rng=rng, weight_scale=0.01)
                for classes in space.sizes
            ]
            self.value_head = Dense(hidden_dim, 1, rng=rng, weight_scale=0.01)
            self.action_dims = space.dims
        else:
            self.kind = "gaussian"
            self.action_dims = _gaussian_width(space)
            self.mean_head = Dense(
                hidden_dim, self.action_dims, rng=rng, weight_scale=0.01
            )
            self.value_head = Dense(hidden_dim, 1, rng=rng, weight_scale=0.01)
            self.log_std = Parameter(
                np.full((self.action_dims,), initial_log_std), name="log_std"
            )

    # -- inference ----------------------------------------------------------

    @property
    def draw_dims(self) -> int:
        """RNG values one sampled action consumes (uniforms or normals)."""
        return len(self.heads) if self.kind == "discrete" else self.action_dims

    def act_batch_from_hidden(
        self,
        hidden: np.ndarray,
        draws: Optional[np.ndarray],
        deterministic: bool,
    ):
        """Vectorized sampling over ``hidden`` rows.

        ``draws`` carries each row's RNG values — uniforms for categorical
        heads (sampling replicates ``Generator.choice``'s inverse-CDF walk
        exactly), normals for Gaussian banks — so the caller controls the
        stream order and batched sampling stays byte-identical to serial.
        Returns ``(actions, log_probs, values)`` arrays over the rows.
        """
        rows = hidden.shape[0]
        value_head = self.value_head
        values = (
            _stable_matmul(hidden, value_head.weight.data) + value_head.bias.data
        )[:, 0]
        if self.kind == "discrete":
            indices = np.empty((rows, len(self.heads)), dtype=np.int64)
            log_probs = np.zeros(rows)
            for position, head in enumerate(self.heads):
                logits = _stable_matmul(hidden, head.weight.data) + head.bias.data
                shifted = logits - logits.max(axis=1, keepdims=True)
                exps = np.exp(shifted)
                probs = exps / exps.sum(axis=1, keepdims=True)
                if deterministic:
                    chosen = np.argmax(probs, axis=1)
                else:
                    # Generator.choice(len(p), p=p) == searchsorted of one
                    # uniform into the normalized CDF, side="right".
                    cdf = np.cumsum(probs, axis=1)
                    cdf /= cdf[:, -1:]
                    chosen = (cdf <= draws[:, position, None]).sum(axis=1)
                indices[:, position] = chosen
                log_probs += np.log(probs[np.arange(rows), chosen] + 1e-12)
            return indices, log_probs, values
        mean_head = self.mean_head
        mean = ACTIVATIONS["sigmoid"](
            _stable_matmul(hidden, mean_head.weight.data) + mean_head.bias.data
        )
        std = np.exp(self.log_std.data)
        sample = mean if deterministic else mean + std * draws
        log_probs = np.sum(
            -0.5 * ((sample - mean) / std) ** 2
            - np.log(std)
            - 0.5 * np.log(2 * np.pi),
            axis=1,
        )
        return np.clip(sample, 0.0, 1.0), log_probs, values


class Policy(Module):
    """Common interface: act on observations.

    ``task`` names the task whose head bank (or embedding) decides; a
    policy holding one task also serves ``task=None``.
    """

    observation_dim: int

    def act(
        self,
        observation: np.ndarray,
        deterministic: bool = False,
        task: Optional[str] = None,
    ) -> PolicyOutput:
        raise NotImplementedError

    def act_batch(
        self,
        observations,
        deterministic: bool = False,
        task: Optional[str] = None,
        tasks: Optional[Sequence[str]] = None,
    ) -> List[PolicyOutput]:
        """Act on many observations at once; results in presentation order.

        ``tasks`` routes row ``i`` through head bank ``tasks[i]`` (mixed-task
        chunks from a joint rollout); ``task`` applies one bank to every row.
        This base implementation is the serial fallback for policies that
        only define ``act``; :class:`MultiTaskPolicy` overrides it with a
        vectorized forward that consumes the RNG stream in the same order.
        """
        rows = _as_observation_matrix(observations)
        names = _row_task_names(rows.shape[0], task, tasks)
        return [
            self.act(row, deterministic=deterministic, task=name)
            for row, name in zip(rows, names)
        ]


class MultiTaskPolicy(Policy):
    """Shared trunk + per-task head banks (the joint-training network).

    ``spaces`` is an ordered ``task name -> ActionSpace`` mapping; one head
    bank is built per entry, all fed by the same tanh-MLP trunk, so
    representation learning is amortized across tasks while every task
    keeps its own action menus, log-probs and value estimate.

    ``act``/``act_batch`` take the task id to route through.  A policy with
    exactly one bank (the single-task special case) also serves requests
    that name no task; a task it holds no bank for is refused.
    """

    def __init__(
        self,
        observation_dim: int,
        spaces: Mapping[str, ActionSpace],
        hidden_sizes: Sequence[int] = (64, 64),
        seed: int = 0,
        initial_log_std: float = -0.5,
    ):
        if not spaces:
            raise ValueError("a policy needs at least one task head bank")
        self.observation_dim = observation_dim
        self.hidden_sizes = tuple(hidden_sizes)
        rng = np.random.default_rng(seed)
        self.trunk = MLP(observation_dim, hidden_sizes, hidden_sizes[-1],
                         activation="tanh", output_activation="tanh", rng=rng)
        self.task_heads: "OrderedDict[str, _TaskHeads]" = OrderedDict()
        for name, space in spaces.items():
            self.task_heads[str(name)] = _TaskHeads(
                hidden_sizes[-1],
                space,
                rng,
                initial_log_std=initial_log_std,
            )
        self.rng = np.random.default_rng(seed + 1)

    # -- routing ------------------------------------------------------------

    @property
    def task_names(self) -> List[str]:
        """Names of the tasks this policy holds head banks for."""
        return list(self.task_heads)

    @property
    def spaces(self) -> "OrderedDict[str, ActionSpace]":
        """Ordered ``task name -> ActionSpace`` mapping of the head banks."""
        return OrderedDict(
            (name, bank.space) for name, bank in self.task_heads.items()
        )

    def heads_for(self, task: Optional[str] = None) -> _TaskHeads:
        """The head bank serving ``task`` (a name, a task object, or None)."""
        if task is None:
            if len(self.task_heads) == 1:
                return next(iter(self.task_heads.values()))
            raise ValueError(
                "multi-task policy: pass task=<name> to select a head bank; "
                f"trained heads: {list(self.task_heads)}"
            )
        name = _task_name(task)
        bank = self.task_heads.get(name)
        if bank is not None:
            return bank
        raise ValueError(
            f"policy has no head bank for task {name!r}; "
            f"trained heads: {list(self.task_heads)}"
        )

    def space_for(self, task: Optional[str] = None) -> ActionSpace:
        """The action space of the bank serving ``task``."""
        return self.heads_for(task).space

    # -- forward ------------------------------------------------------------

    def act(
        self,
        observation: np.ndarray,
        deterministic: bool = False,
        task: Optional[str] = None,
    ) -> PolicyOutput:
        # The batch-of-one special case of ``act_batch``: same code path,
        # same RNG consumption, so serial and batched rollouts are
        # byte-identical under the same seed.
        return self.act_batch(
            np.asarray(observation, dtype=np.float64).reshape(1, -1),
            deterministic=deterministic,
            task=task,
        )[0]

    def act_batch(
        self,
        observations,
        deterministic: bool = False,
        task: Optional[str] = None,
        tasks: Optional[Sequence[str]] = None,
    ) -> List[PolicyOutput]:
        """One trunk matmul over all rows, vectorized per-head sampling.

        Rows are grouped by head bank (mixed-task chunks run one batched
        head forward per bank) but RNG values are drawn flat in row order
        first, so the sample stream equals that of sequential ``act`` calls
        — the seed-identity guarantee the rollout layer relies on.
        """
        rows = _as_observation_matrix(observations)
        names = _row_task_names(rows.shape[0], task, tasks)
        banks = [self.heads_for(name) for name in names]
        if not banks:
            return []
        features = self.head_features(rows, names)
        return _grouped_act(banks, features, self.rng, deterministic)

    def head_features(
        self, rows: np.ndarray, tasks: Sequence[Optional[str]]
    ) -> np.ndarray:
        """What the head banks read for ``rows``: the trunk output alone
        (``tasks``, one entry per row, selects the bank, not the input)."""
        return _trunk_forward(self.trunk, rows)

class ConditionedPolicy(Policy):
    """Shared trunk + one embedding-conditioned head stack per arity.

    Instead of a discrete head bank per task, every task gets a learned
    embedding row; the trunk output is concatenated with the acting task's
    embedding and fed to a head stack shared by every task of the same
    action arity (same menu sizes for discrete spaces, same dimensionality
    for Gaussian ones).  The stack therefore learns one task-conditioned
    decision function, and the embedding table is the only thing that
    distinguishes tasks — which is what makes transfer to a *new* task a
    head-only problem: :meth:`add_task` copies the trainable
    ``new_task_init`` row into a fresh embedding row (plus a private head
    stack), and :meth:`transfer_parameters` names exactly the parameters a
    frozen-trunk fine-tune may touch.

    The routing API (``task_names`` / ``spaces`` / ``space_for`` /
    ``heads_for`` / ``act`` / ``act_batch``) matches
    :class:`MultiTaskPolicy`, so agents, trainers, the serving tier and
    the comparison protocol work unchanged.  ``act_batch`` keeps the
    byte-identity guarantee: one flat RNG draw in row order, einsum
    forwards, so batched == N serial acts.
    """

    def __init__(
        self,
        observation_dim: int,
        spaces: Mapping[str, ActionSpace],
        hidden_sizes: Sequence[int] = (64, 64),
        seed: int = 0,
        initial_log_std: float = -0.5,
        task_embed_dim: int = 8,
        policy_kind: Optional[str] = None,
    ):
        if not spaces:
            raise ValueError("a conditioned policy needs at least one task")
        if int(task_embed_dim) < 1:
            raise ValueError("task_embed_dim must be at least 1")
        self.observation_dim = observation_dim
        self.hidden_sizes = tuple(hidden_sizes)
        self.task_embed_dim = int(task_embed_dim)
        self.initial_log_std = initial_log_std
        self.policy_kind = policy_kind or _kind_for_space(
            next(iter(spaces.values()))
        )
        self._seed = seed
        self._tasks_added = 0
        rng = np.random.default_rng(seed)
        self.trunk = MLP(observation_dim, hidden_sizes, hidden_sizes[-1],
                         activation="tanh", output_activation="tanh", rng=rng)
        # The trainable prior for unseen tasks: add_task() starts a new
        # task's embedding row from this row's *learned* value, so joint
        # training can shape where fresh tasks begin in embedding space.
        self.new_task_init = Parameter(
            rng.normal(0.0, 0.1, size=(self.task_embed_dim,)),
            name="task_embed_init",
        )
        self.task_embeddings: "OrderedDict[str, Parameter]" = OrderedDict()
        self.task_spaces: "OrderedDict[str, ActionSpace]" = OrderedDict()
        self.head_stacks: "OrderedDict[tuple, _TaskHeads]" = OrderedDict()
        self._stack_keys: "OrderedDict[str, tuple]" = OrderedDict()
        for name, space in spaces.items():
            self._register_task(str(name), space, rng)
        self.rng = np.random.default_rng(seed + 1)

    @staticmethod
    def _signature(space: ActionSpace) -> tuple:
        """The arity key deciding which head stack serves a space."""
        if isinstance(space, DiscreteFactorSpace):
            return ("discrete", tuple(space.sizes))
        return ("gaussian", _gaussian_width(space))

    def _register_task(
        self,
        name: str,
        space: ActionSpace,
        rng: np.random.Generator,
        embedding: Optional[Parameter] = None,
        private_stack: bool = False,
    ) -> None:
        if name in self.task_spaces:
            raise ValueError(f"task {name!r} already has an embedding row")
        self.task_embeddings[name] = embedding if embedding is not None else Parameter(
            rng.normal(0.0, 0.1, size=(self.task_embed_dim,)),
            name=f"task_embed[{name}]",
        )
        self.task_spaces[name] = space
        key = self._signature(space)
        if private_stack:
            # Transfer-added tasks get their own stack so head-only
            # fine-tuning cannot move a jointly-trained task's outputs.
            key = key + (name,)
        if key not in self.head_stacks:
            self.head_stacks[key] = _TaskHeads(
                self.hidden_sizes[-1] + self.task_embed_dim,
                space,
                rng,
                initial_log_std=self.initial_log_std,
            )
        self._stack_keys[name] = key

    # -- routing ------------------------------------------------------------

    def _resolve_name(self, task) -> str:
        if task is None:
            if len(self.task_spaces) == 1:
                return next(iter(self.task_spaces))
            raise ValueError(
                "conditioned policy: pass task=<name> to select a task "
                f"embedding; trained tasks: {list(self.task_spaces)}"
            )
        name = _task_name(task)
        if name in self.task_spaces:
            return name
        raise ValueError(
            f"policy has no task embedding for {name!r}; "
            f"trained tasks: {list(self.task_spaces)}"
        )

    @property
    def task_names(self) -> List[str]:
        """Names of the tasks this policy holds embedding rows for."""
        return list(self.task_spaces)

    @property
    def spaces(self) -> "OrderedDict[str, ActionSpace]":
        """Ordered ``task name -> ActionSpace`` mapping (the task's own
        space, even when several tasks share one head stack)."""
        return OrderedDict(self.task_spaces)

    def space_for(self, task=None) -> ActionSpace:
        """The action space of the task ``task`` (its own menus — tasks
        sharing a head stack keep distinct spaces)."""
        return self.task_spaces[self._resolve_name(task)]

    def heads_for(self, task=None) -> _TaskHeads:
        """The head stack serving ``task`` (shared across same-arity tasks)."""
        return self.head_stacks[self._stack_keys[self._resolve_name(task)]]

    # -- transfer -----------------------------------------------------------

    def add_task(self, name, space: ActionSpace) -> Parameter:
        """Register an unseen task: a fresh embedding row + private heads.

        The embedding row starts from the trainable ``new_task_init``
        prior; the head stack is drawn from a deterministic per-addition
        stream of the construction seed, so transfer runs are seed-stable.
        Returns the new embedding row.
        """
        name = _task_name(name)
        space_class = _SPACE_KINDS[self.policy_kind]
        if not isinstance(space, space_class):
            raise ValueError(
                f"{self.policy_kind} policies need a {space_class.__name__}; "
                f"task {name!r} supplied a {type(space).__name__}"
            )
        self._tasks_added += 1
        rng = np.random.default_rng(self._seed + 104729 * self._tasks_added)
        row = Parameter(self.new_task_init.data.copy(), name=f"task_embed[{name}]")
        self._register_task(name, space, rng, embedding=row, private_stack=True)
        return row

    def transfer_parameters(self, task) -> List[Parameter]:
        """The parameters a frozen-trunk fine-tune of ``task`` may update:
        that task's embedding row plus its head stack — never the trunk,
        the new-task prior, or any other task's embedding row."""
        name = self._resolve_name(task)
        parameters: List[Parameter] = [self.task_embeddings[name]]
        parameters.extend(self.head_stacks[self._stack_keys[name]].parameters())
        return parameters

    # -- forward ------------------------------------------------------------

    def act(
        self,
        observation: np.ndarray,
        deterministic: bool = False,
        task: Optional[str] = None,
    ) -> PolicyOutput:
        # The batch-of-one special case of ``act_batch``: same code path,
        # same RNG consumption (see MultiTaskPolicy.act).
        return self.act_batch(
            np.asarray(observation, dtype=np.float64).reshape(1, -1),
            deterministic=deterministic,
            task=task,
        )[0]

    def act_batch(
        self,
        observations,
        deterministic: bool = False,
        task: Optional[str] = None,
        tasks: Optional[Sequence[str]] = None,
    ) -> List[PolicyOutput]:
        """One trunk matmul over all rows; per-row task embeddings are
        concatenated onto the hidden features before the (grouped) head
        stacks sample.  RNG draws are flat in row order, so batched
        sampling stays byte-identical to serial ``act`` calls."""
        rows = _as_observation_matrix(observations)
        names = [
            self._resolve_name(name)
            for name in _row_task_names(rows.shape[0], task, tasks)
        ]
        if not names:
            return []
        features = self.head_features(rows, names)
        stacks = [self.head_stacks[self._stack_keys[name]] for name in names]
        return _grouped_act(stacks, features, self.rng, deterministic)

    def head_features(self, rows: np.ndarray, tasks: Sequence[str]) -> np.ndarray:
        """What the head stacks read for ``rows``: the trunk output with
        each row's task embedding (``tasks``, one name per row) appended."""
        hidden = _trunk_forward(self.trunk, rows)
        embeds = np.stack([self.task_embeddings[name].data for name in tasks])
        return np.concatenate([hidden, embeds], axis=1)

def _kind_for_space(space: ActionSpace) -> str:
    """The ``make_policy`` kind string a space class corresponds to."""
    return next(kind for kind, cls in _SPACE_KINDS.items() if isinstance(space, cls))


def _task_name(task) -> str:
    """A task id as a name (task objects carry their own ``name``)."""
    return task if isinstance(task, str) else task.name


def _as_observation_matrix(observations) -> np.ndarray:
    """Coerce an observation batch (array, list of rows, single row) to 2-D."""
    rows = np.asarray(observations, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.ndim != 2:
        raise ValueError(
            f"observations must be one row or a batch of rows, got shape {rows.shape}"
        )
    return rows


def _row_task_names(
    count: int, task: Optional[str], tasks: Optional[Sequence[str]]
) -> List[Optional[str]]:
    """Per-row task routing: ``tasks`` (one id per row) wins over ``task``."""
    if tasks is None:
        return [task] * count
    names = list(tasks)
    if len(names) != count:
        raise ValueError(
            f"tasks has {len(names)} entries for a batch of {count} observations"
        )
    return names


def make_policy(
    kind: str,
    observation_dim: int,
    hidden_sizes: Sequence[int] = (64, 64),
    seed: int = 0,
    spaces: Optional[Mapping[str, ActionSpace]] = None,
    conditioning: Optional[str] = None,
    task_embed_dim: int = 8,
) -> Policy:
    """Factory for the three action-space variants of Figure 6.

    ``spaces`` is an ordered ``task name -> ActionSpace`` mapping, every
    space of the same ``kind``; the policy decides exactly those tasks.
    Without it the policy decides the default task alone — the paper's
    (VF, IF) vectorization, ``{task.name: task.action_space(kind)}``.

    ``conditioning`` selects the architecture:

    * ``"embedding"`` — a :class:`ConditionedPolicy`: a learned task-
      embedding table concatenated onto the shared trunk, one head stack
      per action arity (``task_embed_dim`` sets the embedding width).
    * ``"banks"`` — a :class:`MultiTaskPolicy` with one head bank per task.
    * ``None`` (default) — ``"embedding"`` for two or more tasks,
      ``"banks"`` for one, keeping single-task construction byte-identical
      to the pre-conditioning wiring.
    """
    space_class = _SPACE_KINDS.get(kind)
    if space_class is None:
        raise ValueError(f"unknown policy kind {kind!r}")
    if conditioning not in (None, "banks", "embedding"):
        raise ValueError(
            f"unknown conditioning {conditioning!r}; pick 'banks' or 'embedding'"
        )
    if spaces is None:
        task = resolve_task(None)
        spaces = {task.name: task.action_space(kind)}
    for name, task_space in spaces.items():
        if not isinstance(task_space, space_class):
            raise ValueError(
                f"{kind} policies need a {space_class.__name__}; task "
                f"{name!r} supplied a {type(task_space).__name__}"
            )
    mode = conditioning or ("embedding" if len(spaces) > 1 else "banks")
    if mode == "embedding":
        return ConditionedPolicy(
            observation_dim,
            spaces=OrderedDict(spaces),
            hidden_sizes=hidden_sizes,
            seed=seed,
            task_embed_dim=task_embed_dim,
            policy_kind=kind,
        )
    return MultiTaskPolicy(
        observation_dim,
        spaces=OrderedDict(spaces),
        hidden_sizes=hidden_sizes,
        seed=seed,
    )
