"""Bit-identity of the flat-buffer optimiser and the scalar action decodes.

``repro.nn.optim.Adam`` keeps every parameter, gradient and moment in one
contiguous buffer and updates a whole run of parameters per numpy op.
Its oracle is the per-parameter loop it replaced
(``tests/optim_reference.py``): every case here drives both with the same
gradients and compares raw bytes — weights, gradients, moments and the
clip norm — because the contract is *identical*, not close.

The action decodes and PPO's reward clip replaced ``np.clip`` on Python
scalars with ``min``/``max``; their oracle is the ``np.clip`` formulation.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from optim_reference import ReferenceAdam
from repro.nn import Adam, Module, Parameter
from repro.rl.fused_update import FusedUpdater
from repro.rl.policy import make_policy
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.spaces import (
    ContinuousJointSpace,
    ContinuousPairSpace,
    DiscreteFactorSpace,
    _round_half_down,
)

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_shapes = st.lists(
    st.one_of(
        st.just(()),
        st.tuples(st.integers(1, 11)),
        st.tuples(st.integers(1, 6), st.integers(1, 9)),
    ),
    min_size=1,
    max_size=7,
)


class _Holder(Module):
    def __init__(self, arrays):
        self.params = [
            Parameter(array.copy(), name=f"p{index}")
            for index, array in enumerate(arrays)
        ]


def _normal(rng, shape, scale=1.0):
    return np.asarray(rng.standard_normal(shape) * scale, dtype=np.float64)


def _bits(value):
    return struct.pack("<d", value)


def _assert_same(flat_side, reference_side, flat_optimizers, reference_optimizers):
    for p, q in zip(flat_side.params, reference_side.params):
        assert p.data.shape == q.data.shape
        assert p.data.tobytes() == q.data.tobytes(), p.name
        assert (p.grad is None) == (q.grad is None), p.name
        if p.grad is not None:
            assert p.grad.tobytes() == q.grad.tobytes(), p.name
    for flat, reference in zip(flat_optimizers, reference_optimizers):
        for p, q in zip(flat_side.params, reference_side.params):
            got = flat.moments(p)
            want = reference.moments(q)
            for mine, theirs in zip(got, want):
                assert (mine is None) == (theirs is None), p.name
                if mine is not None:
                    assert mine.shape == theirs.shape
                    assert mine.tobytes() == theirs.tobytes(), p.name


@_SETTINGS
@given(shapes=_shapes, seed=st.integers(0, 2**16), data=st.data())
def test_flat_adam_matches_per_parameter_reference(shapes, seed, data):
    """Gradient-``None`` patterns, clip norms either side of ``max_norm``,
    directly assigned ``.grad``, rebound ``.data``, subsets, two optimisers
    over overlapping sets stepping in turn, and ``load_state_dict`` mid-run."""
    rng = np.random.default_rng(seed)
    arrays = [_normal(rng, shape) for shape in shapes]
    flat_side, reference_side = _Holder(arrays), _Holder(arrays)
    count = len(shapes)

    optimizer_count = data.draw(st.integers(1, 2), label="optimizers")
    members = []
    for _ in range(optimizer_count):
        chosen = data.draw(
            st.lists(st.integers(0, count - 1), min_size=1, max_size=count, unique=True),
            label="members",
        )
        members.append(chosen)
    learning_rate = data.draw(st.sampled_from([1e-3, 5e-4, 0.1]), label="lr")
    flat_optimizers = [
        Adam([flat_side.params[i] for i in chosen], learning_rate) for chosen in members
    ]
    reference_optimizers = [
        ReferenceAdam([reference_side.params[i] for i in chosen], learning_rate)
        for chosen in members
    ]

    for _ in range(data.draw(st.integers(1, 5), label="steps")):
        event = data.draw(
            st.sampled_from(["step", "step", "step", "load_state", "rebind_data"]),
            label="event",
        )
        if event == "load_state":
            state = {
                f"param_{i}": _normal(rng, shape) for i, shape in enumerate(shapes)
            }
            flat_side.load_state_dict(state)
            reference_side.load_state_dict(state)
            continue
        if event == "rebind_data":
            index = data.draw(st.integers(0, count - 1), label="rebound")
            value = _normal(rng, shapes[index])
            flat_side.params[index].data = value.copy()
            reference_side.params[index].data = value.copy()
            continue
        which = data.draw(st.integers(0, optimizer_count - 1), label="which")
        scale = 10.0 ** data.draw(st.integers(-3, 3), label="scale")
        for index in range(count):
            p, q = flat_side.params[index], reference_side.params[index]
            mode = data.draw(
                st.sampled_from(["none", "accumulate", "accumulate_twice", "assign"]),
                label="grad",
            )
            p.zero_grad()
            q.zero_grad()
            if mode == "none":
                continue
            gradient = _normal(rng, shapes[index], scale)
            if mode == "assign":
                p.grad = np.array(gradient)
                q.grad = np.array(gradient)
                continue
            p._accumulate(gradient)
            q._accumulate(gradient)
            if mode == "accumulate_twice":
                again = _normal(rng, shapes[index], scale)
                p._accumulate(again)
                q._accumulate(again)
        if data.draw(st.booleans(), label="clip"):
            live = [
                reference_side.params[i].grad
                for i in members[which]
                if reference_side.params[i].grad is not None
            ]
            norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in live)))
            ratio = data.draw(st.sampled_from([0.1, 0.5, 1.0, 2.0]), label="ratio")
            max_norm = max(norm * ratio, 1e-12)
            got = flat_optimizers[which].clip_gradients(max_norm)
            want = reference_optimizers[which].clip_gradients(max_norm)
            assert _bits(got) == _bits(want)
        flat_optimizers[which].step()
        reference_optimizers[which].step()
        _assert_same(flat_side, reference_side, flat_optimizers, reference_optimizers)


def test_views_are_aligned_and_survive_load_state_dict():
    holder = _Holder([np.ones((3, 5)), np.zeros(7), np.full((), 2.0)])
    optimizer = Adam(holder.params, 1e-2)
    views = [p.data for p in holder.params]
    for view in views:
        assert view.ctypes.data % 64 == 0
        assert view.base is not None
    holder.load_state_dict({f"param_{i}": np.full(v.shape, 7.0) for i, v in enumerate(views)})
    assert all(p.data is view for p, view in zip(holder.params, views))
    assert all((view == 7.0).all() for view in views)
    assert optimizer.moments(holder.params[0]) == (None, None)


def test_moments_are_none_until_stepped():
    holder = _Holder([np.ones(4), np.ones(4)])
    optimizer = Adam(holder.params[:1], 1e-2)
    holder.params[0]._accumulate(np.ones(4))
    optimizer.step()
    first, second = optimizer.moments(holder.params[0])
    assert first.shape == (4,) and second.shape == (4,)
    assert optimizer.moments(holder.params[1]) == (None, None)


def test_duplicate_parameter_is_rejected():
    parameter = Parameter(np.ones(3), name="shared_weight")
    with pytest.raises(ValueError, match="shared_weight"):
        Adam([parameter, Parameter(np.ones(2)), parameter], 1e-2)


def test_conditioned_policy_updates_in_three_runs():
    """Trunk, one task's embedding row and one head stack: one run each."""
    spaces = {
        "a": DiscreteFactorSpace(menus=((1, 2, 4), (1, 2))),
        "b": DiscreteFactorSpace(menus=((1, 2, 4, 8),)),
    }
    policy = make_policy(
        "discrete", 5, hidden_sizes=(8, 8), seed=1, spaces=spaces,
        conditioning="embedding",
    )

    class _NullEnv:
        def set_action_spaces(self, spaces):
            pass

    trainer = PPOTrainer(_NullEnv(), policy, PPOConfig(minibatch_size=8))
    assert isinstance(trainer._updater, FusedUpdater)
    rng = np.random.default_rng(0)
    observations = rng.standard_normal((8, 5))
    actions = np.zeros((8, 2))
    trainer._updater.update_minibatch(
        observations, actions, rng.standard_normal(8) - 1.0,
        rng.standard_normal(8), rng.standard_normal(8), task="a",
    )
    (runs,) = trainer.optimizer._run_cache.values()
    assert len(runs.slices) == 3


# -- scalar decodes against their np.clip formulation --------------------------


def _outcome(function, *args):
    try:
        return "ok", function(*args)
    except (ValueError, OverflowError) as error:
        return "raises", type(error)


def _np_discrete_decode(space, action):
    raw = np.asarray(action).reshape(-1)
    factors = []
    for dimension, menu in enumerate(space.menus):
        index = int(raw[min(dimension, raw.size - 1)])
        index = int(np.clip(index, 0, len(menu) - 1))
        factors.append(menu[index])
    return tuple(factors)


def _np_unflatten(space, flat_index):
    flat_index = int(np.clip(int(flat_index), 0, space.num_actions - 1))
    indices = []
    for menu in reversed(space.menus):
        flat_index, index = divmod(flat_index, len(menu))
        indices.append(index)
    indices.reverse()
    return tuple(menu[index] for menu, index in zip(space.menus, indices))


def _np_joint_decode(space, action):
    value = float(np.asarray(action).reshape(-1)[0])
    value = float(np.clip(value, 0.0, 1.0))
    return _np_unflatten(
        space, _round_half_down(value * max(space.num_actions - 1, 1))
    )


def _np_pair_decode(space, action):
    values = np.clip(np.asarray(action, dtype=np.float64).reshape(-1), 0.0, 1.0)
    factors = []
    for dimension, menu in enumerate(space.menus):
        raw = float(values[min(dimension, values.size - 1)])
        index = _round_half_down(raw * (len(menu) - 1))
        factors.append(menu[index])
    return tuple(factors)


_menus = st.lists(
    st.lists(st.integers(1, 64), min_size=1, max_size=6, unique=True).map(sorted),
    min_size=1,
    max_size=3,
)
_ints = st.integers(-10**6, 10**6)
_int_like = st.one_of(
    _ints,
    _ints.map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
)
_edge_floats = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 1.0 - 1e-16, 1e-300, float("nan"),
     float("inf"), -float("inf")]
)
_floats = st.one_of(_edge_floats, st.floats(allow_nan=True, allow_infinity=True))


@_SETTINGS
@given(menus=_menus, values=st.lists(st.one_of(_int_like, _floats), min_size=1, max_size=4))
def test_discrete_decode_matches_np_clip(menus, values):
    space = DiscreteFactorSpace(menus=menus)
    action = np.array(values, dtype=np.float64 if any(
        isinstance(v, float) for v in values) else np.int64)
    assert _outcome(space.decode, action) == _outcome(_np_discrete_decode, space, action)


@_SETTINGS
@given(menus=_menus, flat_index=st.one_of(_int_like, _edge_floats))
def test_unflatten_action_matches_np_clip(menus, flat_index):
    space = DiscreteFactorSpace(menus=menus)
    assert _outcome(space.unflatten_action, flat_index) == _outcome(
        _np_unflatten, space, flat_index
    )


@_SETTINGS
@given(menus=_menus, value=st.one_of(_floats, _int_like))
def test_continuous_joint_decode_matches_np_clip(menus, value):
    space = ContinuousJointSpace(menus=menus)
    assert _outcome(space.decode, np.array([value])) == _outcome(
        _np_joint_decode, space, np.array([value])
    )


@_SETTINGS
@given(menus=_menus, values=st.lists(st.one_of(_floats, _int_like), min_size=1, max_size=4))
def test_continuous_pair_decode_matches_np_clip(menus, values):
    space = ContinuousPairSpace(menus=menus)
    action = np.array([float(value) for value in values])
    assert _outcome(space.decode, action) == _outcome(_np_pair_decode, space, action)


@_SETTINGS
@given(
    reward=st.one_of(_floats, _ints),
    clip=st.one_of(st.sampled_from([0.0, 1.0, 9.0]), st.floats(0.0, 1e6)),
)
def test_reward_clip_rule_matches_np_clip(reward, clip):
    """``PPOTrainer.collect_batch``'s scalar rule, bit for bit, signed zeros
    and NaN included."""
    got = float(min(max(reward, -clip), clip))
    want = float(np.clip(reward, -clip, clip))
    assert _bits(got) == _bits(want)
