"""Property-based tests (hypothesis) over core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import Tensor, ops
from repro.analysis.affine import affine_of
from repro.analysis.dependence import analyze_dependences, max_safe_vf
from repro.analysis.loopinfo import analyze_loop
from repro.frontend import parse_source
from repro.frontend.pragmas import LoopPragma, format_pragma, parse_pragma_text
from repro.ir.evaluate import evaluate_expr, trip_count_of
from repro.ir.expr import BinOp, Const, ScalarRef
from repro.ir.lowering import lower_unit
from repro.machine.description import MachineDescription
from repro.rl.spaces import ContinuousJointSpace, ContinuousPairSpace, DiscreteFactorSpace
from repro.simulator.cost import estimate_loop_cost, estimate_working_set
from repro.vectorizer.legality import check_legality
from repro.vectorizer.planner import make_loop_plan

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

power_of_two = st.sampled_from([1, 2, 4, 8, 16, 32, 64])
interleave_values = st.sampled_from([1, 2, 4, 8, 16])


class TestPragmaProperties:
    @_SETTINGS
    @given(vf=power_of_two, interleave=interleave_values)
    def test_pragma_format_parse_round_trip(self, vf, interleave):
        pragma = LoopPragma(vectorize_width=vf, interleave_count=interleave)
        assert parse_pragma_text(format_pragma(pragma)) == pragma


class TestAffineProperties:
    @_SETTINGS
    @given(coefficient=st.integers(-16, 16), constant=st.integers(-64, 64))
    def test_linear_expression_coefficients_recovered(self, coefficient, constant):
        expr = BinOp(
            op="+",
            lhs=BinOp(op="*", lhs=Const(value=coefficient), rhs=ScalarRef(name="i")),
            rhs=Const(value=constant),
        )
        form = affine_of(expr, ["i"])
        assert form.is_affine
        assert form.coefficient("i") == coefficient
        assert form.constant == constant

    @_SETTINGS
    @given(a=st.integers(-20, 20), b=st.integers(-20, 20), i=st.integers(0, 50))
    def test_affine_form_evaluates_like_expression(self, a, b, i):
        expr = BinOp(
            op="+",
            lhs=BinOp(op="*", lhs=Const(value=a), rhs=ScalarRef(name="i")),
            rhs=Const(value=b),
        )
        form = affine_of(expr, ["i"])
        assert form.coefficient("i") * i + form.constant == evaluate_expr(expr, {"i": i})


class TestTripCountProperties:
    @_SETTINGS
    @given(lower=st.integers(0, 100), extent=st.integers(0, 1000), step=st.integers(1, 8))
    def test_trip_count_matches_python_range(self, lower, extent, step):
        upper = lower + extent
        expected = len(range(lower, upper, step))
        assert trip_count_of(Const(value=lower), Const(value=upper), step) == expected


class TestSpacesProperties:
    @_SETTINGS
    @given(vf=power_of_two, interleave=interleave_values)
    def test_discrete_space_round_trip(self, vf, interleave):
        space = DiscreteFactorSpace()
        assert space.decode(space.encode((vf, interleave))) == (vf, interleave)

    @_SETTINGS
    @given(vf=power_of_two, interleave=interleave_values)
    def test_continuous_spaces_round_trip(self, vf, interleave):
        for space in (ContinuousJointSpace(), ContinuousPairSpace()):
            assert space.decode(space.encode((vf, interleave))) == (vf, interleave)

    @_SETTINGS
    @given(value=st.floats(min_value=-2.0, max_value=3.0, allow_nan=False))
    def test_continuous_joint_always_decodes_to_menu(self, value):
        space = ContinuousJointSpace()
        vf, interleave = space.decode([value])
        assert vf in space.menus[0]
        assert interleave in space.menus[1]


class TestPlannerProperties:
    SOURCES = [
        "float a[256], b[256];\nvoid f() { for (int i = 0; i < 256; i++) a[i] = b[i]; }",
        "float a[256];\nvoid f() { for (int i = 8; i < 256; i++) a[i] = a[i-8]; }",
        "float a[256];\nfloat f() { float s = 0; for (int i = 0; i < 256; i++) s += a[i]; return s; }",
    ]

    @_SETTINGS
    @given(
        source_index=st.integers(0, 2),
        vf=st.integers(1, 200),
        interleave=st.integers(1, 64),
    )
    def test_effective_factors_always_legal_powers_of_two(self, source_index, vf, interleave):
        machine = MachineDescription()
        function = lower_unit(parse_source(self.SOURCES[source_index]))["f"]
        loop = function.innermost_loops()[0]
        plan = make_loop_plan(function, loop, vf, interleave, machine)
        assert plan.vf & (plan.vf - 1) == 0  # power of two
        assert plan.interleave & (plan.interleave - 1) == 0
        assert plan.vf <= plan.legality.max_vf
        assert plan.vf <= machine.max_vectorize_width
        assert plan.interleave <= machine.max_interleave
        assert plan.vf <= max(vf, 1)


class TestSimulatorProperties:
    @_SETTINGS
    @given(vf=power_of_two, interleave=interleave_values, trip=st.integers(1, 5000))
    def test_loop_cost_is_positive_and_accounts_every_element(self, vf, interleave, trip):
        machine = MachineDescription()
        function = lower_unit(parse_source(
            "float a[8192], b[8192];\nvoid f() { for (int i = 0; i < 8192; i++) a[i] = b[i]; }"
        ))["f"]
        loop = function.innermost_loops()[0]
        analysis = analyze_loop(function, loop)
        cost = estimate_loop_cost(analysis, machine, vf, interleave, trip)
        assert cost.total_cycles > 0
        covered = cost.vector_iterations * vf * interleave + cost.epilogue_iterations
        assert covered == trip

    @_SETTINGS
    @given(trip=st.integers(1, 4096))
    def test_working_set_monotone_in_trip_count(self, trip):
        function = lower_unit(parse_source(
            "float a[100000];\nvoid f(int n) { for (int i = 0; i < n; i++) a[i] = 1; }"
        ))["f"]
        analysis = analyze_loop(function, function.innermost_loops()[0])
        smaller = estimate_working_set(analysis, trip)
        larger = estimate_working_set(analysis, trip + 100)
        assert larger >= smaller


class TestLegalityProperties:
    @_SETTINGS
    @given(distance=st.integers(1, 64))
    def test_max_safe_vf_never_exceeds_dependence_distance(self, distance):
        source = (
            f"float a[512];\nvoid f() {{ for (int i = {distance}; i < 512; i++)"
            f" a[i] = a[i-{distance}] + 1; }}"
        )
        function = lower_unit(parse_source(source))["f"]
        loop = function.innermost_loops()[0]
        graph = analyze_dependences(loop, function.arrays)
        assert max_safe_vf(graph) <= max(1, distance)

    @_SETTINGS
    @given(distance=st.integers(1, 64))
    def test_legality_consistent_with_dependence(self, distance):
        source = (
            f"float a[512];\nvoid f() {{ for (int i = {distance}; i < 512; i++)"
            f" a[i] = a[i-{distance}] + 1; }}"
        )
        function = lower_unit(parse_source(source))["f"]
        loop = function.innermost_loops()[0]
        legality = check_legality(analyze_loop(function, loop))
        assert legality.max_vf <= max(1, distance)


class TestAutodiffProperties:
    @_SETTINGS
    @given(
        values=st.lists(st.floats(-3, 3, allow_nan=False, width=32), min_size=2, max_size=6)
    )
    def test_softmax_output_is_distribution(self, values):
        tensor = Tensor(np.array(values, dtype=np.float64).reshape(1, -1))
        probabilities = ops.softmax(tensor, axis=-1).numpy()
        assert probabilities.min() >= 0
        assert probabilities.sum() == pytest.approx(1.0, rel=1e-9)

    @_SETTINGS
    @given(
        values=st.lists(st.floats(-2, 2, allow_nan=False, width=32), min_size=2, max_size=5)
    )
    def test_sum_gradient_is_ones(self, values):
        tensor = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
        ops.sum(tensor).backward()
        assert np.allclose(tensor.grad, np.ones(len(values)))


# ---------------------------------------------------------------------------
# RewardKey v2 / persistent-store schema v2 round trips
# ---------------------------------------------------------------------------

_task_names = st.sampled_from(
    ["vectorization", "polly-tiling", "unrolling", "custom-task", "function"]
)
_actions = st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=4).map(tuple)
_hashes = st.text(alphabet="0123456789abcdef", min_size=8, max_size=12)
_measurements = st.tuples(
    st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _store_records(draw):
    from repro.cache.reward_cache import CachedMeasurement, RewardKey

    key = RewardKey(
        kernel_hash=draw(_hashes),
        machine_hash=draw(_hashes),
        loop_index=draw(st.integers(-3, 64)),
        action=draw(_actions),
        task=draw(_task_names),
        default_symbol_value=draw(st.sampled_from([128, 256, 1024])),
    )
    cycles, compile_seconds = draw(_measurements)
    return key, CachedMeasurement(cycles=cycles, compile_seconds=compile_seconds)


class TestRewardStoreRoundTripProperties:
    """Randomized task-tagged records survive store → load → compact cycles."""

    @_SETTINGS
    @given(records=st.lists(_store_records(), max_size=12))
    def test_append_load_round_trip_is_exact(self, records):
        import tempfile

        from repro.distributed import PersistentRewardStore

        with tempfile.TemporaryDirectory() as directory:
            with PersistentRewardStore(directory) as store:
                for key, measurement in records:
                    store.append(key, measurement)
            loaded = PersistentRewardStore(directory).load()
        # Later appends for the same key win, matching cache.put semantics.
        expected = dict(records)
        assert loaded == expected

    @_SETTINGS
    @given(records=st.lists(_store_records(), min_size=1, max_size=12))
    def test_compaction_preserves_every_record(self, records):
        import tempfile

        from repro.distributed import PersistentRewardStore

        # Distinct keys per segment: cross-segment conflicts merge in
        # filename order by (documented) design, so a key must live in one
        # writer's segment for the expected mapping to be well-defined.
        unique = list(dict(records).items())
        with tempfile.TemporaryDirectory() as directory:
            # Two writer segments, as two concurrent runs would leave behind.
            half = len(unique) // 2
            for chunk in (unique[:half], unique[half:]):
                with PersistentRewardStore(directory) as store:
                    for key, measurement in chunk:
                        store.append(key, measurement)
            compactor = PersistentRewardStore(directory)
            compactor.compact()
            assert len(compactor.segment_paths()) == 1
            assert PersistentRewardStore(directory).load() == dict(unique)

    @_SETTINGS
    @given(records=st.lists(_store_records(), max_size=10))
    def test_disk_backed_cache_round_trip(self, records):
        import tempfile

        from repro.cache.reward_cache import RewardCache
        from repro.distributed import PersistentRewardStore

        with tempfile.TemporaryDirectory() as directory:
            with RewardCache(PersistentRewardStore(directory)) as cache:
                for key, measurement in records:
                    cache.put(key, measurement)
            with RewardCache(PersistentRewardStore(directory)) as reloaded:
                assert reloaded.preloaded == len(dict(records))
                for key, measurement in dict(records).items():
                    assert reloaded.peek(key) == measurement
