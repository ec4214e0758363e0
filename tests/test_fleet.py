"""Tests for the fleet evaluation subsystem (repro.fleet)."""

from __future__ import annotations

import pytest

from fleet_utils import (
    add_kernel,
    fleet_service,
    grid_requests,
    outcome_tuples,
    scale_kernel,
    serial_outcomes,
    start_workers,
    task_requests,
    worker_address,
)
from repro.cache.reward_cache import CachedMeasurement, RewardCache, RewardKey
from repro.core.pipeline import CompileAndMeasure
from repro.distributed import EvaluationService, PersistentRewardStore
from repro.evaluation.report import (
    format_cache_stats_table,
    format_service_stats_table,
)
from repro.fleet import FleetEvaluationService, FleetStats, WorkerFaults
from repro.fleet.protocol import decode_entries, encode_entries
from repro.tasks import get_task

ALL_TASKS = ("vectorization", "polly-tiling", "unrolling")


def rollout_env(tasks, seed=0, shuffle=True, service=None):
    """A ``MultiTaskEnv`` over the add/scale kernels for ``tasks``."""
    from repro.core.framework import build_embedding_model
    from repro.rl.env import MultiTaskEnv, build_samples
    from repro.tasks import resolve_task

    kernels = [add_kernel(), scale_kernel()]
    embedding = build_embedding_model(kernels)
    pipeline = CompileAndMeasure()
    resolved = [resolve_task(name) for name in tasks]
    return MultiTaskEnv(
        resolved,
        {
            task.name: build_samples(kernels, embedding, pipeline, task=task)
            for task in resolved
        },
        seed=seed,
        shuffle=shuffle,
        evaluation_service=service,
    )


def task_policy(env, conditioning=None):
    """A discrete policy over ``env``'s tasks, as the trainer builds it."""
    from repro.rl.policy import make_policy

    return make_policy(
        "discrete",
        env.observation_dim,
        seed=0,
        spaces={name: task.action_space("discrete") for name, task in env.tasks.items()},
        conditioning=conditioning,
    )


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestFleetProtocol:
    # Framing round trip / malformed line: tests/test_wire.py, [fleet] cases.

    def test_entry_round_trip(self):
        key = RewardKey(
            kernel_hash="k" * 40,
            machine_hash="m" * 40,
            loop_index=-3,
            action=(0, 4, 2),
            task="vectorization",
            default_symbol_value=256,
        )
        entries = [(key, CachedMeasurement(cycles=123.5, compile_seconds=0.25))]
        decoded = decode_entries(encode_entries(entries))
        assert decoded == entries


# ---------------------------------------------------------------------------
# Sharded evaluation == serial
# ---------------------------------------------------------------------------


class TestFleetSharding:
    def test_two_worker_fleet_matches_serial(self):
        requests = grid_requests(add_kernel()) + grid_requests(scale_kernel())
        serial = serial_outcomes(requests)
        with start_workers(2) as workers, fleet_service(workers) as service:
            assert service.workers == 2
            assert outcome_tuples(service.evaluate(requests)) == serial
            assert service.stats.completed == len(requests)
            assert sum(service.stats.per_worker_completed.values()) == len(requests)
            assert service.stats.errors == 0

    @pytest.mark.parametrize("task_name", ["polly-tiling", "unrolling"])
    def test_task_payloads_shard_identically_to_serial(self, task_name):
        task = get_task(task_name)
        requests = task_requests(task, [add_kernel(), scale_kernel()])
        serial = serial_outcomes(requests, task=task)
        with start_workers(2) as workers, fleet_service(workers) as service:
            assert outcome_tuples(service.evaluate(requests, task=task)) == serial

    def test_kernel_payload_ships_once_per_worker(self):
        with start_workers(2) as workers, fleet_service(workers) as service:
            service.evaluate(
                grid_requests(add_kernel(), vfs=(1, 2))
                + grid_requests(scale_kernel(), vfs=(1, 2))
            )
            shipped = sum(worker.kernels_received for worker in workers)
            # One shard per kernel: each kernel's source crossed the wire once.
            assert shipped == 2
            service.evaluate(
                grid_requests(add_kernel(), vfs=(4, 8))
                + grid_requests(scale_kernel(), vfs=(4, 8))
            )
            assert sum(worker.kernels_received for worker in workers) == shipped

    def test_second_evaluation_is_all_cache_hits(self):
        requests = grid_requests(add_kernel())
        with start_workers(2) as workers, fleet_service(workers) as service:
            service.evaluate(requests)
            dispatched = service.stats.dispatched
            outcomes = service.evaluate(requests)
            assert all(outcome.was_cached for outcome in outcomes)
            assert service.stats.dispatched == dispatched

    def test_shared_store_dir_persists_fleet_measurements(self, tmp_path):
        requests = grid_requests(add_kernel())
        with start_workers(1, store_dir=str(tmp_path)) as workers:
            with fleet_service(workers) as service:
                expected = outcome_tuples(service.evaluate(requests))
        warm = RewardCache(PersistentRewardStore(str(tmp_path)))
        assert warm.preloaded >= len(requests)
        service = EvaluationService(CompileAndMeasure(), warm, workers=0)
        outcomes = service.evaluate(requests)
        assert all(outcome.was_cached for outcome in outcomes)
        assert outcome_tuples(outcomes) == expected
        warm.close()

    def test_stop_closes_the_store_segment_and_restart_reopens_it(self, tmp_path):
        requests = grid_requests(add_kernel())
        with start_workers(1, store_dir=str(tmp_path)) as (worker,):
            with fleet_service([worker]) as service:
                service.evaluate(requests[:4])
            store = worker.cache.store
            assert store._handle is not None
            worker.stop()
            assert store._handle is None
            worker.start()
            with fleet_service([worker]) as service:
                service.evaluate(requests)
            assert store._handle is not None
        assert store._handle is None
        assert len(store.segment_paths()) == 1
        assert len(PersistentRewardStore(str(tmp_path)).load()) == len(requests)


# ---------------------------------------------------------------------------
# Fault tolerance
# ---------------------------------------------------------------------------


class TestFleetFaults:
    def test_worker_death_reshards_byte_identically(self):
        requests = grid_requests(add_kernel()) + grid_requests(scale_kernel())
        serial = serial_outcomes(requests)
        faults = [WorkerFaults(die_after=2), None]
        with start_workers(2, faults=faults) as workers:
            with fleet_service(workers) as service:
                assert outcome_tuples(service.evaluate(requests)) == serial
                assert service.stats.workers_lost == 1
                assert service.stats.reshards > 0
                assert service.stats.retries > 0
                assert service.workers == 1

    def test_total_worker_loss_completes_inline(self):
        requests = grid_requests(add_kernel())
        serial = serial_outcomes(requests)
        with start_workers(1, faults=[WorkerFaults(die_after=1)]) as workers:
            with fleet_service(workers) as service:
                assert outcome_tuples(service.evaluate(requests)) == serial
                assert service.stats.workers_lost == 1
                assert service.stats.inline_evaluations > 0
                assert service.workers == 0
                # A dead fleet degrades to the serial batcher, not an error.
                follow_up = grid_requests(scale_kernel())
                assert outcome_tuples(service.evaluate(follow_up)) == serial_outcomes(
                    follow_up
                )
                assert service.stats.serial_batches == 1

    def test_dropped_heartbeats_detected_and_resharded(self):
        requests = grid_requests(add_kernel()) + grid_requests(scale_kernel())
        serial = serial_outcomes(requests)
        faults = [WorkerFaults(drop_heartbeats_after=2), None]
        with start_workers(2, faults=faults) as workers:
            with fleet_service(workers) as service:
                assert outcome_tuples(service.evaluate(requests)) == serial
                assert service.stats.workers_lost == 1

    def test_torn_connection_resharded(self):
        requests = grid_requests(add_kernel()) + grid_requests(scale_kernel())
        serial = serial_outcomes(requests)
        faults = [WorkerFaults(tear_after=2), None]
        with start_workers(2, faults=faults) as workers:
            with fleet_service(workers) as service:
                assert outcome_tuples(service.evaluate(requests)) == serial
                assert service.stats.workers_lost == 1

    def test_garbage_from_a_worker_is_skipped_and_an_oversize_line_is_a_loss(
        self, monkeypatch
    ):
        """A malformed line is skipped; a line that never ends closes the
        connection, which surfaces as exactly one ``lost`` event."""
        from repro import wire
        from repro.fleet import FleetCoordinator
        from repro.fleet.protocol import result_message, welcome_message

        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 256 * 1024)

        held = []

        def rogue_worker(connection):
            held.append(connection)  # closed only after the cap has bitten
            assert connection.receive()["type"] == "hello"
            connection.send(welcome_message("rogue"))
            connection._sock.sendall(b"{not json\n")
            connection.send(result_message(7, cycles=1.0))
            connection._sock.sendall(b"x" * (512 * 1024))

        listener = wire.Listener("127.0.0.1", 0, rogue_worker)
        pipeline = CompileAndMeasure()
        coordinator = FleetCoordinator(pipeline.machine, pipeline.default_symbol_value)
        try:
            host, port = listener.address
            assert coordinator.dial([f"{host}:{port}"]) == ["rogue"]
            event, name, result = coordinator.poll(timeout=10.0)
            assert (event, name, result.request_id) == ("result", "rogue", 7)
            assert coordinator.poll(timeout=10.0) == ("lost", "rogue", None)
            assert coordinator.live_workers() == []
            assert coordinator.poll(timeout=0.3) is None
        finally:
            coordinator.close()
            listener.stop()
            for connection in held:
                connection.close()

    def test_connect_degrades_to_local_service_when_unreachable(self):
        service = FleetEvaluationService.connect(
            CompileAndMeasure(),
            RewardCache(),
            addresses=["127.0.0.1:9"],  # discard port: nothing listens
            connect_timeout=0.2,
        )
        try:
            assert isinstance(service, EvaluationService)
            requests = grid_requests(add_kernel())
            assert outcome_tuples(service.evaluate(requests)) == serial_outcomes(
                requests
            )
        finally:
            service.close()

    def test_connect_swaps_in_the_fallback_pool_backend(self):
        with FleetEvaluationService.connect(
            CompileAndMeasure(),
            RewardCache(),
            addresses=["127.0.0.1:9"],
            fallback_workers=1,
            connect_timeout=0.2,
        ) as service:
            # Same class, local transport: no fleet rows, no speculation.
            assert isinstance(service, FleetEvaluationService)
            assert service.workers == 1
            assert not service.stats.remote
            assert service.prefetch_top_k == 0
            requests = grid_requests(add_kernel())
            assert outcome_tuples(service.evaluate(requests)) == serial_outcomes(
                requests
            )
            assert service.stats.completed == len(requests)


# ---------------------------------------------------------------------------
# Speculative prefetch
# ---------------------------------------------------------------------------


class TestFleetPrefetch:
    def test_settled_prefetch_turns_demand_into_hits(self):
        requests = grid_requests(add_kernel())
        serial = serial_outcomes(requests)
        with start_workers(2) as workers, fleet_service(workers) as service:
            assert service.prefetch(requests) == len(requests)
            service.settle()
            outcomes = service.evaluate(requests)
            assert outcome_tuples(outcomes) == serial
            assert all(outcome.was_cached for outcome in outcomes)
            assert service.stats.prefetch_hits == len(requests)
            assert service.stats.demand_dispatched == 0
            assert service.stats.waits_converted == 1.0

    def test_demand_joins_in_flight_prefetch(self):
        requests = grid_requests(add_kernel())
        serial = serial_outcomes(requests)
        with start_workers(2) as workers, fleet_service(workers) as service:
            assert service.prefetch(requests) == len(requests)
            # No settle(): results drain only inside result(), so every
            # demand submit below deterministically finds its key in flight.
            outcomes = service.evaluate(requests)
            assert outcome_tuples(outcomes) == serial
            assert service.stats.prefetch_joined == len(requests)
            assert service.stats.demand_dispatched == 0
            assert service.stats.waits_converted == 1.0

    def test_prefetch_skips_cached_and_in_flight_keys(self):
        requests = grid_requests(add_kernel())
        with start_workers(2) as workers, fleet_service(workers) as service:
            service.evaluate(requests)
            assert service.prefetch(requests) == 0  # warm: nothing to do
            fresh = grid_requests(scale_kernel())
            assert service.prefetch(fresh) == len(fresh)
            assert service.prefetch(fresh) == 0  # already in flight
            service.settle()
            assert service.stats.prefetch_issued == len(fresh)

    @staticmethod
    def _speculate(tasks):
        from repro.fleet.prefetch import SpeculativePrefetcher

        with start_workers(2) as workers:
            with fleet_service(workers, prefetch_top_k=4) as service:
                env = rollout_env(tasks, shuffle=False, service=service)
                policy = task_policy(env)
                prefetcher = SpeculativePrefetcher(env, policy, service)
                issued = prefetcher.prefetch()
                assert 0 < issued <= 4 * len(env.samples)
                assert service.stats.prefetch_issued == issued
                service.settle()
                assert service.stats.completed == issued

    def test_prefetcher_speculates_policy_top_actions(self):
        self._speculate(("vectorization",))

    def test_prefetcher_speculates_policy_top_actions_over_joint_env(self):
        self._speculate(ALL_TASKS)

    @pytest.mark.parametrize("conditioning", ["embedding", "banks"])
    def test_top_speculation_is_the_greedy_action(self, conditioning):
        # Regression: the prefetcher fed the bare trunk output to heads that
        # read trunk output plus the task-embedding row, so an embedding-
        # conditioned policy (the joint-training default) crashed it.
        from repro.fleet.prefetch import SpeculativePrefetcher

        class RecordingService:
            workers = 1
            prefetch_top_k = 2
            prefetch_horizon = None

            def __init__(self):
                self.requests = []

            def prefetch(self, requests, task):
                self.requests.extend(
                    (task.name, kernel.name, site, action)
                    for kernel, site, action in requests
                )
                return len(requests)

        env = rollout_env(ALL_TASKS, shuffle=False)
        policy = task_policy(env, conditioning=conditioning)
        service = RecordingService()
        upcoming = env.peek_upcoming(len(env.samples))
        issued = SpeculativePrefetcher(
            env, policy, service, top_k=1, horizon=len(env.samples)
        ).prefetch()
        assert issued == len(upcoming) == len(env.samples)
        outputs = policy.act_batch(
            [sample.observation for sample in upcoming],
            deterministic=True,
            tasks=[sample.task_name for sample in upcoming],
        )
        greedy = [
            (
                sample.task_name,
                sample.kernel.name,
                sample.loop_index,
                env.action_spaces[sample.task_name].decode(output.action),
            )
            for sample, output in zip(upcoming, outputs)
        ]
        assert sorted(service.requests) == sorted(greedy)


# ---------------------------------------------------------------------------
# Whole-kernel application fan-out
# ---------------------------------------------------------------------------


class TestMeasureApplications:
    def test_fleet_fan_out_matches_serial_apply(self):
        task = get_task("vectorization")
        decisions = {0: (4, 2)}
        jobs = [(add_kernel(), decisions), (scale_kernel(), decisions)]

        serial_cache = RewardCache()
        expected = [
            task.apply(
                CompileAndMeasure(), kernel, plan, reward_cache=serial_cache
            ).result.cycles
            for kernel, plan in jobs
        ]

        with start_workers(2) as workers, fleet_service(workers) as service:
            flags = service.measure_applications(task, jobs, detail=True)
            assert flags == [True, True]
            # Per-lifetime dedup: a rerun dispatches nothing.
            assert service.measure_applications(task, jobs, detail=True) == [
                False,
                False,
            ]
            applied = [
                task.apply(
                    service.pipeline, kernel, plan, reward_cache=service.cache
                ).result.cycles
                for kernel, plan in jobs
            ]
        assert applied == expected


# ---------------------------------------------------------------------------
# Rollout peeking (the prefetcher's lookahead)
# ---------------------------------------------------------------------------


class TestPeekUpcoming:
    """Over a one-task env; :class:`TestPeekUpcomingJoint` reruns every
    case over one env holding all three tasks."""

    TASKS = ("vectorization",)

    def _env(self, seed: int = 3, shuffle: bool = True):
        return rollout_env(self.TASKS, seed=seed, shuffle=shuffle)

    def test_peek_matches_next_batch_without_advancing(self):
        env = self._env(shuffle=False)
        peeked = env.peek_upcoming(2)
        assert env.peek_upcoming(2) == peeked  # idempotent, no cursor motion
        assert env.next_batch(2) == peeked

    def test_interleaved_peeks_leave_rollout_order_unchanged(self):
        with_peeks = self._env()
        reference = self._env()
        served, expected = [], []
        for _ in range(3):
            with_peeks.peek_upcoming(5)
            served.extend(
                (sample.task_name, sample.kernel.name, sample.loop_index)
                for sample in with_peeks.next_batch(2)
            )
            with_peeks.peek_upcoming(1)
            expected.extend(
                (sample.task_name, sample.kernel.name, sample.loop_index)
                for sample in reference.next_batch(2)
            )
        assert served == expected

    def test_epoch_boundary_serves_stable_stand_in(self):
        env = self._env(shuffle=False)
        env.next_batch(len(env.samples))  # exhaust the epoch
        assert env.peek_upcoming(2) == env.samples[:2]


class TestPeekUpcomingJoint(TestPeekUpcoming):
    TASKS = ALL_TASKS


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


class TestFleetReports:
    def test_fleet_stats_table_renders_robustness_counters(self):
        stats = FleetStats(remote=True)
        stats.record_dispatch("w0")
        stats.record_completion("w0")
        stats.prefetch_issued = 4
        stats.prefetch_hits = 3
        rendered = format_service_stats_table(stats).render()
        assert "re-shards" in rendered
        assert "async waits converted" in rendered
        assert "worker w0 completed" in rendered

    def test_cache_table_splits_speculative_hits(self):
        cache = RewardCache()
        stats = FleetStats()
        stats.prefetch_issued = 2
        stats.prefetch_hits = 2
        rendered = format_cache_stats_table(cache.stats, fleet=stats).render()
        assert "hits (speculative)" in rendered
        assert "hits (demand)" in rendered

    def test_register_listen_path_accepts_dialing_worker(self):
        from repro.fleet import FleetCoordinator, FleetWorker

        pipeline = CompileAndMeasure()
        coordinator = FleetCoordinator(
            pipeline.machine, pipeline.default_symbol_value
        )
        host, port = coordinator.listen()
        worker = FleetWorker()
        worker.start()
        try:
            worker.dial(host, port)
            deadline = 50
            while not coordinator.live_workers() and deadline:
                import time

                time.sleep(0.05)
                deadline -= 1
            assert coordinator.live_workers() == [worker.name]
            service = FleetEvaluationService(
                pipeline, RewardCache(), coordinator=coordinator
            )
            requests = grid_requests(add_kernel())
            assert outcome_tuples(
                service.evaluate(requests)
            ) == serial_outcomes(requests)
            service.close()
        finally:
            worker.stop()


def test_worker_address_helper():
    from repro.fleet import FleetWorker

    worker = FleetWorker()
    worker.start()
    try:
        host, port = worker.address
        assert worker_address(worker) == f"{host}:{port}"
        assert port > 0
    finally:
        worker.stop()
