"""Tests for the compile service: the batched policy-serving front door.

The serving guarantees pinned here:

* a warm persistent store answers without a single simulator call (the
  ``store`` tier),
* identical concurrent requests coalesce — one forward, one simulation,
  followers marked ``coalesced`` — while distinct requests in one tick
  still share a single ``act_batch`` trunk forward,
* requests route per task for every registered task through one service,
* shutdown drains: every admitted request is answered before the worker
  exits (and a non-draining stop fails them fast instead of hanging),
* the TCP front end round-trips requests by id — including requests it
  could not admit — a client whose round trip failed fails fast afterwards,
  duplicate ids in one window are refused before anything is sent, a
  store-warm window costs milliseconds (no Nagle/delayed-ACK stall), and
  the stats report renders the latency/throughput/tier table.
"""

from __future__ import annotations

import statistics
import threading
import time

import pytest

from repro.cache.reward_cache import RewardCache
from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.core.pipeline import CompileAndMeasure
from repro.datasets.kernels import LoopKernel
from repro.distributed import EvaluationService, PersistentRewardStore
from repro.serving import (
    TIER_COLD,
    TIER_FRONTEND,
    TIER_STORE,
    CompileRequest,
    CompileServer,
    CompileService,
    InProcessClient,
    ServiceClosed,
    ServingError,
    TCPClient,
)
from repro.simulator.engine import Simulator
from repro.tasks import get_task
from repro.wire import Connection, Listener

ALL_TASKS = ("vectorization", "polly-tiling", "unrolling")

REDUCTION_SOURCE = """
float a[2048], b[2048];
float work() {
    float s = 0;
    for (int i = 0; i < 2048; i++) {
        s += a[i] * b[i];
    }
    return s;
}
"""

STREAM_SOURCE = """
float x[2048], y[2048];
void scale(float alpha) {
    for (int i = 0; i < 2048; i++) {
        y[i] = alpha * x[i];
    }
}
"""


def count_simulations(body):
    """Run ``body()`` counting Simulator.simulate calls (any thread)."""
    calls = {"n": 0}
    original = Simulator.simulate

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    Simulator.simulate = counting
    try:
        result = body()
    finally:
        Simulator.simulate = original
    return result, calls["n"]


@pytest.fixture(scope="module")
def trained():
    """One tiny policy trained jointly on every registered task."""
    kernels = [
        LoopKernel(name="work", source=REDUCTION_SOURCE, function_name="work"),
        LoopKernel(name="stream", source=STREAM_SOURCE, function_name="scale"),
    ]
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


def fresh_service(trained, **knobs):
    """A service on the trained policy with its own pipeline/cache/memo."""
    knobs.setdefault("tasks", list(ALL_TASKS))
    return CompileService(trained.agent.policy, trained.embedding_model, **knobs)


class TestTiers:
    def test_cold_then_store_on_shared_cache(self, trained):
        service = fresh_service(trained)
        with service:
            first = service.optimize(CompileRequest(source=STREAM_SOURCE))
            assert first.ok and first.tier == TIER_COLD
            assert first.decisions and first.cycles > 0
            (second, simulations) = count_simulations(
                lambda: service.optimize(CompileRequest(source=STREAM_SOURCE))
            )
        assert second.ok
        assert second.tier == TIER_STORE
        assert simulations == 0
        assert second.decisions == first.decisions
        assert second.cycles == first.cycles

    def test_warm_disk_store_simulates_nothing(self, trained, tmp_path):
        cache_dir = str(tmp_path / "store")
        request = CompileRequest(source=REDUCTION_SOURCE, task="unrolling")

        cold_cache = RewardCache(PersistentRewardStore(cache_dir))
        with fresh_service(
            trained, evaluation_service=EvaluationService(CompileAndMeasure(), cold_cache)
        ) as cold_service:
            cold = cold_service.optimize(request)
        cold_cache.close()
        assert cold.ok and cold.tier == TIER_COLD

        warm_cache = RewardCache(PersistentRewardStore(cache_dir))
        assert warm_cache.preloaded > 0
        # A brand-new service: empty observation memo, fresh pipeline —
        # only the persisted measurements are warm.
        with fresh_service(
            trained, evaluation_service=EvaluationService(CompileAndMeasure(), warm_cache)
        ) as warm_service:
            warm, simulations = count_simulations(
                lambda: warm_service.optimize(request)
            )
        warm_cache.close()
        assert warm.ok
        assert simulations == 0
        assert warm.tier == TIER_STORE
        assert warm.decisions == cold.decisions
        assert warm.cycles == cold.cycles

    def test_a_cached_application_is_not_fanned_out_to_workers(self, trained):
        # Regression: the fan-out looked cached applications up under the
        # flattened-decision key, but the pragma tasks store theirs under
        # the annotated-text key, so with workers a warm vectorization or
        # unrolling request was dispatched again and answered as cold.
        requests = [CompileRequest(source=STREAM_SOURCE, task=task) for task in ALL_TASKS]
        cache = RewardCache()
        with fresh_service(
            trained, evaluation_service=EvaluationService(CompileAndMeasure(), cache)
        ) as serial:
            cold = [serial.optimize(request) for request in requests]
        assert all(answer.ok and answer.tier == TIER_COLD for answer in cold)

        with EvaluationService(CompileAndMeasure(), cache, workers=1) as pool:
            with fresh_service(trained, evaluation_service=pool) as service:
                for request, first in zip(requests, cold):
                    warm = service.optimize(request)
                    assert warm.ok, request.task
                    assert (warm.tier, pool.stats.dispatched) == (TIER_STORE, 0), request.task
                    assert warm.cycles == first.cycles

    def test_frontend_tier_when_memo_hits_but_cache_is_cold(self, trained):
        service = fresh_service(trained)
        with service:
            first = service.optimize(CompileRequest(source=STREAM_SOURCE))
            assert first.tier == TIER_COLD
            service.reward_cache.clear()
            second = service.optimize(CompileRequest(source=STREAM_SOURCE))
        assert second.ok
        assert second.tier == TIER_FRONTEND
        assert second.decisions == first.decisions

    def test_one_file_at_two_sizes_gets_each_size_its_own_answer(self, trained):
        # Regression: the pipeline's lowered-IR memo ignored bindings, so a
        # build farm recompiling one file at a second size was served the
        # first size's trip counts.
        source = (
            "float x[4096], y[4096];\n"
            "void scale(int n, float alpha) {\n"
            "    for (int i = 0; i < n; i++) { y[i] = alpha * x[i]; }\n"
            "}\n"
        )

        def sized(n):
            return CompileRequest(source=source, name="scale.c", bindings={"n": n})

        with fresh_service(trained) as service:
            shared = [service.optimize(sized(n)) for n in (8, 4096)]
        for n, answer in zip((8, 4096), shared):
            with fresh_service(trained) as service:
                alone = service.optimize(sized(n))
            assert answer.ok and alone.ok
            assert answer.decisions == alone.decisions
            assert (answer.baseline_cycles, answer.cycles) == (
                alone.baseline_cycles, alone.cycles,
            )


class TestCoalescing:
    def test_duplicates_share_one_computation(self, trained):
        # What one request costs on this policy/kernel, measured alone.
        solo_service = fresh_service(trained)
        with solo_service:
            _, solo_sims = count_simulations(
                lambda: solo_service.optimize(CompileRequest(source=STREAM_SOURCE))
            )
        assert solo_sims > 0

        # Three identical requests admitted before the worker runs land in
        # one tick; the leader computes, the followers ride along.
        service = fresh_service(trained, max_batch_size=3)
        futures = [
            service.submit(CompileRequest(source=STREAM_SOURCE, name=f"user{i}"))
            for i in range(3)
        ]
        responses, dup_sims = count_simulations(
            lambda: (service.start() and None)
            or [future.result(timeout=30) for future in futures]
        )
        service.stop()
        assert dup_sims == solo_sims
        assert all(response.ok for response in responses)
        assert [response.coalesced for response in responses] == [
            False, True, True,
        ]
        assert all(response.batch_size == 3 for response in responses)
        first = responses[0]
        for response in responses[1:]:
            assert response.decisions == first.decisions
            assert response.cycles == first.cycles
        report = service.report()
        assert report.ticks == 1
        assert report.coalesced == 2

    def test_display_name_does_not_split_the_group(self):
        a = CompileRequest(source=STREAM_SOURCE, name="alice", request_id="1")
        b = CompileRequest(source=STREAM_SOURCE, name="bob", request_id="2")
        c = CompileRequest(source=STREAM_SOURCE, task="unrolling")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestTaskRouting:
    def test_one_tick_serves_every_registered_task(self, trained):
        service = fresh_service(trained, max_batch_size=len(ALL_TASKS))
        futures = {
            task_name: service.submit(
                CompileRequest(source=REDUCTION_SOURCE, task=task_name)
            )
            for task_name in ALL_TASKS
        }
        with service:
            responses = {
                name: future.result(timeout=60)
                for name, future in futures.items()
            }
        assert service.report().ticks == 1  # mixed tasks, one trunk forward
        for task_name, response in responses.items():
            assert response.ok, response.error
            assert response.task == task_name
            task = get_task(task_name)
            assert response.decisions
            for action in response.decisions.values():
                for component, menu in zip(action, task.menus):
                    assert component in menu

    def test_unknown_task_is_an_error_response(self, trained):
        service = fresh_service(trained)
        with service:
            response = service.optimize(
                CompileRequest(source=STREAM_SOURCE, task="loop-fusion")
            )
        assert not response.ok
        assert "unknown task" in response.error
        assert "loop-fusion" in response.error

    def test_mismatched_policy_head_rejected_at_construction(self, trained):
        # An unrolling task with a wider factor menu than the head bank the
        # policy trained: decoding would silently mislabel actions, so the
        # constructor must refuse.
        widened = get_task("unrolling").__class__(unroll_factors=range(1, 130))
        with pytest.raises(ValueError, match="menus"):
            fresh_service(trained, tasks=[widened])


class TestShutdown:
    def test_drain_answers_every_admitted_request(self, trained):
        service = fresh_service(trained, max_batch_size=2, max_wait_us=0)
        futures = [
            service.submit(
                CompileRequest(source=REDUCTION_SOURCE, task=task_name)
            )
            for task_name in ("vectorization", "unrolling", "vectorization")
        ]
        service.start()
        service.stop(drain=True)
        responses = [future.result(timeout=1) for future in futures]
        assert all(response.ok for response in responses)

    def test_stop_without_drain_fails_queued_requests(self, trained):
        service = fresh_service(trained)  # never started: all stay queued
        future = service.submit(CompileRequest(source=STREAM_SOURCE))
        service.stop(drain=False)
        with pytest.raises(ServingError):
            future.result(timeout=1)

    def test_submit_after_stop_raises_service_closed(self, trained):
        service = fresh_service(trained)
        with service:
            pass
        with pytest.raises(ServiceClosed):
            service.submit(CompileRequest(source=STREAM_SOURCE))


class TestClientsAndStats:
    def test_in_process_client_batches_round(self, trained):
        service = fresh_service(trained, max_batch_size=4)
        client = InProcessClient(service)
        with service:
            responses = client.optimize_many(
                [REDUCTION_SOURCE, STREAM_SOURCE], timeout=60
            )
        assert [response.ok for response in responses] == [True, True]
        assert responses[0].speedup > 0

    def test_tcp_round_trip_matches_by_id(self, trained):
        service = fresh_service(trained, max_batch_size=4)
        with CompileServer(service) as server:
            with TCPClient.connect(server.address) as client:
                responses = client.optimize_many(
                    [
                        CompileRequest(source=REDUCTION_SOURCE, name="red"),
                        CompileRequest(source=STREAM_SOURCE, task="unrolling",
                                       name="blue"),
                    ]
                )
        assert [response.kernel_name for response in responses] == ["red", "blue"]
        assert [response.task for response in responses] == [
            "vectorization", "unrolling",
        ]
        assert all(response.ok for response in responses)

    def test_tcp_smoke_cold_burst_then_warm_store(self, trained):
        """A mixed burst with duplicates, then the same burst again: the
        repeat is answered entirely from the warm store."""
        service = fresh_service(trained, max_batch_size=16)
        burst = [
            CompileRequest(source=source, task=task, name=f"{name}-{task}")
            for name, source in (("red", REDUCTION_SOURCE), ("blue", STREAM_SOURCE))
            for task in ("vectorization", "unrolling")
            for _repeat in range(3)
        ]
        with CompileServer(service) as server:
            with TCPClient.connect(server.address) as client:
                cold = client.optimize_many(burst)
                warm = client.optimize_many(burst)
        assert all(r.ok for r in cold + warm), [r.error for r in cold + warm]
        assert any(r.coalesced for r in cold), "duplicates never coalesced"
        assert {r.tier for r in warm} == {TIER_STORE}
        report = service.report()
        assert report.requests == len(burst) * 2 and report.errors == 0
        assert report.tier_counts.get(TIER_STORE, 0) >= len(burst)
        rendered = service.stats_report().render()
        for needle in ("requests", "p95", "store", "cold"):
            assert needle in rendered

    def test_tcp_unadmitted_requests_are_answered_by_id(self, trained):
        """Load shedding answers each rejected request with its own typed
        error instead of failing the whole window."""
        service = fresh_service(trained, max_batch_size=1, max_queue_depth=1)
        burst = [
            CompileRequest(source=REDUCTION_SOURCE, name=f"k{n}", request_id=f"r{n}")
            for n in range(12)
        ]
        with CompileServer(service) as server:
            with TCPClient.connect(server.address) as client:
                responses = client.optimize_many(burst)
        assert [r.request_id for r in responses] == [f"r{n}" for n in range(12)]
        rejected = [r for r in responses if not r.ok]
        assert rejected and len(rejected) < len(burst)
        assert all("admission queue is full" in r.error for r in rejected)
        # Shed requests never reached the service, so its counters only
        # see the admitted ones.
        report = service.report()
        assert report.requests == len(burst) - len(rejected)
        assert report.errors == 0

    def test_tcp_bad_lines_are_answered_not_fatal(self, trained):
        service = fresh_service(trained)
        with CompileServer(service) as server:
            connection = Connection.dial(*server.address, timeout=30.0)
            try:
                connection.send({"id": "no-source", "task": "vectorization"})
                connection._sock.sendall(b"{not json\n")
                connection.send(
                    CompileRequest(source=STREAM_SOURCE, request_id="good").to_payload()
                )
                answers = [connection.receive() for _ in range(3)]
            finally:
                connection.close()
        assert [answer["id"] for answer in answers] == ["no-source", None, "good"]
        assert "kernel.source" in answers[0]["error"]
        assert "malformed" in answers[1]["error"]
        assert answers[2]["error"] is None

    def test_tcp_duplicate_ids_in_one_window_are_rejected(self, trained):
        """Responses are matched by id, so two requests sharing one would
        both get the second kernel's answer."""
        service = fresh_service(trained)

        def window(*ids):
            return [
                CompileRequest(source=REDUCTION_SOURCE, name="kA", request_id=ids[0]),
                CompileRequest(source=STREAM_SOURCE, name="kB", request_id=ids[1]),
            ]

        with CompileServer(service) as server:
            with TCPClient.connect(server.address) as client:
                with pytest.raises(ValueError, match="duplicate request id"):
                    client.optimize_many(window("x", "x"))
                # A caller's id colliding with the one the client generates.
                with pytest.raises(ValueError, match="duplicate request id"):
                    client.optimize_many(window("c0", None))
                responses = client.optimize_many(window(None, None))
        assert [r.kernel_name for r in responses] == ["kA", "kB"]
        assert service.report().requests == 2, "a rejected window reached the server"

    def test_tcp_store_warm_window_is_not_stalled(self, trained):
        """Eight small responses to a client that only reads: with Nagle on
        the second one waits ~40 ms for the client's delayed ACK."""
        service = fresh_service(trained)
        window = [
            CompileRequest(source=source, task=task, name=f"{task}-{n}")
            for n in range(2)
            for source in (REDUCTION_SOURCE, STREAM_SOURCE)
            for task in ("vectorization", "unrolling")
        ]
        latencies = []
        with CompileServer(service) as server:
            with TCPClient.connect(server.address) as client:
                client.optimize_many(window)
                for _ in range(15):
                    start = time.perf_counter()
                    responses = client.optimize_many(window)
                    latencies.append(time.perf_counter() - start)
                    assert {r.tier for r in responses} == {TIER_STORE}
        assert statistics.median(latencies) < 0.025

    def test_tcp_server_outlives_a_connection_it_could_not_start(
        self, trained, monkeypatch
    ):
        """Thread exhaustion while setting up one connection drops that
        connection; the server keeps accepting and still stops cleanly."""
        start = threading.Thread.start
        failed = []

        def exhausted_once(thread):
            if thread.name == "compile-server-write" and not failed:
                failed.append(thread)
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", exhausted_once)
        service = fresh_service(trained)
        with CompileServer(service) as server:
            with TCPClient.connect(server.address, timeout=10.0) as dropped:
                with pytest.raises((OSError, ServingError)):
                    dropped.optimize(REDUCTION_SOURCE)
            with TCPClient.connect(server.address, timeout=30.0) as client:
                assert client.optimize(STREAM_SOURCE).ok
        assert failed

    @pytest.mark.parametrize("answered", [0, 1], ids=["never", "short-read"])
    def test_tcp_client_fails_fast_after_a_failed_round_trip(self, answered):
        """Unread responses of a failed window must not be matched against
        the next window's ids: the client closes and says so."""

        held = []

        def stub(connection):
            for _ in range(answered):
                connection.send({"id": connection.receive()["id"], "error": "late"})
            if answered:
                connection.close()
            else:
                held.append(connection)

        listener = Listener("127.0.0.1", 0, stub)
        try:
            client = TCPClient.connect(listener.address, timeout=0.3)
            with pytest.raises((OSError, ServingError)) as failure:
                client.optimize_many([REDUCTION_SOURCE, STREAM_SOURCE])
            assert "connection is closed" not in str(failure.value)
            with pytest.raises(ServingError, match="connection is closed"):
                client.optimize(REDUCTION_SOURCE)
            client.close()
        finally:
            listener.stop()
            for connection in held:
                connection.close()

    def test_stats_report_renders_tier_table(self, trained):
        service = fresh_service(trained, slo_ms=10_000.0)
        with service:
            service.optimize(CompileRequest(source=STREAM_SOURCE))
            service.optimize(CompileRequest(source=STREAM_SOURCE))
        report = service.report()
        assert report.requests == 2
        assert report.tier_counts.get(TIER_COLD) == 1
        assert report.tier_counts.get(TIER_STORE) == 1
        assert report.latency_p95_ms >= report.latency_p50_ms > 0
        assert report.slo_attainment == pytest.approx(1.0)
        rendered = service.stats_report().render()
        for needle in ("requests", "p50", "p95", "p99", "store", "cold"):
            assert needle in rendered

    def test_from_framework_serves_trained_tasks(self, trained):
        service = CompileService.from_framework(trained)
        assert service.served_tasks == list(ALL_TASKS)
        assert service.reward_cache is trained.reward_cache
