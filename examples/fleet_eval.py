"""Train against a two-worker evaluation fleet with speculative prefetch.

Stands up two :class:`repro.fleet.FleetWorker` daemons on localhost
ephemeral ports, then trains a tiny policy with reward evaluation sharded
across them over TCP.  While the trainer is busy inferring, the
policy-driven prefetcher speculatively evaluates the most likely next
actions on idle workers, so most async reward waits resolve as store hits.
The printed table is the one evaluation-service report
(``format_service_stats_table``); because the service is fleet-backed it
adds the robustness counters (nothing is lost here — see
``tests/test_fleet.py`` for the kill-a-worker-mid-batch runs) and the
speculative-prefetch ledger to the dispatch split.

    python examples/fleet_eval.py
    python examples/fleet_eval.py --workers 3 --steps 320
    python examples/fleet_eval.py --top-k 0        # prefetch disabled

In production the workers run on other hosts
(``python -m repro.fleet.worker --host 0.0.0.0 --port 7070``) and training
points at them via ``TrainingConfig(fleet_workers=["hostA:7070", ...])``;
everything below is identical apart from the addresses.
"""

import argparse

from repro.core.framework import NeuroVectorizer, TrainingConfig
from repro.datasets.synthetic import (
    SyntheticDatasetConfig,
    generate_synthetic_dataset,
)
from repro.fleet import FleetWorker


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2, help="fleet size")
    parser.add_argument("--steps", type=int, default=160, help="PPO steps")
    parser.add_argument(
        "--top-k",
        type=int,
        default=35,
        help="actions speculatively evaluated per upcoming sample (0 = off)",
    )
    arguments = parser.parse_args()

    kernels = list(
        generate_synthetic_dataset(SyntheticDatasetConfig(count=4, seed=0))
    )

    print(f"starting {arguments.workers} localhost fleet workers...")
    workers = [FleetWorker().start() for _ in range(arguments.workers)]
    addresses = ["%s:%d" % worker.address for worker in workers]
    for name, address in zip((w.name for w in workers), addresses):
        print(f"  {name} listening on {address}")

    try:
        config = TrainingConfig(
            tasks=["vectorization"],
            rl_total_steps=arguments.steps,
            rl_batch_size=32,
            pretrain_epochs=0,
            seed=0,
            fleet_workers=addresses,
            fleet_prefetch_top_k=arguments.top_k,
        )
        print(f"\ntraining with sharded fleet evaluation ({arguments.steps} steps)...")
        framework, _artifacts = NeuroVectorizer.train(kernels, config)

        print()
        print(framework.service_stats_report().render())
        print()
        print(framework.cache_stats_report().render())

        stats = framework.evaluation_service.stats
        print(
            f"\n{stats.waits_converted:.0%} of async reward waits were "
            "converted into store hits by speculative prefetch"
        )
        framework.close()
    finally:
        for worker in workers:
            worker.stop()


if __name__ == "__main__":
    main()
