"""Sharded schedule replay: digest invariance + worker-loss failure path."""

import multiprocessing
import os
import time

import pytest

from repro.common.errors import ShardWorkerError
from repro.scenario import merged_digest, replay_factory, run_schedule_replay
from repro.scenario.presets import SMOKE
from repro.scenario.shardprog import ScheduleReplayProgram
from repro.sim.shard import run_sharded


class KillerProgram(ScheduleReplayProgram):
    """Replay program whose shard 1 dies abruptly mid-scenario.

    The exit happens inside the worker's event loop (no exception, no
    cleanup — the fork just vanishes), which is the failure mode the
    process backend must surface as :class:`ShardWorkerError`.
    """

    KILL_SHARD = 1

    def start(self, ctx):
        super().start(ctx)
        if self.shard_id == self.KILL_SHARD:
            ctx.schedule(ctx.lookahead * 3, lambda: os._exit(17))


def test_merged_digest_invariant_across_shard_counts():
    one = run_schedule_replay(SMOKE, num_shards=1)
    three = run_schedule_replay(SMOKE, num_shards=3)
    digest = merged_digest(one)
    assert digest  # the schedule actually produced traffic
    assert digest == merged_digest(three)
    # Per-shard digests differ (each owns different keys/ultrapeers) even
    # though the merged multiset is identical.
    assert len(set(three.digests())) > 1


def test_replay_counts_faults_once_and_answers_every_lookup():
    report = run_schedule_replay(SMOKE, num_shards=3)
    counts = dict(merged_digest(report))
    churn_steps = sum(
        count for (kind, what), count in counts.items()
        if kind == "fault" and what == "churn"
    )
    assert churn_steps == (SMOKE.churn.steps if SMOKE.churn else 0)
    lookups = sum(c for (kind, _), c in counts.items() if kind == "lookup")
    answers = sum(c for (kind, _), c in counts.items() if kind == "answer")
    assert lookups == answers > 0


def test_process_backend_reproduces_round_robin_digest():
    sequential = run_schedule_replay(SMOKE, num_shards=3)
    forked = run_schedule_replay(SMOKE, num_shards=3, backend="process")
    assert merged_digest(forked) == merged_digest(sequential)
    assert forked.processed == sequential.processed


def test_worker_death_mid_scenario_raises_cleanly_without_orphans():
    """Satellite: a shard dying mid-run surfaces its shard id, no orphans."""
    started = time.perf_counter()
    with pytest.raises(ShardWorkerError, match=r"shard 1\b"):
        run_sharded(
            replay_factory(SMOKE, program_cls=KillerProgram),
            num_shards=3,
            lookahead=1.0,
            seed=SMOKE.seed,
            backend="process",
        )
    # Reported promptly, not after seconds of join timeouts.
    assert time.perf_counter() - started < 0.5
    # The parent reaped every worker before raising: no forks left.
    assert multiprocessing.active_children() == []
