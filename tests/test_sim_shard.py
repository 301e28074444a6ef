"""Tests for the ring-sharded kernel (repro.sim.shard).

The safety property under test: with every cross-shard message delayed
by at least the lookahead, windowed draining never delivers a message
into a shard's past, and the merged execution is deterministic — the
same program produces identical digests at any shard count and under
either backend.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time

import pytest

from repro.common.ids import KEY_SPACE
from repro.sim.shard import (
    ShardContext,
    ShardProgram,
    ShardWorkerError,
    ShardedSimulator,
    run_sharded,
    shard_of_key,
)

LOOKAHEAD = 0.05
#: a dead or raising shard worker must be reported within this wall time
FAILURE_DEADLINE_S = 0.5


# ----------------------------------------------------------------------
# shard_of_key
# ----------------------------------------------------------------------


def test_shard_of_key_partitions_ring_contiguously():
    assert shard_of_key(0, 4) == 0
    assert shard_of_key(KEY_SPACE - 1, 4) == 3
    assert shard_of_key(KEY_SPACE // 2, 4) == 2
    # one shard: everything maps to 0
    assert shard_of_key(KEY_SPACE - 1, 1) == 0


def test_shard_of_key_covers_all_shards_evenly():
    counts = [0] * 8
    samples = 4096
    for i in range(samples):
        counts[shard_of_key(i * (KEY_SPACE // samples), 8)] += 1
    assert min(counts) > 0
    assert max(counts) - min(counts) <= samples // 8


def test_shard_of_key_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        shard_of_key(1, 0)


# ----------------------------------------------------------------------
# ShardedSimulator (kernel layer)
# ----------------------------------------------------------------------


def test_single_shard_is_plain_drain():
    kernel = ShardedSimulator(num_shards=1, lookahead=0.0)
    fired = []
    view = kernel.shard(0)
    view.schedule(1.0, lambda: fired.append(view.now))
    view.schedule(2.0, lambda: fired.append(view.now))
    assert kernel.run() == 2
    assert fired == [1.0, 2.0]
    assert kernel.pending == 0
    assert kernel.processed == 2


def test_cross_shard_message_below_lookahead_rejected():
    kernel = ShardedSimulator(num_shards=2, lookahead=LOOKAHEAD)
    with pytest.raises(ValueError):
        kernel.send(0, 1, LOOKAHEAD / 2, lambda: None)


def test_positive_lookahead_required_for_multiple_shards():
    with pytest.raises(ValueError):
        ShardedSimulator(num_shards=2, lookahead=0.0)


def test_cross_shard_delivery_lands_at_send_time_plus_delay():
    kernel = ShardedSimulator(num_shards=2, lookahead=LOOKAHEAD)
    arrivals = []
    view0, view1 = kernel.shard(0), kernel.shard(1)
    view0.schedule(0.1, lambda: view0.send(1, LOOKAHEAD, lambda: arrivals.append(view1.now)))
    kernel.run()
    assert arrivals == [pytest.approx(0.1 + LOOKAHEAD)]


def test_no_shard_ever_receives_a_message_in_its_past():
    """Ping-pong chains across 4 shards: arrivals are never in the past."""
    kernel = ShardedSimulator(num_shards=4, lookahead=LOOKAHEAD, seed=7)
    violations = []
    deliveries = []

    def bounce(dst: int, hops_left: int, sent_at: float, arrival: float):
        view = kernel.shard(dst)
        if view.now > arrival + 1e-12:
            violations.append((dst, view.now, arrival))
        deliveries.append((round(view.now, 9), dst))
        if hops_left <= 0:
            return
        rng = view.rng
        nxt = rng.randrange(4)
        delay = LOOKAHEAD + rng.random() * 0.02 if nxt != dst else rng.random() * 0.01
        send_time = view.now
        view.send(
            nxt,
            delay,
            lambda d=nxt, h=hops_left - 1, s=send_time, a=send_time + delay: bounce(d, h, s, a),
        )

    for shard_id in range(4):
        view = kernel.shard(shard_id)
        start_at = 0.01 * (shard_id + 1)
        view.schedule(start_at, lambda d=shard_id, a=start_at: bounce(d, 40, 0.0, a))
    kernel.run()
    assert not violations
    assert len(deliveries) == 4 * 41
    assert kernel.windows > 1  # the chains really did cross windows


def test_kernel_run_until_parks_all_clocks_at_until():
    kernel = ShardedSimulator(num_shards=2, lookahead=LOOKAHEAD)
    fired = []
    kernel.shard(0).schedule(10.0, lambda: fired.append("late"))
    kernel.run(until=1.0)
    assert fired == []
    assert all(shard.now == 1.0 for shard in kernel.shards)
    assert kernel.pending == 1
    kernel.run()
    assert fired == ["late"]


def test_same_shard_send_bypasses_lookahead():
    kernel = ShardedSimulator(num_shards=2, lookahead=LOOKAHEAD)
    fired = []
    view = kernel.shard(1)
    view.schedule(0.0, lambda: view.send(1, 0.001, lambda: fired.append(view.now)))
    kernel.run()
    assert fired == [pytest.approx(0.001)]


def test_kernel_deterministic_merge_order():
    """Simultaneous cross-shard arrivals merge by (arrival, src, seq)."""

    def build():
        kernel = ShardedSimulator(num_shards=3, lookahead=LOOKAHEAD)
        order = []
        # shards 1 and 2 both send to shard 0, arriving at the same time
        kernel.shard(2).schedule(0.0, lambda: kernel.send(2, 0, LOOKAHEAD, lambda: order.append("from2")))
        kernel.shard(1).schedule(0.0, lambda: kernel.send(1, 0, LOOKAHEAD, lambda: order.append("from1")))
        kernel.run()
        return order

    first, second = build(), build()
    assert first == second
    # src-shard order breaks the arrival tie, not send order
    assert first == ["from1", "from2"]


# ----------------------------------------------------------------------
# ShardProgram / run_sharded
# ----------------------------------------------------------------------


class TokenRing(ShardProgram):
    """Each shard forwards numbered tokens around the shard ring.

    Deterministic workload with heavy cross-shard traffic; the digest
    captures every (time, token, hop) this shard processed.
    """

    def __init__(self, shard_id: int, num_shards: int, hops: int = 25, tokens: int = 3):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.hops = hops
        self.tokens = tokens
        self.seen: list[tuple[float, int, int]] = []

    def start(self, ctx: ShardContext) -> None:
        for token in range(self.tokens):
            ctx.schedule(
                0.01 * (token + 1),
                lambda t=token, c=ctx: self._emit(c, t, self.hops),
            )

    def _emit(self, ctx: ShardContext, token: int, hops_left: int) -> None:
        self.seen.append((round(ctx.now, 9), token, hops_left))
        if hops_left <= 0:
            return
        jitter = ctx.rng.random() * 0.01
        dst = (self.shard_id + 1) % self.num_shards
        ctx.send(dst, 0.05 + jitter, (token, hops_left - 1))

    def on_message(self, ctx: ShardContext, payload) -> None:
        token, hops_left = payload
        self._emit(ctx, token, hops_left)

    def digest(self):
        return sorted(self.seen)


def _token_factory(shard_id: int, num_shards: int, rng) -> TokenRing:
    return TokenRing(shard_id, num_shards)


def test_run_sharded_round_robin_completes_ring():
    report = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=3)
    assert report.backend == "round_robin"
    assert report.num_shards == 4
    # 3 tokens per shard, each visiting 26 stops
    assert report.processed == 4 * 3 * 26
    assert report.cross_messages == 4 * 3 * 25
    assert report.windows > 1
    assert len(report.shards) == 4
    assert all(s.processed > 0 for s in report.shards)
    assert report.final_time > 0


def test_run_sharded_is_deterministic_across_runs():
    a = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=11)
    b = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=11)
    assert a.digests() == b.digests()
    assert a.processed == b.processed


def test_run_sharded_seed_changes_execution():
    a = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=1)
    b = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=2)
    assert a.digests() != b.digests()


def test_run_sharded_until_stops_early():
    full = run_sharded(_token_factory, num_shards=2, lookahead=0.05, seed=5)
    cut = run_sharded(_token_factory, num_shards=2, lookahead=0.05, seed=5, until=0.3)
    assert cut.processed < full.processed
    assert cut.final_time <= 0.3 + 1e-9


@pytest.mark.slow
def test_process_backend_matches_round_robin():
    """Fork-per-shard execution is bit-identical to the sequential drain."""
    sequential = run_sharded(_token_factory, num_shards=2, lookahead=0.05, seed=9)
    forked = run_sharded(
        _token_factory, num_shards=2, lookahead=0.05, seed=9, backend="process"
    )
    assert forked.backend == "process"
    assert forked.digests() == sequential.digests()
    assert forked.processed == sequential.processed
    assert forked.cross_messages == sequential.cross_messages


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        run_sharded(_token_factory, num_shards=2, lookahead=0.05, backend="threads")


def test_report_rates_are_consistent():
    report = run_sharded(_token_factory, num_shards=4, lookahead=0.05, seed=3)
    assert report.aggregate_events_per_second >= 0
    assert report.wall_events_per_second > 0
    assert report.wall_seconds > 0
    for shard in report.shards:
        assert shard.events_per_second >= 0


class StartSender(ShardProgram):
    """Sends cross-shard during ``start()`` — exercising the handshake
    path that ships setup-time messages before the first window."""

    def __init__(self, shard_id: int, num_shards: int):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.received: list[tuple[float, int]] = []

    def start(self, ctx: ShardContext) -> None:
        ctx.send((self.shard_id + 1) % self.num_shards, 0.05, self.shard_id)

    def on_message(self, ctx: ShardContext, payload) -> None:
        self.received.append((round(ctx.now, 9), payload))

    def digest(self):
        return sorted(self.received)


def _start_sender_factory(shard_id: int, num_shards: int, rng) -> StartSender:
    return StartSender(shard_id, num_shards)


@pytest.mark.parametrize("backend", ["round_robin", "process"])
def test_messages_sent_during_start_are_delivered(backend):
    report = run_sharded(
        _start_sender_factory, num_shards=3, lookahead=0.05, seed=1, backend=backend
    )
    assert report.processed == 3
    assert report.cross_messages == 3
    assert report.digests() == [[(0.05, 2)], [(0.05, 0)], [(0.05, 1)]]


# ----------------------------------------------------------------------
# Process-backend teardown hardening
# ----------------------------------------------------------------------


class SuicidalProgram(TokenRing):
    """Token ring whose shard 1 hard-kills its own worker mid-run,
    simulating an OOM-killed or segfaulted fork."""

    def on_message(self, ctx: ShardContext, payload) -> None:
        token, hops_left = payload
        if self.shard_id == 1 and hops_left < 20:
            os._exit(17)
        self._emit(ctx, token, hops_left)


class RaisingProgram(TokenRing):
    """Token ring whose shard 1 raises from a callback mid-run."""

    def on_message(self, ctx: ShardContext, payload) -> None:
        token, hops_left = payload
        if self.shard_id == 1 and hops_left < 20:
            raise RuntimeError("shard went sideways")
        self._emit(ctx, token, hops_left)


def _suicidal_factory(shard_id: int, num_shards: int, rng) -> SuicidalProgram:
    return SuicidalProgram(shard_id, num_shards)


def _raising_factory(shard_id: int, num_shards: int, rng) -> RaisingProgram:
    return RaisingProgram(shard_id, num_shards)


@pytest.mark.slow
def test_killed_worker_raises_shard_worker_error_and_leaves_no_orphans():
    """A worker that dies mid-run must surface as a clean ShardWorkerError
    (a DhtError-style library failure, not a hang or a raw EOFError),
    and every other worker must be torn down — no orphaned forks."""
    before = {p.pid for p in multiprocessing.active_children()}
    started = time.perf_counter()
    with pytest.raises(ShardWorkerError) as excinfo:
        run_sharded(
            _suicidal_factory, num_shards=3, lookahead=0.05, seed=9, backend="process"
        )
    # Prompt failure: surviving workers see EOF at once, no join timeouts.
    assert time.perf_counter() - started < FAILURE_DEADLINE_S
    assert "shard 1" in str(excinfo.value)
    assert "exitcode=17" in str(excinfo.value)
    leaked = [
        p for p in multiprocessing.active_children() if p.pid not in before and p.is_alive()
    ]
    assert not leaked, f"orphaned shard workers: {leaked}"


@pytest.mark.slow
def test_worker_exception_raises_shard_worker_error_with_detail():
    """A program exception inside a worker is reported over the pipe and
    re-raised as ShardWorkerError carrying the original message."""
    before = {p.pid for p in multiprocessing.active_children()}
    started = time.perf_counter()
    with pytest.raises(ShardWorkerError) as excinfo:
        run_sharded(
            _raising_factory, num_shards=3, lookahead=0.05, seed=9, backend="process"
        )
    assert time.perf_counter() - started < FAILURE_DEADLINE_S
    assert "shard went sideways" in str(excinfo.value)
    leaked = [
        p for p in multiprocessing.active_children() if p.pid not in before and p.is_alive()
    ]
    assert not leaked, f"orphaned shard workers: {leaked}"


@pytest.mark.slow
def test_process_report_carries_ipc_timings():
    """Process-backend reports must label where wall time went: per-shard
    busy seconds plus IPC serialize/deserialize seconds."""
    report = run_sharded(
        _token_factory, num_shards=2, lookahead=0.05, seed=9, backend="process"
    )
    assert report.ipc_serialize_seconds > 0
    assert report.ipc_deserialize_seconds > 0
    for shard in report.shards:
        assert shard.ipc_serialize_seconds >= 0
        assert shard.ipc_deserialize_seconds >= 0
    sequential = run_sharded(_token_factory, num_shards=2, lookahead=0.05, seed=9)
    assert sequential.ipc_serialize_seconds == 0.0
    assert sequential.ipc_deserialize_seconds == 0.0
