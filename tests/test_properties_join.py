"""Property suite: a memory budget must never change a join's answers.

Pins the core guarantee of the partitioned hybrid hash join — spill,
stay-spilled routing, restore and role reversal are pure
memory-for-re-reads trades — across rows/keys modes, spill policies,
partition fan-outs, arbitrary arrival interleavings, mid-stream
re-budgeting, and both runtimes (atomic vs pipelined), plus the
accounting invariants that tie ``QueryStats`` spill bytes to row
counts. It also pins the batch kernels to their one-at-a-time forms:
``insert_keys`` over any cut of a key stream into batches, and the
Bloom filter's one-pass ``update`` and batch probe.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bloom import BloomFilter
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.pier.dataflow import DataflowConfig, DataflowExecutor
from repro.pier.executor import DistributedExecutor
from repro.pier.operators import (
    SpillSink,
    SymmetricHashJoin,
    bloom_contains_key,
    bloom_probe_keys,
    spill_partition,
)
from repro.pier.planner import KeywordPlanner
from repro.piersearch.publisher import Publisher

WORDS = ["nebula", "quasar", "aurora", "meteor"]

#: (side, key) arrival interleavings over a small, collision-rich key
#: space — small keys maximise duplicate multiplicities and partition
#: collisions, which is where spill bookkeeping can go wrong
interleavings = st.lists(
    st.tuples(st.sampled_from(["left", "right"]), st.integers(0, 9)),
    min_size=1,
    max_size=60,
)

budgets = st.integers(min_value=1, max_value=12)
fan_outs = st.sampled_from([1, 2, 4, 8])
policies = st.sampled_from(["partitioned", "all"])

#: mid-stream budget changes: (apply at insert index, new budget where
#: None lifts the budget entirely)
rebudgets = st.lists(
    st.tuples(st.integers(0, 59), st.one_of(st.none(), st.integers(1, 12))),
    max_size=3,
)

ROW_BYTES = 512


def row_signature(rows):
    return sorted(sorted(r.items()) for r in rows)


def make_budgeted(budget, fan_out, policy):
    return SymmetricHashJoin(
        column="k",
        memory_budget=budget,
        spill_sink=SpillSink("k", row_bytes=ROW_BYTES),
        num_partitions=fan_out,
        spill_policy=policy,
    )


def assert_accounting_invariants(join):
    """Spill accounting is internally consistent in bytes and rows."""
    sink = join.spill_sink
    assert join.spilled_rows == sink.spilled_rows
    assert join.spilled_bytes == sink.spilled_rows * ROW_BYTES
    # ``reread_bytes`` charges per row *returned* (read amplification),
    # so it is a whole number of rows and implies at least one read.
    assert join.reread_bytes == sink.reread_bytes
    assert join.reread_bytes % ROW_BYTES == 0
    if join.reread_bytes:
        assert sink.reads > 0
    assert join.restored_rows == sink.restored_rows
    assert sink.orphan_rows == 0  # no churn at the operator level


class TestOperatorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(moves=interleavings, budget=budgets, fan_out=fan_outs, policy=policies)
    def test_rows_mode_budgeted_matches_unbudgeted(
        self, moves, budget, fan_out, policy
    ):
        free = SymmetricHashJoin(column="k")
        tight = make_budgeted(budget, fan_out, policy)
        for index, (side, key) in enumerate(moves):
            row = {"k": key, "tag": index}
            insert_free = free.insert_left if side == "left" else free.insert_right
            insert_tight = tight.insert_left if side == "left" else tight.insert_right
            # Every insert completes the *same* matches, spilled or not.
            assert row_signature(insert_tight(row)) == row_signature(
                insert_free(row)
            )
        assert_accounting_invariants(tight)

    @settings(max_examples=60, deadline=None)
    @given(moves=interleavings, budget=budgets, fan_out=fan_outs, policy=policies)
    def test_keys_mode_budgeted_matches_unbudgeted(
        self, moves, budget, fan_out, policy
    ):
        free = SymmetricHashJoin(column="k")
        tight = make_budgeted(budget, fan_out, policy)
        for side, key in moves:
            if side == "left":
                assert tight.insert_left_key(key) == free.insert_left_key(key)
            else:
                assert tight.insert_right_key(key) == free.insert_right_key(key)
        assert_accounting_invariants(tight)

    @settings(max_examples=60, deadline=None)
    @given(
        moves=interleavings,
        budget=budgets,
        fan_out=fan_outs,
        changes=rebudgets,
    )
    def test_rebudgeting_midstream_preserves_answers(
        self, moves, budget, fan_out, changes
    ):
        """Tightening, loosening or lifting the budget between arbitrary
        inserts (forcing evict/restore interleavings) never changes a
        single match."""
        schedule = {}
        for index, new_budget in changes:
            schedule[index] = new_budget
        free = SymmetricHashJoin(column="k")
        tight = make_budgeted(budget, fan_out, "partitioned")
        for index, (side, key) in enumerate(moves):
            change = schedule.get(index, "hold")
            if change != "hold":
                tight.set_memory_budget(change)
            row = {"k": key, "tag": index}
            insert_free = free.insert_left if side == "left" else free.insert_right
            insert_tight = tight.insert_left if side == "left" else tight.insert_right
            assert row_signature(insert_tight(row)) == row_signature(
                insert_free(row)
            )
        # Lifting the budget at the end restores everything: no spilled
        # partitions survive, and the tables answer from memory alone.
        tight.set_memory_budget(None)
        assert tight.spilled_partitions == {"left": set(), "right": set()}
        probe = {"k": moves[0][1], "tag": "probe"}
        assert row_signature(tight.insert_right(probe)) == row_signature(
            free.insert_right(probe)
        )


#: a key stream already cut into batches: (side, keys) per batch
batched_streams = st.lists(
    st.tuples(
        st.sampled_from(["left", "right"]),
        st.lists(st.integers(0, 9), max_size=12),
    ),
    min_size=1,
    max_size=12,
)

#: no budget, the tightest one, a small one, and one never reached
batch_budgets = st.one_of(
    st.none(), st.just(1), st.integers(2, 12), st.just(10_000)
)


def join_state(join):
    """Everything a key-mode insert can change, sink included."""
    state = (
        join._key_tables,
        join._in_memory,
        join.peak_left_table,
        join.peak_right_table,
        join.partition_evictions,
        join.partition_restores,
        join.role_reversals,
        join.spilled_partitions,
    )
    sink = join.spill_sink
    if sink is None:
        return state
    return state + (
        sink._counts,
        sink._part_totals,
        sink.spilled_rows,
        sink.reads,
        sink.spilled_bytes,
        sink.reread_bytes,
        sink.restored_rows,
    )


def reference_insert_key(join, side, key):
    """The join's one-key-at-a-time keys-mode insert, kept here as the
    oracle the batch kernel must reproduce state for state."""
    join._pin_mode("keys")
    other = "right" if side == "left" else "left"
    count = join._key_tables[other].get(key, 0)
    tracking = join._tracking
    if tracking:
        pid = spill_partition(key, join.num_partitions)
        if pid in join._spilled[other]:
            count += join.spill_sink.read_count(other, pid, key)
        if join._stay_spilled and pid in join._spilled[side]:
            join.spill_sink.route_count(side, pid, key)
            return count
    table = join._key_tables[side]
    table[key] = table.get(key, 0) + 1
    if tracking:
        join._part_rows[side][pid] += 1
        join._part_keys[side][pid].add(key)
    join._in_memory[side] += 1
    if side == "left":
        join.peak_left_table = max(join.peak_left_table, join._in_memory[side])
    else:
        join.peak_right_table = max(join.peak_right_table, join._in_memory[side])
    budget = join.memory_budget
    if budget is not None and sum(join._in_memory.values()) > budget:
        join._maybe_spill()
    return count


class TestBatchKernelEquivalence:
    """``insert_keys`` is the per-key path, whatever the batch cuts."""

    @settings(max_examples=120, deadline=None)
    @given(
        batches=batched_streams,
        budget=batch_budgets,
        fan_out=fan_outs,
        policy=policies,
        rebudget=st.one_of(st.none(), st.tuples(st.integers(0, 11), budgets)),
    )
    def test_batches_match_per_key_sequence(
        self, batches, budget, fan_out, policy, rebudget
    ):
        def make():
            return SymmetricHashJoin(
                column="k",
                memory_budget=budget,
                spill_sink=SpillSink("k", row_bytes=ROW_BYTES) if budget else None,
                num_partitions=fan_out,
                spill_policy=policy,
            )

        batched, one_key, reference = make(), make(), make()
        for index, (side, keys) in enumerate(batches):
            if rebudget is not None and rebudget[0] == index:
                for join in (batched, one_key, reference):
                    join.set_memory_budget(rebudget[1])
            expected = [reference_insert_key(reference, side, key) for key in keys]
            assert batched.insert_keys(side, keys) == expected
            if side == "left":
                assert [one_key.insert_left_key(key) for key in keys] == expected
            else:
                assert [one_key.insert_right_key(key) for key in keys] == expected
            assert join_state(batched) == join_state(reference)
            assert join_state(one_key) == join_state(reference)

    @settings(max_examples=60, deadline=None)
    @given(batches=batched_streams, budget=batch_budgets, fan_out=fan_outs)
    def test_build_only_batches_change_state_alike(self, batches, budget, fan_out):
        """``counts=False`` returns nothing and builds exactly the same."""

        def make():
            return SymmetricHashJoin(
                column="k",
                memory_budget=budget,
                spill_sink=SpillSink("k") if budget else None,
                num_partitions=fan_out,
            )

        build_only, counted = make(), make()
        for side, keys in batches:
            assert build_only.insert_keys(side, iter(keys), counts=False) is None
            counted.insert_keys(side, keys)
            assert join_state(build_only) == join_state(counted)


#: Bloom probe values: strings plus non-string keys, which probe by str()
probe_values = st.lists(
    st.one_of(st.text(max_size=6), st.integers(-50, 50), st.none()),
    max_size=40,
)


def reference_positions(bloom, text):
    """The filter's double-hashing positions, computed the original way
    (unreduced 64-bit halves, big-int arithmetic) as the test oracle."""
    digest = hashlib.sha1(text.encode("utf-8")).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1
    return [(h1 + i * h2) % bloom.num_bits for i in range(bloom.num_hashes)]


def reference_contains(bloom, text):
    positions = reference_positions(bloom, text)
    return all(bloom._bits >> position & 1 for position in positions)


class TestBloomBatchEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        items=st.lists(st.text(max_size=6), max_size=40),
        num_bits=st.integers(8, 400),
        num_hashes=st.integers(1, 8),
    )
    def test_update_equals_add_loop(self, items, num_bits, num_hashes):
        items = items + items[:3]  # duplicates count, as with add
        batch = BloomFilter(num_bits, num_hashes)
        batch.update(items)
        looped = BloomFilter(num_bits, num_hashes)
        expected_bits = 0
        for item in items:
            looped.add(item)
            for position in reference_positions(looped, item):
                expected_bits |= 1 << position
        assert batch._bits == looped._bits == expected_bits
        assert len(batch) == len(looped) == len(items)
        assert batch.size_bytes == looped.size_bytes

    @settings(max_examples=80, deadline=None)
    @given(
        members=probe_values,
        probes=probe_values,
        num_bits=st.integers(8, 400),
        num_hashes=st.integers(1, 8),
    )
    def test_batch_probe_equals_key_probe(self, members, probes, num_bits, num_hashes):
        bloom = BloomFilter(num_bits, num_hashes)
        bloom.update(str(value) for value in members)
        values = probes + members + probes[:5]  # members and duplicates
        expected = [v for v in values if reference_contains(bloom, str(v))]
        assert bloom_probe_keys(bloom, values) == expected
        assert [v for v in values if bloom_contains_key(bloom, v)] == expected


def build_world(seed, num_files=30, nodes=20):
    network = DhtNetwork(rng=seed)
    network.populate(nodes)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    rng = random.Random(seed + 1)
    for index in range(num_files):
        name = f"{rng.choice(WORDS)} {rng.choice(WORDS)} track{index:03d}.mp3"
        publisher.publish_file(name, 1000 + index, f"10.0.0.{index}", 6346)
    return network, catalog


class TestRuntimeEquivalence:
    """Budgeted pipelined execution matches the unbudgeted atomic
    runtime answer-for-answer — and, batch-for-batch, spilling charges
    no wire bytes (spill copies are site-local storage accounting)."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.sampled_from([1, 2, 3, 5, 8]),
    )
    def test_budgeted_pipelined_matches_atomic_with_byte_invariant(
        self, seed, budget
    ):
        network, catalog = build_world(seed)
        plan = KeywordPlanner(catalog).plan(
            ["nebula", "quasar"], network.random_node_id()
        )
        plan.batch_size = None
        atomic = DistributedExecutor(network, catalog)
        rows_atomic, stats_atomic = atomic.execute(plan)
        budgeted = DataflowExecutor(
            network,
            catalog,
            config=DataflowConfig(batch_size=None, memory_budget=budget),
            rng=seed,
        )
        rows_flow, stats_flow = budgeted.execute(plan)
        key = lambda rs: sorted(sorted(r.items()) for r in rs)
        assert key(rows_flow) == key(rows_atomic)
        # QueryStats byte invariant: with whole-list batches the
        # pipelined run ships exactly the atomic runtime's bytes — a
        # memory budget adds spill/re-read *accounting*, never wire
        # bytes.
        assert stats_flow.bytes == stats_atomic.bytes
        if stats_flow.pipeline.spilled_tuples:
            spill = stats_flow.spill
            assert spill is not None
            row_bytes = budgeted.cost_model.spill_tuple_bytes()
            assert spill.spilled_bytes == spill.spilled_tuples * row_bytes
            # Re-read bytes charge per row *returned* (read
            # amplification), not per read call, so they are a whole
            # number of rows and imply at least one sink read.
            assert spill.reread_bytes % row_bytes == 0
            if spill.reread_bytes:
                assert spill.spill_reads > 0
