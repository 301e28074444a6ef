"""Workloads and worlds of the end-to-end hybrid-query benchmark.

A *workload* is a :class:`~repro.scenario.ScenarioSpec` (arrivals,
churn, corpus shape, cache and optimizer switches) plus the publishing
pattern around it. :func:`run_round` turns one workload and one seed
into a world built only from the program's public constructors
(``DhtNetwork``, ``Catalog``, ``Publisher``, ``SearchEngine``,
``Simulator``, ``HybridQueryEngine``, ``HybridUltrapeer``,
``ChurnProcess``, ``QueryResultCache``), drains the whole virtual-time
schedule open-loop through ``Simulator.run`` as fast as the host allows,
and reduces the resolved races into a :class:`Round`.

Everything the program sees is drawn from the seed, so two rounds of
one seed must agree on every virtual-time and byte figure; the
:attr:`Round.digest` over those figures is how ``run.py`` checks it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from statistics import mean

from repro.cache.results import QueryResultCache
from repro.common.rng import make_rng, spawn_rng
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.hybrid.engine import HybridQueryEngine, RaceConfig
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.scenario import (
    ArrivalSpec,
    ChurnSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_corpus,
    compile_schedule,
)
from repro.scenario.workloads import POPULAR_DEPTHS, POPULAR_TERMS
from repro.sim.engine import Simulator
from repro.workload.library import SharedFile

#: worlds one run drains: every run builds this many worlds from its
#: seed and pools their queries, so the run's percentiles rest on four
#: times the samples of one world while each round stays short
WORLDS_PER_RUN = 4

#: reasons the engine may flag an answer degraded (``HybridQueryOutcome``)
DEGRADED_REASONS = (
    "requery-abandoned",
    "deadline",
    "partial-answer",
    "suspect-range",
    "membership-change",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a scenario spec plus its publishing pattern."""

    name: str
    why: str
    spec: ScenarioSpec
    #: fraction of the corpus published before the first simulated event
    preload_fraction: float = 1.0
    #: QRS publishes per unit of virtual time during the run; they walk
    #: the rest of the corpus in a seeded order
    publish_rate: float = 0.0


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="rare-churn",
            why=(
                "rare two-term queries time out on the flood and re-query "
                "PIER under churn: loads the DHT walk and its repair and "
                "the symmetric hash join"
            ),
            spec=ScenarioSpec(
                name="rare-churn",
                duration=40.0,
                num_nodes=128,
                num_files=600,
                num_ultrapeers=16,
                arrival=ArrivalSpec(kind="poisson", rate=30.0),
                # churn keeps going until the last re-query has drained
                churn=ChurnSpec(
                    kind="uniform", interval=4.0, steps=20,
                    failure_fraction=0.5, stabilize=False,
                ),
                workload=WorkloadSpec(kind="standard", popular_fraction=0.1),
            ),
        ),
        Workload(
            name="flash-cache",
            why=(
                "popular flood-answered queries plus a flash crowd on one "
                "item over a shared result cache: loads the kernel, the "
                "race bookkeeping and the cache"
            ),
            spec=ScenarioSpec(
                name="flash-cache",
                duration=600.0,
                num_nodes=64,
                num_files=256,
                num_ultrapeers=16,
                arrival=ArrivalSpec(
                    kind="flash_crowd", rate=20.0, flash_start=20.0,
                    flash_duration=580.0, flash_rate=10.0,
                ),
                workload=WorkloadSpec(kind="standard", popular_fraction=0.9),
                cache_budget_bytes=1 << 20,
            ),
        ),
        Workload(
            name="publish-conjunctive",
            why=(
                "QRS publishes interleaved with 5-keyword conjunctive rare "
                "queries under the cost-based optimizer: writes beside "
                "reads, Bloom and semi-joins"
            ),
            spec=ScenarioSpec(
                name="publish-conjunctive",
                duration=60.0,
                num_nodes=128,
                num_files=768,
                num_ultrapeers=16,
                arrival=ArrivalSpec(kind="poisson", rate=12.0),
                workload=WorkloadSpec(
                    kind="query_of_death", popular_fraction=0.0,
                    qod_families=5, family_size=4,
                ),
                optimizer=True,
            ),
            preload_fraction=0.25,
            publish_rate=4.0,
        ),
    )
}


def shrink(workload: Workload, factor: float) -> Workload:
    """A copy of ``workload`` whose arrival window is ``factor`` as long.

    Churn steps, the flash window and the publish stream shrink with it;
    the corpus and the ring keep their size. Used by the self-test.
    """
    spec = workload.spec
    arrival = replace(
        spec.arrival, flash_duration=spec.arrival.flash_duration * factor
    )
    churn = replace(spec.churn, steps=max(1, round(spec.churn.steps * factor)))
    return replace(
        workload,
        spec=replace(
            spec, duration=spec.duration * factor, arrival=arrival, churn=churn
        ),
    )


@dataclass
class World:
    """Every object one round builds, kept for the per-layer readout."""

    sim: Simulator
    dht: DhtNetwork
    catalog: Catalog
    publisher: Publisher
    engine: HybridQueryEngine
    churn: ChurnProcess
    cache: QueryResultCache | None
    hybrids: list[HybridUltrapeer]
    corpus: list
    #: virtual time each corpus item was published (inf = never)
    published_at: list[float]
    #: (event, race) per dispatched query, in submission order
    records: list = field(default_factory=list)
    #: query dispatches that raised instead of submitting a race
    raised: int = 0
    #: publish calls made and wall seconds spent inside them
    publish_calls: int = 0
    publish_s: float = 0.0


@dataclass
class Tally:
    """What one drained world contributes to the run's figures."""

    attempted: int = 0
    resolved: int = 0
    unresolved: int = 0
    raised: int = 0
    silent_loss: int = 0
    degraded: int = 0
    requeried: int = 0
    cache_hits: int = 0
    rare_published: int = 0
    answered_rare: int = 0
    published_files: int = 0
    publish_bytes: int = 0
    sim_events: int = 0
    #: finite first-result latencies (virtual seconds)
    latencies: list[float] = field(default_factory=list)
    #: wire bytes of each executed (not cache-served) DHT re-query
    requery_bytes: list[int] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.unresolved + self.raised + self.silent_loss


@dataclass
class Round:
    """Timings, tally and checks of one world's drain."""

    setup_s: float
    compile_s: float
    run_s: float
    world: World | None
    tally: Tally
    #: SHA-256 over every virtual-time and byte figure of the drain
    digest: str
    #: correctness checks that failed (empty = the round is valid)
    problems: list[str]
    #: the engine's public metrics counters after the drain
    counters: dict[str, int]
    #: publish calls made and wall seconds spent inside them
    publish_calls: int
    publish_s: float

    @property
    def queries_per_s(self) -> float:
        return self.tally.resolved / self.run_s

    @property
    def publishes_per_s(self) -> float:
        return self.publish_calls / self.publish_s


def world_seeds(seed: int) -> list[int]:
    """The seeds of a run's worlds; distinct runs never share a world."""
    return [seed * WORLDS_PER_RUN + k for k in range(WORLDS_PER_RUN)]


def _publish_times(workload: Workload, seed: int, pending: int) -> list[float]:
    """Poisson publish instants for the ``pending`` unpublished items."""
    if workload.publish_rate <= 0 or pending == 0:
        return []
    rng = spawn_rng(make_rng(seed), "bench-publish")
    times: list[float] = []
    at = 0.0
    while len(times) < pending:
        at += rng.expovariate(workload.publish_rate)
        if at >= workload.spec.duration:
            break
        times.append(at)
    return times


def build_world(workload: Workload, seed: int) -> tuple[World, float]:
    """Compile the schedule, build the world and preload the corpus.

    Returns the world, with every event scheduled on its simulator, and
    the wall seconds spent compiling the schedule.
    """
    spec = replace(workload.spec, seed=seed)
    started = time.perf_counter()
    schedule = compile_schedule(spec)
    compile_s = time.perf_counter() - started
    rng = make_rng(seed)
    dht = DhtNetwork(rng=spawn_rng(rng, "dht"), replication=spec.replication)
    nodes = dht.populate(spec.num_nodes)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog)
    search = SearchEngine(dht, catalog, optimizer=spec.optimizer)
    sim = Simulator()
    engine = HybridQueryEngine(
        sim,
        dht,
        config=RaceConfig(
            dht_hop_latency=spec.dht_hop_latency,
            hop_jitter=spec.hop_jitter,
            max_requery_attempts=spec.max_requery_attempts,
            retry_backoff=spec.retry_backoff,
            requery_deadline=spec.requery_deadline,
        ),
        rng=spawn_rng(rng, "engine"),
    )
    cache = None
    if spec.cache_budget_bytes > 0:
        cache = QueryResultCache(
            spec.cache_budget_bytes,
            clock=lambda: sim.now,
            cost_model=dht.cost_model,
        )
    hybrids = [
        HybridUltrapeer(
            ultrapeer_id=index,
            dht_node_id=nodes[index].node_id,
            publisher=publisher,
            search_engine=search,
            gnutella_timeout=spec.gnutella_timeout,
            result_cache=cache,
        )
        for index in range(spec.num_ultrapeers)
    ]
    corpus = build_corpus(spec.workload, spec.num_files, spawn_rng(rng, "corpus"))
    churn = ChurnProcess(
        dht, rng=spawn_rng(rng, "churn"), failure_fraction=spec.churn.failure_fraction
    )
    world = World(
        sim=sim, dht=dht, catalog=catalog, publisher=publisher, engine=engine, churn=churn, cache=cache, hybrids=hybrids, corpus=corpus,
        published_at=[math.inf] * len(corpus),
    )
    order = list(range(len(corpus)))
    spawn_rng(rng, "bench-order").shuffle(order)
    preload = round(len(order) * workload.preload_fraction)
    for index in order[:preload]:
        item = corpus[index]
        started = time.perf_counter()
        publisher.publish_file(
            filename=item.filename,
            filesize=4096 + item.index,
            ip_address=f"10.1.{item.index // 256}.{item.index % 256}",
            port=6346,
            origin=nodes[item.index % spec.num_nodes].node_id,
        )
        world.publish_s += time.perf_counter() - started
        world.publish_calls += 1
        world.published_at[index] = -math.inf
    later = order[preload:]
    for at, index in zip(_publish_times(workload, seed, len(later)), later):
        sim.schedule_at(at, lambda index=index: _publish(world, index))
    for event in schedule.events:
        sim.schedule_at(event.at, lambda event=event: _dispatch(world, spec, event))
    return world, compile_s


def _publish(world: World, index: int) -> None:
    """One QRS observation: an ultrapeer snoops a one-file result set.

    A one-file result set is under the QRS threshold, so the ultrapeer
    publishes the file into the DHT index.
    """
    item = world.corpus[index]
    hybrid = world.hybrids[index % len(world.hybrids)]
    shared = SharedFile(item.filename, 4096 + item.index, hybrid.dht_node_id)
    started = time.perf_counter()
    published = hybrid.observe_query_results([shared])
    world.publish_s += time.perf_counter() - started
    world.publish_calls += published
    if published:
        world.published_at[index] = world.sim.now


def _dispatch(world: World, spec: ScenarioSpec, event) -> None:
    if event.kind == "churn":
        world.churn.churn_step(
            joins=spec.churn.joins,
            leaves=spec.churn.leaves,
            stabilize=spec.churn.stabilize,
        )
        return
    if event.item < 0:
        terms, depths = list(POPULAR_TERMS), list(POPULAR_DEPTHS)
    else:
        terms, depths = list(world.corpus[event.item].terms), [math.inf]
    hybrid = world.hybrids[event.ultrapeer]
    try:
        race = hybrid.handle_leaf_query_simulated(
            world.engine, terms, depths, stop_ttl=spec.stop_ttl
        )
    except Exception:  # counted in failed_fraction, never hidden
        world.raised += 1
        return
    world.records.append((event, race))


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, the rule the scenario reports use."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def reduce_world(world: World) -> tuple[Tally, str, list[str]]:
    """Tally a drained world; return it, its digest and the correctness
    problems found."""
    engine, sim = world.engine, world.sim
    tally = Tally(
        attempted=len(world.records) + world.raised,
        resolved=engine.completed,
        raised=world.raised,
        published_files=world.publisher.published_files,
        publish_bytes=world.publisher.published_bytes,
        sim_events=sim.processed,
    )
    digest = hashlib.sha256()
    for event, race in world.records:
        outcome = race.outcome
        latency = outcome.first_result_latency
        if not race.done:
            tally.unresolved += 1
        if not math.isinf(latency):
            tally.latencies.append(latency)
        tally.degraded += outcome.degraded
        if outcome.used_pier:
            tally.requeried += 1
            if outcome.cache_hit:
                tally.cache_hits += 1
            else:
                tally.requery_bytes.append(outcome.pier_bytes)
        if event.item >= 0 and world.published_at[event.item] <= event.at:
            tally.rare_published += 1
            if outcome.total_results > 0:
                tally.answered_rare += 1
            elif not outcome.degraded:
                tally.silent_loss += 1
        digest.update(
            f"{event.at.hex()}|{latency.hex()}|{outcome.total_results}|"
            f"{outcome.pier_bytes}|{outcome.degraded_reason}|"
            f"{int(outcome.cache_hit)}|{race.pier_attempts}|"
            f"{race.route_retries}\n".encode()
        )
    meter = world.dht.meter.snapshot()
    digest.update(
        f"{sim.now.hex()}|{sim.processed}|{meter.bytes}|{meter.messages}|"
        f"{tally.publish_bytes}|{world.publish_calls}".encode()
    )
    problems = []
    if engine.inflight != 0 or engine.completed != len(world.records):
        problems.append(
            f"{engine.inflight} races in flight, {engine.completed} completed of "
            f"{len(world.records)} submitted"
        )
    if tally.unresolved:
        problems.append(f"{tally.unresolved} races unresolved at drain")
    if sim.pending:
        problems.append(f"{sim.pending} simulator events pending after the drain")
    return tally, digest.hexdigest(), problems


def pooled_figures(tallies: list[Tally]) -> dict[str, float]:
    """The run's virtual-time, byte and outcome figures over its worlds."""
    total = Tally()
    for tally in tallies:
        for name, value in vars(tally).items():
            setattr(total, name, getattr(total, name) + value)
    return {
        "attempted": total.attempted,
        "resolved": total.resolved,
        "answered": len(total.latencies),
        "failed": total.failed,
        "silent_loss": total.silent_loss,
        "requeries": len(total.requery_bytes),
        "rare_published": total.rare_published,
        "sim_events": total.sim_events,
        "first_result_p50_s": _percentile(total.latencies, 0.50),
        "first_result_p99_s": _percentile(total.latencies, 0.99),
        "query_kb_mean": (
            mean(total.requery_bytes) / 1024 if total.requery_bytes else math.nan
        ),
        "publish_kb_per_file": total.publish_bytes / total.published_files / 1024,
        "recall": (
            total.answered_rare / total.rare_published
            if total.rare_published else math.nan
        ),
        "degraded_fraction": total.degraded / total.attempted,
        "failed_fraction": total.failed / total.attempted,
        "cache_hit_rate": total.cache_hits / total.requeried if total.requeried else 0.0,
    }


def run_round(workload: Workload, seed: int) -> Round:
    """Build one world, drain it, and reduce it."""
    started = time.perf_counter()
    world, compile_s = build_world(workload, seed)
    setup_s = time.perf_counter() - started
    started = time.perf_counter()
    world.sim.run()
    run_s = time.perf_counter() - started
    return finish_round(world, setup_s, compile_s, run_s)


def finish_round(world: World, setup_s: float, compile_s: float, run_s: float) -> Round:
    """Reduce a drained world into its :class:`Round`."""
    tally, digest, problems = reduce_world(world)
    counters = {
        key: counter.value for key, counter in world.engine.metrics.counters.items()
    }
    return Round(
        setup_s, compile_s, run_s, world, tally, digest, problems, counters,
        world.publish_calls, world.publish_s,
    )
