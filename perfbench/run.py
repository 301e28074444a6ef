"""End-to-end hybrid-query benchmark: one leaf query, flood to PIER.

Run one workload (the form a harness calls)::

    python3 perfbench/run.py --workload rare-churn --seed 7 --seconds 20 --trace 0

or every workload, untraced and traced, with the full report::

    python3 perfbench/run.py --workload all --seed 7 --seconds 20

Each run derives four worlds from ``--seed`` (``worlds.world_seeds``)
and builds and drains them in turn, round after round, until
``--seconds`` of wall time have passed (at least two rounds of every
world). A round drains its world's fixed open-loop virtual-time
schedule through ``Simulator.run`` as fast as the host allows. Every
round must resolve every race exactly once and leave no event pending,
and every repeat of a world must reproduce the digest of its first
round's virtual-time and byte figures; otherwise the run reports
``"correct": false``. Virtual-time, byte and outcome metrics pool the
four worlds' queries. Wall-clock metrics are medians over the rounds,
scaled to the reference host speed (``calibrate.py``); the unscaled
values are printed as ``wall.*``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half
its time on untraced rounds and the rest on rounds traced from outside
(see ``tracing.py``), checks that tracing moved no virtual-time figure,
writes the span file and the per-layer self-time table under
``perfbench/out/``, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import REFERENCE_S, calibrate

# worlds and tracing import the program, so they are imported inside the
# functions that use them, after main() has put src/ on the path.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: (name, unit, better) — every end-to-end metric (defined in FINDINGS.md);
#: the first nine are the benchmark's gated metrics (never zero)
END_TO_END = (
    ("queries_per_s", "q/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("first_result_p50_s", "virtual_s", "lower"),
    ("first_result_p99_s", "virtual_s", "lower"),
    ("query_kb_mean", "KB", "lower"),
    ("publish_kb_per_file", "KB", "lower"),
    ("publishes_per_s", "1/s", "higher"),
    ("recall", "fraction", "higher"),
    ("degraded_fraction", "fraction", "lower"),
    ("failed_fraction", "fraction", "lower"),
    ("cache_hit_rate", "fraction", "higher"),
)
GATED = tuple(name for name, *_ in END_TO_END[:9])

LAYER_SHARES = (
    "sim", "hybrid", "dht", "net", "pier.plan", "pier.dataflow",
    "pier.operators", "bloom", "cache", "piersearch", "driver",
)

#: (name, unit, better) — every per-layer metric, in report order
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_query", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("hybrid.self_s", "s", "lower"),
    ("hybrid.requery_attempts", "count", "lower"),
    ("hybrid.requery_retries", "count", "lower"),
    ("hybrid.dht_dead_ends", "count", "lower"),
    ("hybrid.degraded.requery-abandoned", "count", "lower"),
    ("hybrid.degraded.deadline", "count", "lower"),
    ("hybrid.degraded.partial-answer", "count", "lower"),
    ("hybrid.degraded.suspect-range", "count", "lower"),
    ("hybrid.degraded.membership-change", "count", "lower"),
    ("dht.self_s", "s", "lower"),
    ("dht.walks", "count", "lower"),
    ("dht.walk_hops_mean", "count", "lower"),
    ("dht.route_repairs", "count", "lower"),
    ("dht.lookups", "count", "lower"),
    ("dht.route_cache_hit_ratio", "fraction", "higher"),
    ("dht.lookup_us_p50", "us", "lower"),
    ("dht.put_us_p50", "us", "lower"),
    ("dht.suspect_ranges", "count", "lower"),
    ("net.messages", "count", "lower"),
    ("net.bytes", "bytes", "lower"),
    ("net.self_s", "s", "lower"),
    ("pier.plan.self_s", "s", "lower"),
    ("pier.prepare_us_p50", "us", "lower"),
    ("pier.catalog_probes_per_prepare", "count", "lower"),
    ("pier.dataflow.self_s", "s", "lower"),
    ("pier.batches", "count", "lower"),
    ("pier.operators.self_s", "s", "lower"),
    ("pier.join_inserts", "count", "lower"),
    ("pier.join_inserts_per_query", "count", "lower"),
    ("pier.spill_rows", "count", "lower"),
    ("bloom.self_s", "s", "lower"),
    ("bloom.ops", "count", "lower"),
    ("cache.gets", "count", "lower"),
    ("cache.puts", "count", "lower"),
    ("cache.hit_ratio", "fraction", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.self_s", "s", "lower"),
    ("piersearch.publishes", "count", "higher"),
    ("piersearch.publish_self_s", "s", "lower"),
    ("piersearch.publish_us_p50", "us", "lower"),
    ("scenario.compile_s", "s", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("driver.self_s", "s", "lower"),
    ("layers.coverage", "fraction", "higher"),
    *((f"{layer}.share", "fraction", "lower") for layer in LAYER_SHARES),
    ("degraded_fraction", "fraction", "lower"),
    ("failed_fraction", "fraction", "lower"),
    ("cache_hit_rate", "fraction", "higher"),
)



def _provenance(args, rounds: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "rounds": rounds,
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Measurement:
    """Rounds of one run, cycling through its worlds, and the checks
    across them."""

    def __init__(self, seeds: list[int]):
        self.seeds = seeds
        self.rounds = []
        #: calibration kernel seconds around each round (see calibrate.py)
        self.host_s: list[float] = []
        #: the first round of each world, by world index
        self.first: dict[int, object] = {}
        self.problems: list[str] = []

    @property
    def next_seed(self) -> int:
        return self.seeds[len(self.rounds) % len(self.seeds)]

    def add(self, result, host_s: float) -> None:
        index = len(self.rounds) % len(self.seeds)
        label = f"round {len(self.rounds) + 1} (world seed {self.seeds[index]})"
        first = self.first.setdefault(index, result)
        if result.digest != first.digest:
            self.problems.append(
                f"{label}: digest {result.digest[:16]} differs from the world's "
                f"first round {first.digest[:16]}: virtual-time or byte figures drifted"
            )
        for problem in result.problems:
            self.problems.append(f"{label}: {problem}")
        self.rounds.append(result)
        self.host_s.append(host_s)

    @property
    def figures(self) -> dict:
        from worlds import pooled_figures

        return pooled_figures([self.first[k].tally for k in sorted(self.first)])

    def samples(self, name: str) -> list[float]:
        """Per-round values of a timing attribute of ``worlds.Round``."""
        return [getattr(result, name) for result in self.rounds]

    def scaled(self, name: str) -> list[float]:
        """:meth:`samples` at the reference host speed: rates (``*_per_s``)
        times host/reference kernel time, durations divided by it."""
        speeds = [host_s / REFERENCE_S for host_s in self.host_s]
        if name.endswith("_per_s"):
            return [v * speed for v, speed in zip(self.samples(name), speeds)]
        return [v / speed for v, speed in zip(self.samples(name), speeds)]


@dataclass
class TracedRound:
    """One traced round: its tracer and its layer split by phase."""

    tracer: object
    run_s: float
    #: self seconds per layer before the first simulated event
    setup_self: dict[str, float]
    #: self seconds per layer inside Simulator.run
    run_self: dict[str, float]
    #: join build rows spilled by the round's dataflow queries
    spill_rows: int


def measure_untraced(workload, until: float, measurement: Measurement) -> None:
    """Untraced rounds until ``until``, at least two of every world."""
    from worlds import run_round

    min_rounds = 2 * len(measurement.seeds)
    before = calibrate()
    while len(measurement.rounds) < min_rounds or time.perf_counter() < until:
        gc.collect()
        result = run_round(workload, measurement.next_seed)
        result.world = None  # a kept world would slow every later GC pass
        after = calibrate()
        measurement.add(result, (before + after) / 2)
        before = after


def measure_traced(workload, until: float, untraced: Measurement) -> dict:
    """Traced rounds of the run's first world until ``until``; returns
    the per-layer metrics, which describe that one world."""
    from tracing import JOIN_INSERTS, Tracer
    from worlds import DEGRADED_REASONS, build_world, finish_round

    seed = untraced.seeds[0]
    traced = Measurement([seed])
    tracers: list[TracedRound] = []
    world = None
    before = calibrate()
    while not tracers or time.perf_counter() < until:
        world = None
        gc.collect()
        with Tracer() as tracer:
            started = time.perf_counter()
            world, compile_s = build_world(workload, seed)
            setup_s = time.perf_counter() - started
            setup_self = tracer.layer_self_s()
            started = time.perf_counter()
            world.sim.run()
            run_s = time.perf_counter() - started
        after = calibrate()
        traced.add(finish_round(world, setup_s, compile_s, run_s), (before + after) / 2)
        before = after
        total_self = tracer.layer_self_s()
        queries = tracer.returned.pop("DataflowExecutor.submit")
        spill_rows = sum(
            query.stats.spill.spilled_tuples
            for query in queries
            if query.stats.spill is not None
        )
        if tracers:
            tracer.drop_spans()  # the first round's spans are the ones written
        tracers.append(
            TracedRound(
                tracer, run_s, setup_self,
                {layer: total_self[layer] - setup_self[layer] for layer in total_self},
                spill_rows,
            )
        )
    if traced.first[0].digest != untraced.first[0].digest:
        untraced.problems.append(
            "traced run drifted: its virtual-time digest differs from the untraced run"
        )
    untraced.problems.extend(f"traced {problem}" for problem in traced.problems)

    first = tracers[0].tracer
    figures = untraced.figures
    tally = untraced.first[0].tally
    metrics = untraced.first[0].counters

    def layer_median(layer: str) -> float:
        return statistics.median(t.run_self[layer] for t in tracers)

    def p50_us(name: str) -> float:
        durations = first.durations_of(name)
        return statistics.median(durations) * 1e6 if durations else 0.0

    run_s = statistics.median(t.run_s for t in tracers)
    dht, catalog, cache = world.dht, world.catalog, world.cache
    meter = dht.meter.snapshot()
    prepares = first.calls_of("SearchEngine.prepare")
    join_inserts = sum(first.calls_of(name) for name in JOIN_INSERTS)
    bloom_ops = sum(
        first.calls_of(name)
        for name in ("BloomFilter.add", "BloomFilter.update", "BloomFilter.__contains__")
    )
    lookups_routed = dht.route_cache_hits + dht.route_cache_misses
    cache_stats = cache.stats if cache is not None else None
    values = {
        "sim.events": tally.sim_events,
        "sim.events_per_query": tally.sim_events / tally.attempted,
        "sim.self_s": layer_median("sim"),
        "hybrid.self_s": layer_median("hybrid"),
        "hybrid.requery_attempts": metrics.get("hybrid.requery_attempts", 0),
        "hybrid.requery_retries": metrics.get("hybrid.requery_retries", 0),
        "hybrid.dht_dead_ends": metrics.get("hybrid.dht_dead_ends", 0),
        **{
            f"hybrid.degraded.{reason}": metrics.get(
                f'hybrid.degraded{{reason="{reason}"}}', 0
            )
            for reason in DEGRADED_REASONS
        },
        "dht.self_s": layer_median("dht"),
        "dht.walks": first.walks_started,
        "dht.walk_hops_mean": (
            first.walk_hops / first.walks_finished if first.walks_finished else 0.0
        ),
        "dht.route_repairs": dht.route_repairs,
        "dht.lookups": first.calls_of("DhtNetwork.lookup"),
        "dht.route_cache_hit_ratio": (
            dht.route_cache_hits / lookups_routed if lookups_routed else 0.0
        ),
        "dht.lookup_us_p50": p50_us("DhtNetwork.lookup"),
        "dht.put_us_p50": p50_us("DhtNetwork.put_raw"),
        "dht.suspect_ranges": len(dht.suspect_ranges),
        "net.messages": meter.messages,
        "net.bytes": meter.bytes,
        "net.self_s": layer_median("net"),
        "pier.plan.self_s": layer_median("pier.plan"),
        "pier.prepare_us_p50": p50_us("SearchEngine.prepare"),
        "pier.catalog_probes_per_prepare": (
            catalog.stats_probes / prepares if prepares else 0.0
        ),
        "pier.dataflow.self_s": layer_median("pier.dataflow"),
        "pier.batches": first.calls_of("DhtNetwork.ship_batch"),
        "pier.operators.self_s": layer_median("pier.operators"),
        "pier.join_inserts": join_inserts,
        "pier.join_inserts_per_query": join_inserts / tally.attempted,
        "pier.spill_rows": tracers[0].spill_rows,
        "bloom.self_s": layer_median("bloom"),
        "bloom.ops": bloom_ops,
        "cache.gets": cache_stats.lookups if cache_stats else 0,
        "cache.puts": cache_stats.insertions if cache_stats else 0,
        "cache.hit_ratio": cache_stats.hit_rate if cache_stats else 0.0,
        "cache.evictions": cache_stats.evictions if cache_stats else 0,
        "cache.self_s": layer_median("cache"),
        "piersearch.publishes": world.publish_calls,
        "piersearch.publish_self_s": statistics.median(
            t.tracer.self_s_of("Publisher.publish_file") for t in tracers
        ),
        "piersearch.publish_us_p50": p50_us("Publisher.publish_file"),
        "scenario.compile_s": statistics.median(untraced.samples("compile_s")),
        "obs.trace_overhead": (
            statistics.median(traced.scaled("run_s"))
            / statistics.median(untraced.scaled("run_s")[:: len(untraced.seeds)])
        ),
        "driver.self_s": layer_median("driver"),
        "layers.coverage": sum(tracers[0].run_self.values()) / tracers[0].run_s,
        **{
            f"{layer}.share": layer_median(layer) / run_s for layer in LAYER_SHARES
        },
        "degraded_fraction": figures["degraded_fraction"],
        "failed_fraction": figures["failed_fraction"],
        "cache_hit_rate": figures["cache_hit_rate"],
    }
    _write_trace_outputs(workload.name, first, tracers, run_s)
    return values


def _write_trace_outputs(name: str, first, tracers, run_s: float) -> None:
    from tracing import LAYER_ORDER

    OUT.mkdir(exist_ok=True)
    spans = first.write_spans(OUT / f"{name}.spans.tsv")
    lines = [
        f"# {name}: self time by layer, median of {len(tracers)} traced rounds",
        f"# run phase = inside Simulator.run ({run_s:.3f} s traced); "
        f"{spans} spans in {name}.spans.tsv",
        f"{'layer':<16} {'run_self_s':>11} {'run_share':>10} {'setup_self_s':>13}",
    ]
    for layer in LAYER_ORDER:
        run = statistics.median(t.run_self[layer] for t in tracers)
        setup = statistics.median(t.setup_self[layer] for t in tracers)
        lines.append(f"{layer:<16} {run:>11.4f} {run / run_s:>10.1%} {setup:>13.4f}")
    lines.append("")
    lines.append(f"{'span name (first traced round)':<60} {'layer':<15} {'calls':>9} {'self_s':>9}")
    for span_name, layer, calls, seconds in first.name_table():
        lines.append(f"{span_name[:60]:<60} {layer:<15} {calls:>9} {seconds:>9.4f}")
    (OUT / f"{name}.layers.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines[:3 + len(LAYER_ORDER)]))


#: end-to-end metrics timed per round (the rest repeat exactly per seed)
WALL_CLOCK = ("queries_per_s", "setup_s", "publishes_per_s")


def run_one(args) -> int:
    from worlds import WORKLOADS, shrink, world_seeds

    workload = WORKLOADS[args.workload]
    if args.scale != 1.0:
        workload = shrink(workload, args.scale)
    started = time.perf_counter()
    untraced = Measurement(world_seeds(args.seed))
    share = 0.5 if args.trace else 1.0
    measure_untraced(workload, started + args.seconds * share, untraced)
    figures = untraced.figures
    if args.trace:
        values = measure_traced(workload, started + args.seconds, untraced)
        declared = PER_LAYER
    else:
        values = {name: figures[name] for name, *_ in END_TO_END if name in figures}
        for name in WALL_CLOCK:
            values[name] = statistics.median(untraced.scaled(name))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        declared = END_TO_END
    print("provenance " + json.dumps(_provenance(args, len(untraced.rounds)), sort_keys=True))
    print(
        f"{workload.name}: {len(untraced.seeds)} worlds (seeds {untraced.seeds}), "
        f"{figures['attempted']} queries attempted, {figures['resolved']} resolved, "
        f"{figures['answered']} answered (latency samples), "
        f"{figures['requeries']} DHT re-queries, "
        f"{figures['rare_published']} published-target rare queries"
    )
    if args.trace:
        print(f"per-layer metrics (world seed {untraced.seeds[0]}, traced rounds)")
        for name, unit, better in declared:
            print(f"  {name:<36} {values[name]:>14.6g}  {unit}, {better}")
    else:
        print(
            f"end-to-end metrics; wall-clock ones over {len(untraced.rounds)} rounds, "
            "scaled to the reference host speed (host ran the calibration kernel "
            f"at {statistics.median(untraced.host_s) / REFERENCE_S:.3f}x the "
            "reference time; unscaled values as wall.*), the rest pooled over "
            "the worlds and identical in every round"
        )
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12}  unit, better")
        rows = [
            (name, unit, better,
             untraced.scaled(name) if name in WALL_CLOCK else [values[name]])
            for name, unit, better in declared
        ] + [
            (f"wall.{name}", unit, better, untraced.samples(name))
            for name, unit, better in declared if name in WALL_CLOCK
        ]
        for name, unit, better, samples in rows:
            q1, q2, q3 = _quartiles(samples)
            print(f"  {name:<36} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g}  {unit}, {better}")
    for problem in untraced.problems:
        print(f"CHECK FAILED: {problem}")
    reported = [name for name, *_ in declared] if args.trace else GATED
    correct = not untraced.problems and all(math.isfinite(values[n]) for n in reported)
    units = {name: unit for name, unit, *_ in declared}
    print(json.dumps({
        "correct": correct,
        "attempted": int(figures["attempted"]),
        "failed": int(figures["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from worlds import WORKLOADS

    status = 0
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale),
            ]
            print(f"=== {name} trace={trace}", flush=True)
            completed = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode or not lines:
                status = 1
                continue
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every arrival window by this factor (self-test only)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from worlds import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
