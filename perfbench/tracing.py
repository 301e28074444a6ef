"""Outside-in per-layer tracing for the end-to-end benchmark.

The program is timed from outside, without changing a line of it:

* :class:`Tracer` wraps the public entry points of every layer (methods
  and module functions listed in :data:`ENTRY_POINTS`) for the length of
  a ``with`` block and puts every wrapper back on exit;
* a :class:`SpanProfiler` is installed through ``repro.obs.profile``
  (``sample_every=1``), so every callback of every ``Simulator`` built
  inside the block runs inside a span named after the callback;
* generator entry points (``DhtNetwork.iter_lookup``) are timed on every
  resume, not just on the call that creates the generator.

Each span records (name, start, end, parent). A span's *self time* is its
duration minus the time its child spans cover, and it is folded into the
layer that defines the span's code (:func:`layer_of`). The spans of the
hottest leaf calls (join inserts, Bloom probes, kernel scheduling) are
only counted and timed, not kept one by one; their time still leaves
their parent's self time. Kept spans live in flat arrays in memory and
are written out once, by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

from repro.obs.profile import Profiler, install

#: module prefix -> layer, longest prefix first
LAYERS = (
    ("repro.sim", "sim"),
    ("repro.hybrid", "hybrid"),
    ("repro.dht", "dht"),
    ("repro.net", "net"),
    ("repro.pier.planner", "pier.plan"),
    ("repro.pier.optimizer", "pier.plan"),
    ("repro.pier.catalog", "pier.plan"),
    ("repro.pier.dataflow", "pier.dataflow"),
    ("repro.pier.rows", "pier.dataflow"),
    ("repro.pier.operators", "pier.operators"),
    ("repro.common.bloom", "bloom"),
    ("repro.cache", "cache"),
    ("repro.piersearch", "piersearch"),
    ("repro.scenario", "scenario"),
    ("repro.obs", "obs"),
    ("worlds", "driver"),
)

#: layers in report order
LAYER_ORDER = (
    "sim", "hybrid", "dht", "net", "pier.plan", "pier.dataflow",
    "pier.operators", "bloom", "cache", "piersearch", "scenario", "obs",
    "driver", "other",
)

#: (module, qualified attribute, keep every span) — what gets wrapped.
#: Leaf entries (``False``) are called millions of times; they are
#: counted and timed but not kept span by span.
ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator.run", True),
    ("repro.sim.engine", "Simulator.schedule", False),
    ("repro.sim.engine", "Simulator.schedule_at", False),
    ("repro.sim.engine", "EventGroup.schedule", False),
    ("repro.sim.engine", "EventGroup.schedule_at", False),
    ("repro.hybrid.ultrapeer", "HybridUltrapeer.handle_leaf_query_simulated", True),
    ("repro.hybrid.ultrapeer", "HybridUltrapeer.observe_query_results", True),
    ("repro.hybrid.engine", "HybridQueryEngine.submit", True),
    ("repro.dht.network", "DhtNetwork.populate", True),
    ("repro.dht.network", "DhtNetwork.lookup", True),
    ("repro.dht.network", "DhtNetwork.iter_lookup", True),
    ("repro.dht.network", "DhtNetwork.put", True),
    ("repro.dht.network", "DhtNetwork.put_raw", True),
    ("repro.dht.network", "DhtNetwork.get", True),
    ("repro.dht.network", "DhtNetwork.get_raw", True),
    ("repro.dht.network", "DhtNetwork.ship_batch", True),
    ("repro.dht.network", "DhtNetwork.get_local", False),
    ("repro.dht.network", "DhtNetwork.put_local", False),
    ("repro.dht.network", "DhtNetwork.owner_of", False),
    ("repro.dht.churn", "ChurnProcess.churn_step", True),
    ("repro.net.transport", "InProcessTransport.deliver", False),
    ("repro.net.transport", "InProcessTransport.charge", False),
    ("repro.net.transport", "InProcessTransport.hop_delay", False),
    ("repro.piersearch.search", "SearchEngine.prepare", True),
    ("repro.piersearch.search", "SearchEngine.finalize", True),
    ("repro.piersearch.search", "SearchEngine.observe_execution", False),
    ("repro.piersearch.publisher", "Publisher.publish_file", True),
    ("repro.pier.planner", "KeywordPlanner.plan", True),
    ("repro.pier.optimizer", "CostBasedOptimizer.choose", True),
    ("repro.pier.optimizer", "CostBasedOptimizer.observe_actual", False),
    ("repro.pier.catalog", "Catalog.posting_size", False),
    ("repro.pier.dataflow", "DataflowExecutor.submit", True),
    ("repro.pier.operators", "SymmetricHashJoin.insert_left", False),
    ("repro.pier.operators", "SymmetricHashJoin.insert_right", False),
    ("repro.pier.operators", "SymmetricHashJoin.insert_left_key", False),
    ("repro.pier.operators", "SymmetricHashJoin.insert_right_key", False),
    ("repro.common.bloom", "BloomFilter.add", False),
    ("repro.common.bloom", "BloomFilter.update", False),
    ("repro.common.bloom", "BloomFilter.__contains__", False),
    ("repro.common.bloom", "bloom_for_keys", True),
    ("repro.cache.results", "QueryResultCache.get", False),
    ("repro.cache.results", "QueryResultCache.put", False),
    ("repro.scenario.engine", "compile_schedule", True),
)

#: entry points whose per-call durations are kept for percentiles
DURATIONS = frozenset(
    {
        "DhtNetwork.lookup",
        "DhtNetwork.put_raw",
        "SearchEngine.prepare",
        "Publisher.publish_file",
    }
)

#: entry points whose return values are kept (the handles of submitted
#: dataflow queries, whose stats are read after the drain)
CAPTURED = frozenset({"DataflowExecutor.submit"})

JOIN_INSERTS = (
    "SymmetricHashJoin.insert_left",
    "SymmetricHashJoin.insert_right",
    "SymmetricHashJoin.insert_left_key",
    "SymmetricHashJoin.insert_right_key",
)


def layer_of(module: str) -> str:
    """The layer that owns code defined in ``module``."""
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """Span recorder plus the wrapping that feeds it.

    Use as a context manager: entering wraps every entry point and
    installs the simulator callback hook; leaving undoes both, so code
    run outside the block is untouched.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: per span name: its text, its layer, calls, self seconds
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._name_ids: dict[object, int] = {}
        #: kept spans, one entry per array slot
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: per name id, the per-call durations (only for DURATIONS)
        self.durations: dict[int, list[float]] = {}
        #: per entry-point name, the values it returned (only for CAPTURED)
        self.returned: dict[str, list] = {name: [] for name in CAPTURED}
        #: generator walks started, those that ran to completion, and
        #: the completed walks' summed overlay hops
        self.walks_started = 0
        self.walks_finished = 0
        self.walk_hops = 0
        #: open spans: [start, child seconds, enclosing kept span index]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- names ---------------------------------------------------------

    def name_id(self, key: object, name: str, module: str) -> int:
        nid = self._name_ids.get(key)
        if nid is None:
            nid = len(self.names)
            self._name_ids[key] = nid
            self.names.append(name)
            self.name_layer.append(layer_of(module))
            self.calls.append(0)
            self.self_s.append(0.0)
            if name in DURATIONS:
                self.durations[nid] = []
        return nid

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, keep: bool) -> list:
        stack = self._stack
        parent = stack[-1][2] if stack else -1
        if keep:
            sid = len(self.span_name)
            self.span_name.append(-1)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            sid = parent
        frame = [0.0, 0.0, sid]
        stack.append(frame)
        frame[0] = self.clock()
        return frame

    def _exit(self, frame: list, nid: int, keep: bool) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        self.self_s[nid] += duration - frame[1]
        self.calls[nid] += 1
        if stack:
            stack[-1][1] += duration
        if keep:
            sid = frame[2]
            self.span_name[sid] = nid
            self.span_start[sid] = frame[0]
            self.span_end[sid] = end
        durations = self.durations.get(nid)
        if durations is not None:
            durations.append(duration)

    def call(self, nid: int, keep: bool, fn, args, kwargs):
        frame = self._enter(keep)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, nid, keep)

    # -- wrapping ----------------------------------------------------------

    def _wrap_function(self, fn, name: str, module: str, keep: bool):
        nid = self.name_id(("entry", name), name, module)
        call = self.call
        if inspect.isgeneratorfunction(fn):
            tracer = self

            def generator_wrapper(*args, **kwargs):
                tracer.walks_started += 1
                return _TimedGenerator(tracer, fn(*args, **kwargs), nid, keep)

            return generator_wrapper

        if name in CAPTURED:
            returned = self.returned[name]

            def capturing_wrapper(*args, **kwargs):
                result = call(nid, keep, fn, args, kwargs)
                returned.append(result)
                return result

            return capturing_wrapper
        if keep:

            def wrapper(*args, **kwargs):
                return call(nid, keep, fn, args, kwargs)

            return wrapper
        # Leaf path, inlined: these run millions of times per round.
        clock, stack, self_s, calls = self.clock, self._stack, self.self_s, self.calls

        def leaf_wrapper(*args, **kwargs):
            frame = [clock(), 0.0, stack[-1][2] if stack else -1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_s[nid] += duration - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += duration

        return leaf_wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for module_name, qualname, keep in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, staticmethod):
                    wrapped = self._wrap_function(
                        raw.__func__, qualname, module_name, keep
                    )
                    self._patch_owner(owner, attr, staticmethod(wrapped))
                else:
                    wrapped = self._wrap_function(raw, qualname, module_name, keep)
                    self._patch_owner(owner, attr, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap_function(original, qualname, module_name, keep)
            # Module functions are bound by name wherever they were
            # imported, so rebind every such reference.
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if namespace is not None and namespace.get(qualname) is original:
                    self._patch(loaded, qualname, wrapped)
        install(SpanProfiler(self))
        return self

    def _patch_owner(self, owner, attr: str, new) -> None:
        if attr in owner.__dict__:
            self._patch(owner, attr, new)
        else:  # inherited: shadow on the subclass, delete on restore
            self._patches.append((owner, attr, None))
            setattr(owner, attr, new)

    def __exit__(self, *exc) -> None:
        install(None)
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- readout -----------------------------------------------------------

    def calls_of(self, name: str) -> int:
        nid = self._name_ids.get(("entry", name))
        return 0 if nid is None else self.calls[nid]

    def self_s_of(self, name: str) -> float:
        nid = self._name_ids.get(("entry", name))
        return 0.0 if nid is None else self.self_s[nid]

    def durations_of(self, name: str) -> list[float]:
        nid = self._name_ids.get(("entry", name))
        return [] if nid is None else self.durations.get(nid, [])

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer, over every span recorded."""
        totals = dict.fromkeys(LAYER_ORDER, 0.0)
        for nid, seconds in enumerate(self.self_s):
            totals[self.name_layer[nid]] += seconds
        return totals

    def name_table(self) -> list[tuple[str, str, int, float]]:
        """(name, layer, calls, self seconds), largest self time first."""
        rows = [
            (self.names[nid], self.name_layer[nid], self.calls[nid], self.self_s[nid])
            for nid in range(len(self.names))
        ]
        rows.sort(key=lambda row: -row[3])
        return rows

    def drop_spans(self) -> None:
        """Free the kept spans; per-name totals stay."""
        for name in ("span_name", "span_parent"):
            setattr(self, name, array("i"))
        for name in ("span_start", "span_end"):
            setattr(self, name, array("d"))

    def write_spans(self, path) -> int:
        """Write kept spans as TSV (id, parent, name, layer, start, end).

        Times are seconds relative to the first span. Returns the number
        of spans written.
        """
        count = len(self.span_name)
        origin = self.span_start[0] if count else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tlayer\tstart_s\tend_s\n")
            names, layers = self.names, self.name_layer
            for sid in range(count):
                nid = self.span_name[sid]
                out.write(
                    f"{sid}\t{self.span_parent[sid]}\t{names[nid]}\t{layers[nid]}\t"
                    f"{self.span_start[sid] - origin:.9f}\t"
                    f"{self.span_end[sid] - origin:.9f}\n"
                )
        return count


class _TimedGenerator:
    """Times every resume of a wrapped generator as one span."""

    __slots__ = ("tracer", "gen", "nid", "keep")

    def __init__(self, tracer: Tracer, gen, nid: int, keep: bool):
        self.tracer, self.gen, self.nid, self.keep = tracer, gen, nid, keep

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self.gen.__next__, ())

    def send(self, value):
        return self._resume(self.gen.send, (value,))

    def throw(self, *args):
        return self._resume(self.gen.throw, args)

    def close(self):
        self.gen.close()

    def _resume(self, step, args):
        tracer = self.tracer
        frame = tracer._enter(self.keep)
        try:
            return step(*args)
        except StopIteration as stop:
            tracer.walks_finished += 1
            tracer.walk_hops += getattr(stop.value, "hops", 0)
            raise
        finally:
            tracer._exit(frame, self.nid, self.keep)


class SpanProfiler(Profiler):
    """A ``repro.obs.profile`` hook that runs every simulator callback
    inside a span named after the callback's code."""

    def __init__(self, tracer: Tracer):
        super().__init__(sample_every=1)
        self.tracer = tracer
        self._ids: dict[object, int] = {}

    def run_sampled(self, callback) -> None:
        self.calls += 1
        target = getattr(callback, "func", callback)
        code = getattr(target, "__code__", None) or type(target)
        nid = self._ids.get(code)
        if nid is None:
            nid = self.tracer.name_id(
                ("callback", code),
                f"callback:{getattr(target, '__qualname__', type(target).__name__)}",
                getattr(target, "__module__", "") or "",
            )
            self._ids[code] = nid
        tracer = self.tracer
        frame = tracer._enter(True)
        try:
            callback()
        finally:
            tracer._exit(frame, nid, True)
