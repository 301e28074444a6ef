"""Per-race key derivation: each query's keys are derived once, lazily.

A race that flooding or the result cache answers should cost almost
nothing. Three pieces make that so, and this suite pins each one:

* ``query_key`` is memoized per term tuple and must equal the plain
  tokenize/dedupe/sort definition for every term list;
* a race records only its posting table at submit; the posting keys are
  derived (from that table) only when a zero-result PIER answer needs
  them for the suspect-range check;
* ``hybrid.winner{source}`` counters are created on first use, so a
  fresh engine exports no winner series at all.

The call-count test is the timing-free guard on the hot path: it fails on
any host if per-race tokenization or posting-key hashing comes back.
"""

from __future__ import annotations

import math
from collections import Counter

from hypothesis import given, settings, strategies as st

import repro.cache.popularity as popularity
import repro.hybrid.engine as engine_module
from repro.cache.popularity import query_key
from repro.cache.results import QueryResultCache
from repro.dht.network import DhtNetwork, hash_key
from repro.hybrid.engine import HybridQueryEngine, RaceConfig
from repro.hybrid.ultrapeer import HybridUltrapeer
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.piersearch.tokenizer import STOP_WORDS, extract_keywords
from repro.sim.engine import Simulator

TIMEOUT = 30.0


def build_world(inverted_cache=False, cache=False):
    dht = DhtNetwork(rng=41)
    nodes = dht.populate(32)
    catalog = Catalog(dht)
    publisher = Publisher(dht, catalog, inverted_cache=inverted_cache)
    search = SearchEngine(dht, catalog, inverted_cache=inverted_cache)
    sim = Simulator()
    engine = HybridQueryEngine(sim, dht, config=RaceConfig(retry_backoff=0.5), rng=5)
    result_cache = None
    if cache:
        result_cache = QueryResultCache(
            1 << 20, clock=lambda: sim.now, cost_model=dht.cost_model
        )
    hybrid = HybridUltrapeer(
        ultrapeer_id=1,
        dht_node_id=nodes[0].node_id,
        publisher=publisher,
        search_engine=search,
        gnutella_timeout=TIMEOUT,
        result_cache=result_cache,
    )
    return sim, dht, engine, hybrid


def publish(hybrid, name="rare montia klorena.mp3"):
    hybrid.publisher.publish_file(
        filename=name, filesize=100, ip_address="10.0.0.1", port=6346
    )


# ----------------------------------------------------------------------
# Memoized query_key == the unmemoized definition
# ----------------------------------------------------------------------


def reference_query_key(terms):
    keywords: set[str] = set()
    for term in terms:
        keywords.update(extract_keywords(term))
    return tuple(sorted(keywords))


#: words mixing indexable terms, stop words, case variants, one-letter
#: noise and punctuation
words = st.sampled_from(
    ["Toxic", "toxic", "BRITNEY", "spears", "a", "x", "mp3", "montia-klorena",
     "the song", "feat.", "42", "", " "]
    + sorted(STOP_WORDS)[:5]
)
term_lists = st.lists(words, max_size=6)


@given(terms=term_lists, order=st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_memoized_query_key_matches_definition(terms, order):
    expected = reference_query_key(terms)
    key = query_key(terms)
    assert isinstance(key, tuple)
    assert key == expected
    # Repeats hit the memo and still agree; duplicates and any
    # permutation of the terms share the key.
    assert query_key(list(terms)) == expected
    shuffled = list(terms) + list(terms)
    order.shuffle(shuffled)
    assert query_key(shuffled) == expected
    assert query_key(iter(terms)) == expected


def test_query_key_memo_is_bounded():
    info = query_key.cache_info()
    assert info.maxsize is not None and info.maxsize > 0
    for index in range(info.maxsize + 10):
        query_key([f"unique{index}"])
    assert query_key.cache_info().currsize == info.maxsize


# ----------------------------------------------------------------------
# Lazy posting keys read the table captured at submit
# ----------------------------------------------------------------------


def test_race_captures_posting_table_at_submit():
    _, _, engine, hybrid = build_world()
    race = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
    assert race.posting_table == "Inverted"
    _, _, engine, hybrid = build_world(inverted_cache=True)
    race = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
    assert race.posting_table == "InvertedCache"


def test_suspect_inverted_cache_key_degrades_zero_answer():
    """InvertedCache deployment: the suspect check hashes that table's key."""
    sim, dht, engine, hybrid = build_world(inverted_cache=True)
    publish(hybrid)
    race = hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
    posting_key = hash_key("InvertedCache|montia")
    other_table_key = hash_key("Inverted|montia")
    # The two tables' keys live on different nodes, so only a check that
    # derives the InvertedCache key can find the suspect range.
    assert dht.owner_of(posting_key) != dht.owner_of(other_table_key)
    sim.schedule(
        TIMEOUT - 0.01,
        lambda: dht.remove_node(dht.owner_of(posting_key), graceful=False),
    )
    sim.run()
    assert race.done
    assert race.outcome.pier_results == 0
    assert dht.is_suspect(posting_key)
    assert not dht.is_suspect(other_table_key)
    assert race.outcome.degraded_reason == "suspect-range"


# ----------------------------------------------------------------------
# Winner counters exist only once a race finishes
# ----------------------------------------------------------------------


def test_fresh_engine_has_no_winner_series():
    sim, _, engine, hybrid = build_world()
    assert not [key for key in engine.metrics.counters if key.startswith("hybrid.winner")]
    hybrid.handle_leaf_query_simulated(engine, ["toxic"], [1.0], 3)
    assert not [key for key in engine.metrics.counters if key.startswith("hybrid.winner")]
    sim.run()
    winners = {
        key: counter.value
        for key, counter in engine.metrics.counters.items()
        if key.startswith("hybrid.winner")
    }
    assert winners == {'hybrid.winner{source="gnutella"}': 1}
    assert "repro_hybrid_winner_total{source=\"pier\"}" not in engine.metrics.to_prometheus()


# ----------------------------------------------------------------------
# Hot-path guard: derivations per distinct query, not per race
# ----------------------------------------------------------------------


def test_repeated_races_tokenize_once_per_query_and_never_hash(monkeypatch):
    sim, dht, engine, hybrid = build_world(cache=True)
    publish(hybrid)
    tokenized: Counter = Counter()
    hashed: list[str] = []

    def counting_extract(term):
        tokenized[term] += 1
        return extract_keywords(term)

    def counting_hash(key):
        hashed.append(key)
        return hash_key(key)

    for module in (engine_module, popularity):
        monkeypatch.setattr(module, "extract_keywords", counting_extract)
    monkeypatch.setattr(engine_module, "hash_key", counting_hash)

    popular = [["britney", "toxic"], ["toxic", "britney"], ["spears"], ["the", "toxic"]]
    races = []
    for index in range(500):
        terms = popular[index % len(popular)]
        sim.schedule_at(
            index * 0.1,
            lambda terms=terms: races.append(
                hybrid.handle_leaf_query_simulated(engine, terms, [1.0, 2.0], 3)
            ),
        )
    sim.run()
    assert len(races) == 500
    assert all(race.done and race.gnutella_arrived > 0 for race in races)
    distinct_terms = {term for terms in popular for term in terms}
    # At most one tokenization per term of each distinct term list ...
    assert sum(tokenized.values()) <= sum(len(terms) for terms in popular)
    assert set(tokenized) <= distinct_terms
    # ... and no Gnutella-answered race ever derives a posting key.
    assert hashed == []

    # A rare query answered by PIER, then four times by the cache: still
    # one tokenization, and no posting key for a non-empty answer.
    tokenized.clear()
    rare = []
    for index in range(5):
        sim.schedule(
            index * 2 * TIMEOUT,
            lambda: rare.append(
                hybrid.handle_leaf_query_simulated(engine, ["montia"], [math.inf], 3)
            ),
        )
    sim.run()
    assert [race.outcome.total_results for race in rare] == [1] * 5
    assert [race.outcome.cache_hit for race in rare] == [False] + [True] * 4
    assert tokenized == Counter({"montia": 1})
    assert hashed == []
