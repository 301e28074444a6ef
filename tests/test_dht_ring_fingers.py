"""Property suite: ``Ring.fingers_of`` equals the 160-target definition.

``fingers_of`` bisects once per distinct finger instead of once per
target ``node_id + 2**i``. These properties pin it to the literal
definition (the successor of every target, consecutive duplicates
dropped) on both ring backings, for member and non-member ids, on tiny
rings, and with ids crowded against either end of the keyspace where
targets wrap.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.ids import KEY_BITS, KEY_SPACE
from repro.dht.ring import COMPACT_SHIFT, Ring

WORD_SPACE = 1 << 64

#: compact words drawn uniformly, or crowded within 256 words of 0 or of
#: the top of the keyspace
words = st.one_of(
    st.integers(min_value=0, max_value=WORD_SPACE - 1),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=WORD_SPACE - 256, max_value=WORD_SPACE - 1),
)
#: full-width probe ids, including ones just off a compact word
probes = st.one_of(
    st.integers(min_value=0, max_value=KEY_SPACE - 1),
    st.integers(min_value=0, max_value=1 << 100),
    st.integers(min_value=KEY_SPACE - (1 << 100), max_value=KEY_SPACE - 1),
)


def reference_fingers(ring: Ring, node_id: int) -> list[int]:
    """The finger table by definition: one owner per target, 160 targets."""
    fingers: list[int] = []
    previous = None
    for index in range(KEY_BITS):
        owner = ring.responsible((node_id + (1 << index)) % KEY_SPACE)
        if owner != previous:
            fingers.append(owner)
            previous = owner
    return fingers


def rings(ids: list[int]) -> list[Ring]:
    full = [word << COMPACT_SHIFT for word in ids]
    return [Ring(compact=True, ids=full), Ring(compact=False, ids=full)]


@given(
    ids=st.lists(words, min_size=1, max_size=40, unique=True),
    pick=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=150)
def test_member_fingers_match_definition(ids, pick):
    node = ids[pick % len(ids)] << COMPACT_SHIFT
    for ring in rings(ids):
        assert ring.fingers_of(node) == reference_fingers(ring, node)


@given(ids=st.lists(words, min_size=1, max_size=40, unique=True), node=probes)
@settings(max_examples=150)
def test_non_member_fingers_match_definition(ids, node):
    for ring in rings(ids):
        assert ring.fingers_of(node) == reference_fingers(ring, node)


@given(ids=st.lists(words, min_size=1, max_size=2, unique=True), node=probes)
@settings(max_examples=100)
def test_one_and_two_node_rings_match_definition(ids, node):
    for ring in rings(ids):
        for probe in (node, *ring):
            assert ring.fingers_of(probe) == reference_fingers(ring, probe)


def test_wrap_back_to_an_earlier_finger_is_kept():
    """A non-member's last target can wrap to a node it already listed."""
    ring = Ring(ids=[10, 1000])
    fingers = ring.fingers_of(5)
    assert fingers == reference_fingers(ring, 5) == [10, 1000, 10]
