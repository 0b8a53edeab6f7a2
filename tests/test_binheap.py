"""Unit and property tests for the indexed binary max-heap."""

import importlib.util
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructures import IndexedMaxHeap


def _heap(pairs):
    heap = IndexedMaxHeap()
    for item, key in pairs:
        heap.push_or_update(item, key)
    return heap


def _drain(heap):
    """Pop every item through ``peek`` + ``remove``, largest first."""
    drained = []
    while heap:
        item, key = heap.peek()
        assert heap.remove(item) == key
        drained.append((item, key))
    return drained


class TestBasics:
    def test_empty_heap_is_falsy(self):
        heap = IndexedMaxHeap()
        assert not heap
        assert len(heap) == 0

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedMaxHeap().peek()

    def test_push_peek_remove_single(self):
        heap = _heap([("a", 1.5)])
        assert heap.peek() == ("a", 1.5)
        assert heap.remove("a") == 1.5
        assert not heap

    def test_drain_order_is_descending(self):
        values = [5.0, 3.0, 8.0, 1.0, 9.0, 2.0, 7.0]
        heap = _heap(enumerate(values))
        keys = [key for _, key in _drain(heap)]
        assert keys == sorted(values, reverse=True)

    def test_contains_and_key_of(self):
        heap = _heap([("x", 4.0)])
        assert "x" in heap
        assert "y" not in heap
        assert heap.key_of("x") == 4.0

    def test_key_of_missing_raises(self):
        with pytest.raises(KeyError):
            IndexedMaxHeap().key_of("missing")

    def test_equal_keys_all_drained(self):
        heap = _heap((i, 1.0) for i in range(10))
        assert {item for item, _ in _drain(heap)} == set(range(10))

    def test_len_and_bool_follow_pushes_and_removes(self):
        heap = _heap([("a", 1.0), ("b", 2.0)])
        assert heap and len(heap) == 2
        heap.push_or_update("a", 3.0)
        assert len(heap) == 2
        heap.remove("b")
        assert heap and len(heap) == 1
        heap.remove("a")
        assert not heap and len(heap) == 0

    def test_tuple_items(self):
        """Grid cells, negative coordinates included, are the items."""
        heap = _heap([((-1, 0), 2), ((0, -1), 5), ((2, 3), 1)])
        assert heap.peek() == ((0, -1), 5)
        assert (-1, 0) in heap
        assert (0, 0) not in heap
        assert heap.remove((0, -1)) == 5
        assert heap.peek() == ((-1, 0), 2)

    def test_check_invariants_catches_a_broken_heap(self):
        """The checker the property tests lean on must not pass
        everything."""
        heap = _heap([("a", 3.0), ("b", 2.0), ("c", 1.0)])
        heap.check_invariants()
        heap._keys[0] = 0.0
        with pytest.raises(AssertionError):
            heap.check_invariants()
        heap = _heap([("a", 3.0), ("b", 2.0)])
        heap._pos["a"] = 1
        with pytest.raises(AssertionError):
            heap.check_invariants()


class TestKeyUpdates:
    def test_push_or_update_inserts_then_updates(self):
        heap = IndexedMaxHeap()
        heap.push_or_update("a", 5.0)
        heap.push_or_update("a", 2.0)
        assert len(heap) == 1
        assert heap.peek() == ("a", 2.0)

    def test_update_key_raises_to_the_top(self):
        heap = _heap([("a", 1.0), ("b", 5.0)])
        heap.update_key("a", 9.0)
        assert heap.peek() == ("a", 9.0)

    def test_update_key_lowers_below_the_rest(self):
        heap = _heap([("a", 7.0), ("b", 5.0), ("c", 3.0)])
        heap.update_key("a", 1.0)
        assert [item for item, _ in _drain(heap)] == ["b", "c", "a"]

    def test_update_key_missing_raises(self):
        with pytest.raises(KeyError):
            IndexedMaxHeap().update_key("nope", 1.0)

    def test_remove_middle_item(self):
        heap = _heap((i, float(i)) for i in range(8))
        assert heap.remove(4) == 4.0
        heap.check_invariants()
        assert [item for item, _ in _drain(heap)] == [7, 6, 5, 3, 2, 1, 0]

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            IndexedMaxHeap().remove("nope")

    def test_remove_sifts_the_moved_last_item_up(self):
        """The last slot can outrank the hole's parent: ``remove`` must
        sift it up, not only down."""
        heap = _heap(enumerate([10, 2, 9, 1, 1, 8, 8]))
        assert heap.remove(3) == 1
        heap.check_invariants()
        assert [key for _, key in _drain(heap)] == [10, 9, 8, 8, 2, 1]

    def test_remove_root_then_the_last_slot(self):
        heap = _heap([("a", 3.0), ("b", 2.0), ("c", 1.0)])
        assert heap.remove("a") == 3.0
        assert heap.peek() == ("b", 2.0)
        assert heap.remove("c") == 1.0
        assert heap.peek() == ("b", 2.0)
        assert len(heap) == 1
        heap.check_invariants()

    def test_push_or_update_with_the_same_key_keeps_the_order(self):
        heap = _heap([("a", 2.0), ("b", 2.0), ("c", 1.0)])
        heap.push_or_update("b", 2.0)
        heap.update_key("c", 1.0)
        assert [item for item, _ in _drain(heap)] == ["a", "b", "c"]

    def test_key_of_follows_every_update(self):
        heap = _heap([("a", 4.0), ("b", 6.0)])
        for key in (9.0, 1.0, 6.0, -3.0):
            heap.update_key("a", key)
            assert heap.key_of("a") == key
            assert heap.key_of("b") == 6.0
            heap.check_invariants()


class TestMaxHeap:
    def test_key_of_is_unnegated(self):
        """Keys read back as given, negative ones included, and the
        largest is on top."""
        heap = _heap([("a", -7.0), ("b", -2.0), ("c", -5.0)])
        assert heap.peek() == ("b", -2.0)
        assert heap.key_of("a") == -7.0
        assert [key for _, key in _drain(heap)] == [-2.0, -5.0, -7.0]

    def test_remove_returns_original_key(self):
        """``remove`` returns the item's current key as it was set."""
        heap = _heap([("a", 3.5), ("b", 1.0)])
        heap.update_key("a", -2.0)
        assert heap.remove("a") == -2.0
        assert heap.remove("b") == 1.0
        assert not heap


def _tie_trace(steps=60, seed=5):
    """The top item after each step of a seeded churn over 12 items
    with keys 0..3, so nearly every comparison is a tie.  Like a
    greedy cover pass, each step may also lower the top's key."""
    rng = random.Random(seed)
    heap = IndexedMaxHeap()
    trace = []
    for _ in range(steps):
        item, key = rng.randrange(12), rng.randrange(4)
        if item not in heap:
            heap.push_or_update(item, key)
        elif rng.random() < 0.25:
            heap.remove(item)
        else:
            heap.update_key(item, key)
        if heap and rng.random() < 0.3:
            top = heap.peek()[0]
            heap.update_key(top, heap.key_of(top) - 1)
        trace.append(heap.peek()[0] if heap else None)
    return trace


#: :func:`_tie_trace` as the negated min-heap facade that this heap
#: replaced gave it.  The greedy grid reads the top among equally
#: dense cells, so this order is part of every SE(Greedy) tree.
TIE_TRACE = [
    9, 9, 9, 9, 3, 3, 2, 2, 9, 9, 9, 3, 5, 5, 5, 5, 5, 1, 0, 0,
    3, 1, 7, 7, 8, 8, 8, 8, 8, 2, 2, 2, 2, 2, 6, 6, 6, 6, 7, 7,
    7, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 9, 2,
]


class TestTieOrder:
    """Among equal keys the array order decides the top: a sift swaps
    only on a strictly larger key, sift-down tries the left child
    first, and ``remove`` fills the hole with the last slot."""

    def test_an_equal_push_stays_below_the_root(self):
        heap = _heap([("a", 1), ("b", 1), ("c", 1)])
        assert heap.peek() == ("a", 1)

    def test_raising_to_an_equal_key_does_not_swap(self):
        heap = _heap([("a", 5), ("b", 3)])
        heap.update_key("b", 5)
        assert heap.peek() == ("a", 5)

    def test_sift_down_takes_the_left_child_on_a_tie(self):
        heap = _heap([("r", 9), ("x", 4), ("y", 4)])
        heap.update_key("r", 1)
        assert [item for item, _ in _drain(heap)] == ["x", "y", "r"]

    def test_sift_down_stops_at_an_equal_child(self):
        heap = _heap([("r", 9), ("x", 4), ("y", 2)])
        heap.update_key("r", 4)
        assert heap.peek() == ("r", 4)

    def test_remove_fills_the_hole_with_the_last_slot(self):
        heap = _heap((item, 1) for item in "abcdefg")
        heap.remove("b")
        assert [item for item, _ in _drain(heap)] \
            == ["a", "f", "e", "d", "c", "g"]

    def test_tie_heavy_churn_matches_the_recorded_trace(self):
        assert _tie_trace() == TIE_TRACE


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False), max_size=60))
def test_heapsort_property(values):
    heap = _heap(enumerate(values))
    heap.check_invariants()
    keys = [key for _, key in _drain(heap)]
    assert keys == sorted(values, reverse=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["push", "update", "remove"]),
                          st.integers(0, 30),
                          st.floats(min_value=-1e6, max_value=1e6,
                                    allow_nan=False)),
                max_size=120))
def test_random_operations_match_reference(ops):
    """Drive the heap with arbitrary ops against a dict reference model."""
    heap = IndexedMaxHeap()
    reference = {}
    for op, item, key in ops:
        if op == "push":
            heap.push_or_update(item, key)
            reference[item] = key
        elif op == "update" and item in reference:
            heap.update_key(item, key)
            reference[item] = key
        elif op == "remove" and item in reference:
            assert heap.remove(item) == reference.pop(item)
        if reference:
            top_item, top_key = heap.peek()
            assert top_key == max(reference.values())
            assert reference[top_item] == top_key
        assert len(heap) == len(reference)
    heap.check_invariants()
    for item, key in reference.items():
        assert item in heap
        assert heap.key_of(item) == key
    assert dict(_drain(heap)) == reference


def test_large_random_stress():
    rng = random.Random(42)
    heap = IndexedMaxHeap()
    reference = {}
    for _ in range(3000):
        action = rng.random()
        if action < 0.5 or not reference:
            item = rng.randrange(10000)
            key = float(rng.randrange(50))
            heap.push_or_update(item, key)
            reference[item] = key
        elif action < 0.75:
            item = rng.choice(list(reference))
            assert heap.remove(item) == reference.pop(item)
        else:
            item = rng.choice(list(reference))
            key = float(rng.randrange(50))
            heap.update_key(item, key)
            reference[item] = key
        if reference:
            assert heap.peek()[1] == max(reference.values())
    heap.check_invariants()
    assert dict(_drain(heap)) == reference


def test_package_exports_one_heap():
    """The grid's cells are sets and its heap is the one max-heap: no
    B+-tree and no min-heap are left in the package."""
    import repro.datastructures as datastructures
    assert "IndexedMaxHeap" in datastructures.__all__
    assert not {"BPlusTree", "IndexedMinHeap"} & set(datastructures.__all__)
    assert importlib.util.find_spec("repro.datastructures.bplustree") is None
