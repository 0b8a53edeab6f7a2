"""Unit tests for :class:`~repro.core.residency.Residency`, the one LRU
behind the service's terrains, the tiled store's tiles and the page
pool's pages: LRU order, the pinned bound, the reconciling ledger and
the close-on-drop rule."""

from repro.core.residency import Counts, Residency


class _Closable:
    def __init__(self):
        self.closed = 0

    def close(self):
        self.closed += 1


def test_lru_order_and_ledger_reconcile():
    residency = Residency(2)
    assert residency.get("a") is None
    residency.admit("a", 1, nbytes=10)
    residency.admit("b", 2, nbytes=20)
    assert residency.get("a") == 1  # "a" becomes most recent
    residency.admit("c", 3, nbytes=30)  # evicts "b", the oldest
    assert residency.keys() == ["a", "c"]
    assert (residency.loads, residency.evictions, residency.hits) == (3, 1, 1)
    assert residency.loads - residency.evictions == len(residency)
    assert residency.resident_bytes == 40
    assert residency.peak_resident_bytes == 40


def test_peek_counts_nothing_and_keeps_order():
    residency = Residency(2)
    residency.admit("a", 1)
    residency.admit("b", 2)
    assert residency.peek("a") == 1
    assert residency.peek("z") is None
    assert residency.hits == 0
    residency.admit("c", 3)
    assert residency.keys() == ["b", "c"]


def test_pinned_entries_count_toward_the_bound_but_never_leave():
    pins = {"p"}
    residency = Residency(2, pinned=pins.__contains__)
    residency.admit("p", 0)
    residency.admit("a", 1)
    residency.admit("b", 2)  # "p" is oldest but pinned: "a" goes
    assert residency.keys() == ["p", "b"]
    pins.add("b")
    residency.admit("c", 3)  # everything pinned: the bound overshoots
    assert residency.keys() == ["p", "b", "c"]
    assert residency.loads - residency.evictions == len(residency)


def test_every_drop_closes_and_counts():
    counts = {key: Counts() for key in "abc"}
    values = {key: _Closable() for key in "abc"}
    residency = Residency(1, counts=counts.__getitem__)
    residency.admit("a", values["a"])
    residency.admit("b", values["b"])  # LRU eviction
    assert values["a"].closed == 1
    assert residency.drop("b") is True  # explicit drop
    assert residency.drop("b") is False
    assert values["b"].closed == 1
    residency.admit("c", values["c"])
    residency.get("c")
    residency.clear()  # clear drops the rest
    assert values["c"].closed == 1
    assert len(residency) == 0
    assert residency.loads == residency.evictions == 3
    assert residency.resident_bytes == 0
    assert vars(counts["c"]) == {"loads": 1, "evictions": 1, "hits": 1}
    assert sum(c.loads for c in counts.values()) == residency.loads


def test_unbounded_never_evicts():
    residency = Residency()
    for key in range(100):
        residency.admit(key, key, nbytes=1)
    assert residency.evictions == 0
    assert residency.peak_resident_bytes == 100
