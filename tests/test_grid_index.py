"""Tests for the grid density index (greedy selection substrate)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructures import GridDensityIndex


def _cluster(center, count, spread, rng):
    cx, cy = center
    return {
        int(1000 * cx) + i: (cx + rng.uniform(-spread, spread),
                             cy + rng.uniform(-spread, spread))
        for i in range(count)
    }


class TestConstruction:
    def test_invalid_cell_width_rejected(self):
        with pytest.raises(ValueError):
            GridDensityIndex({}, cell_width=0.0)
        with pytest.raises(ValueError):
            GridDensityIndex({}, cell_width=-1.0)
        with pytest.raises(ValueError):
            GridDensityIndex({}, cell_width=math.inf)

    def test_empty_index(self):
        index = GridDensityIndex({}, cell_width=1.0)
        assert not index
        assert len(index) == 0
        with pytest.raises(IndexError):
            index.pick_from_densest()

    def test_duplicate_id_rejected(self):
        index = GridDensityIndex({1: (0.0, 0.0)}, cell_width=1.0)
        with pytest.raises(ValueError):
            index.insert(1, 5.0, 5.0)

    def test_len_contains_and_cells_track_points(self):
        index = GridDensityIndex({1: (-0.5, -0.5), 2: (-0.25, -0.75),
                                  3: (0.5, 0.5)}, cell_width=1.0)
        assert len(index) == 3
        assert 2 in index and 4 not in index
        assert index.non_empty_cells() == 2
        assert index.densest_cell() == (-1, -1)
        index.insert(4, 0.75, 0.25)
        assert len(index) == 4 and 4 in index
        assert index.non_empty_cells() == 2
        index.check_invariants()

    def test_cell_of_floor_semantics(self):
        index = GridDensityIndex({}, cell_width=2.0)
        assert index.cell_of(0.0, 0.0) == (0, 0)
        assert index.cell_of(1.99, 1.99) == (0, 0)
        assert index.cell_of(2.0, 0.0) == (1, 0)
        assert index.cell_of(-0.01, 0.0) == (-1, 0)


class TestDensestSelection:
    def test_densest_cell_wins(self):
        rng = random.Random(0)
        points = {}
        points.update(_cluster((0.5, 0.5), 3, 0.1, rng))
        points.update(_cluster((10.5, 10.5), 8, 0.1, rng))
        index = GridDensityIndex(points, cell_width=1.0, rng=rng)
        assert index.densest_cell() == index.cell_of(10.5, 10.5)
        picked = index.pick_from_densest()
        assert points[picked][0] > 5  # from the dense cluster

    def test_pick_does_not_remove(self):
        index = GridDensityIndex({1: (0.5, 0.5)}, cell_width=1.0)
        assert index.pick_from_densest() == 1
        assert 1 in index

    def test_density_order_flips_after_removals(self):
        rng = random.Random(1)
        points = {}
        points.update(_cluster((0.5, 0.5), 6, 0.1, rng))
        points.update(_cluster((10.5, 10.5), 4, 0.1, rng))
        index = GridDensityIndex(points, cell_width=1.0, rng=rng)
        dense = index.cell_of(0.5, 0.5)
        assert index.densest_cell() == dense
        # Remove points from the dense cluster until the other one wins.
        dense_ids = [pid for pid, (x, _) in points.items() if x < 5]
        index.remove_all(dense_ids[:3])
        assert index.densest_cell() == index.cell_of(10.5, 10.5)
        index.check_invariants()

    def test_insert_raises_a_cell_to_densest(self):
        index = GridDensityIndex({1: (0.5, 0.5), 2: (0.6, 0.6),
                                  3: (5.5, 5.5)}, cell_width=1.0)
        assert index.densest_cell() == (0, 0)
        index.insert(4, 5.2, 5.2)
        index.insert(5, 5.8, 5.8)
        assert index.densest_cell() == (5, 5)
        index.check_invariants()

    def test_a_cell_that_draws_level_does_not_overtake(self):
        """Ties go to the cell already on top: a cell whose count only
        catches up stays below it."""
        index = GridDensityIndex({1: (0.5, 0.5), 2: (0.6, 0.6),
                                  3: (5.5, 5.5)}, cell_width=1.0)
        index.insert(4, 5.2, 5.2)
        assert index.densest_cell() == (0, 0)
        index.remove(1)
        assert index.densest_cell() == (5, 5)


class TestRemoval:
    def test_remove_missing_raises(self):
        index = GridDensityIndex({}, cell_width=1.0)
        with pytest.raises(KeyError):
            index.remove(99)

    def test_remove_all_skips_absent(self):
        index = GridDensityIndex({1: (0, 0), 2: (0, 0)}, cell_width=1.0)
        index.remove_all([1, 99, 2])
        assert len(index) == 0
        assert index.non_empty_cells() == 0

    def test_empty_cell_dropped(self):
        index = GridDensityIndex({1: (0.5, 0.5), 2: (5.5, 5.5)}, cell_width=1.0)
        assert index.non_empty_cells() == 2
        index.remove(1)
        assert index.non_empty_cells() == 1
        index.check_invariants()

    def test_reinsert_after_removal_moves_the_point(self):
        index = GridDensityIndex({1: (0.5, 0.5), 2: (0.5, 0.5)},
                                 cell_width=1.0)
        index.remove(1)
        index.insert(1, 5.5, 5.5)
        index.insert(3, 5.5, 5.5)
        assert index.densest_cell() == (5, 5)
        assert index.non_empty_cells() == 2
        index.check_invariants()

    def test_removed_point_is_never_picked(self):
        index = GridDensityIndex({pid: (0.5, 0.5) for pid in range(10)},
                                 cell_width=1.0, rng=random.Random(8))
        index.remove_all(range(0, 10, 2))
        assert {index.pick_from_densest() for _ in range(50)} \
            == {1, 3, 5, 7, 9}


class TestPickOrder:
    """A pick draws ``rng.randrange`` once over the densest cell's ids
    in ascending order, the in-order scan of the B+-tree that used to
    hold them; greedy trees depend on that draw."""

    IDS = [42, 7, 19, 3, 88, 25]

    def test_pick_indexes_the_ascending_cell_ids(self):
        index = GridDensityIndex({pid: (0.5, 0.5) for pid in self.IDS},
                                 cell_width=1.0, rng=random.Random(4))
        draws = random.Random(4)
        ordered = sorted(self.IDS)
        for _ in range(20):
            assert index.pick_from_densest() \
                == ordered[draws.randrange(len(ordered))]

    def test_insertion_order_does_not_change_the_picks(self):
        picks = []
        for ids in (self.IDS, self.IDS[::-1]):
            index = GridDensityIndex({pid: (0.5, 0.5) for pid in ids},
                                     cell_width=1.0, rng=random.Random(6))
            picks.append([index.pick_from_densest() for _ in range(20)])
        assert picks[0] == picks[1]

    def test_picks_follow_the_survivors_after_removals(self):
        index = GridDensityIndex({pid: (0.5, 0.5) for pid in self.IDS},
                                 cell_width=1.0, rng=random.Random(9))
        index.remove_all([19, 88])
        draws = random.Random(9)
        survivors = [3, 7, 25, 42]
        for _ in range(12):
            assert index.pick_from_densest() \
                == survivors[draws.randrange(len(survivors))]


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(0, 500),
                       st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                       max_size=80),
       st.floats(0.1, 50.0),
       st.data())
def test_random_workload_consistency(points, width, data):
    index = GridDensityIndex(points, cell_width=width)
    index.check_invariants()
    remaining = dict(points)
    to_remove = data.draw(st.lists(st.sampled_from(sorted(points)), unique=True)
                          if points else st.just([]))
    for pid in to_remove:
        index.remove(pid)
        del remaining[pid]
    index.check_invariants()
    assert len(index) == len(remaining)
    if remaining:
        # Densest cell must actually have maximal population.
        counts = {}
        for pid, (x, y) in remaining.items():
            counts.setdefault(index.cell_of(x, y), []).append(pid)
        best = index.densest_cell()
        assert len(counts[best]) == max(len(v) for v in counts.values())
        assert index.pick_from_densest() in counts[best]


def _lattice_trace(side=6, per_cell=4, others=3, seeds=(7, 11, 13)):
    """Every ``densest_cell()`` and ``pick_from_densest()`` of a
    tie-heavy lattice drained in seeded removal batches.

    A ``side x side`` lattice of unit cells, ``per_cell`` points each,
    so every cell starts at the same count and most steps choose among
    ties.  Ids are shuffled over the slots and inserted in a shuffled
    order; each step reads the densest cell and a pick from it, then
    removes the pick and ``others`` seeded others, as a greedy cover
    pass does.
    """
    layout_seed, pick_seed, batch_seed = seeds
    layout = random.Random(layout_seed)
    slots = list(range(side * side * per_cell))
    layout.shuffle(slots)
    points = {}
    for pid, slot in enumerate(slots):
        cell, k = divmod(slot, per_cell)
        cx, cy = divmod(cell, side)
        points[pid] = (cx + 0.1 + 0.8 * k / per_cell, cy + 0.5)
    order = list(points)
    layout.shuffle(order)
    index = GridDensityIndex({pid: points[pid] for pid in order},
                             cell_width=1.0, rng=random.Random(pick_seed))
    batches = random.Random(batch_seed)
    live = set(points)
    trace = []
    while index:
        cell = index.densest_cell()
        picked = index.pick_from_densest()
        trace.append((cell, picked))
        others_now = batches.sample(sorted(live - {picked}),
                                    min(len(live) - 1, others))
        batch = [picked] + others_now
        index.remove_all(batch)
        live.difference_update(batch)
        index.check_invariants()
    return trace


#: Every densest cell and pick of the lattice, recorded before the
#: cells became sets (B+-tree cells under a negated min-heap).  The
#: heap's tie order picks among equally dense cells and so is part of
#: every SE(Greedy) tree; a lowest-cell tie rule or a sift that swaps
#: on equal keys reads another cell from the first step on.
LATTICE_TRACE = [
    ((4, 5), 117), ((4, 2), 129), ((0, 0), 54), ((5, 0), 87),
    ((3, 2), 93), ((2, 1), 133), ((3, 5), 31), ((5, 2), 19),
    ((0, 2), 132), ((3, 3), 61), ((5, 1), 55), ((3, 0), 70),
    ((1, 4), 9), ((1, 5), 91), ((2, 5), 125), ((2, 5), 108),
    ((3, 0), 121), ((0, 2), 126), ((4, 5), 113), ((5, 0), 25),
    ((3, 5), 136), ((3, 3), 16), ((1, 5), 76), ((4, 1), 2),
    ((0, 4), 34), ((0, 4), 128), ((0, 2), 71), ((2, 5), 82),
    ((0, 5), 48), ((3, 0), 116), ((3, 4), 29), ((1, 4), 80),
    ((4, 5), 110), ((1, 5), 5), ((1, 1), 41), ((2, 4), 57),
]


def test_tie_order_matches_the_recorded_lattice_trace():
    assert _lattice_trace() == LATTICE_TRACE


#: Three more lattices (side, points per cell, others removed per step,
#: seeds), their traces recorded alongside ``LATTICE_TRACE``.
OTHER_LATTICES = {
    "4x4-3-per-cell": (
        dict(side=4, per_cell=3, others=2, seeds=(1, 2, 3)),
        [((0, 3), 3), ((0, 2), 37), ((1, 3), 18), ((3, 3), 11),
         ((0, 0), 6), ((2, 1), 41), ((1, 2), 26), ((3, 1), 31),
         ((2, 2), 42), ((1, 1), 1), ((3, 3), 2), ((3, 0), 15),
         ((1, 0), 17), ((1, 2), 20), ((3, 0), 46), ((1, 1), 19)],
    ),
    "5x5-2-per-cell": (
        dict(side=5, per_cell=2, others=1, seeds=(17, 19, 23)),
        [((3, 3), 5), ((4, 1), 26), ((1, 1), 2), ((1, 2), 38),
         ((2, 1), 46), ((4, 0), 30), ((3, 0), 12), ((4, 4), 36),
         ((0, 4), 15), ((0, 0), 39), ((0, 1), 17), ((0, 3), 40),
         ((4, 3), 21), ((3, 1), 34), ((1, 4), 47), ((3, 4), 29),
         ((3, 4), 9), ((1, 2), 7), ((3, 3), 27), ((2, 3), 20),
         ((0, 3), 25), ((3, 0), 22), ((1, 1), 4), ((2, 1), 23),
         ((1, 4), 45)],
    ),
    "3x3-5-per-cell": (
        dict(side=3, per_cell=5, others=2, seeds=(29, 31, 37)),
        [((1, 1), 0), ((0, 2), 25), ((0, 0), 1), ((2, 0), 18),
         ((0, 1), 9), ((0, 1), 8), ((1, 0), 20), ((1, 2), 12),
         ((0, 0), 32), ((0, 0), 43), ((2, 1), 14), ((0, 2), 13),
         ((1, 2), 35), ((1, 2), 17), ((2, 0), 2)],
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_LATTICES))
def test_tie_order_matches_other_recorded_lattices(name):
    config, trace = OTHER_LATTICES[name]
    assert _lattice_trace(**config) == trace
