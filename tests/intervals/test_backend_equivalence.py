"""Pure-vs-columnar backend equivalence, as randomised property tests.

Every interval construct must return *byte-identical* results (same pairs,
same equality, same hash) whichever kernel backend is active. The columnar
dispatch threshold is forced to 0 for the duration of this module so that
the tiny randomised inputs actually reach the numpy kernels instead of
taking the small-input pure fast path.

The event-stream half checks the searchsorted window primitives
(``count_in_window``, ``slice_window``) against their
definitional per-event equivalents.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.intervals import (
    IntervalList,
    intersect_all,
    relative_complement_all,
    union_all,
    use_backend,
)
from repro.intervals.operations import complement_within, force_columnar_min
from repro.logic.parser import parse_term
from repro.rtec import Event, EventStream


@pytest.fixture(autouse=True)
def _always_hit_the_kernels():
    previous = force_columnar_min(0)
    yield
    force_columnar_min(previous)


def _pairs(max_coord=50):
    # Small coordinate range on purpose: touching endpoints, duplicates and
    # zero-length intervals (length 0) must all come up often.
    return st.tuples(st.integers(0, max_coord), st.integers(0, 6)).map(
        lambda p: (p[0], p[0] + p[1])
    )


def interval_lists(max_size=12):
    return st.lists(_pairs(), max_size=max_size).map(IntervalList)


def _both_backends(op):
    with use_backend("pure"):
        pure = op()
    with use_backend("columnar"):
        columnar = op()
    assert columnar.as_pairs() == pure.as_pairs()
    assert columnar == pure
    assert hash(columnar) == hash(pure)
    return pure


class TestIntervalKernelEquivalence:
    @settings(deadline=None)
    @given(st.lists(interval_lists(), max_size=5))
    def test_union_all(self, lists):
        _both_backends(lambda: union_all(lists))

    @settings(deadline=None)
    @given(st.lists(interval_lists(), min_size=1, max_size=4))
    def test_intersect_all(self, lists):
        _both_backends(lambda: intersect_all(lists))

    @settings(deadline=None)
    @given(interval_lists(), st.lists(interval_lists(), max_size=4))
    def test_relative_complement_all(self, base, lists):
        _both_backends(lambda: relative_complement_all(base, lists))

    @settings(deadline=None)
    @given(st.integers(0, 50), st.integers(0, 6), interval_lists())
    def test_complement_within(self, start, length, covered):
        # length 0 is the zero-length window (a single timepoint).
        _both_backends(lambda: complement_within((start, start + length), covered))

    @settings(deadline=None)
    @given(st.lists(interval_lists(), min_size=2, max_size=4))
    def test_mixed_representations(self, lists):
        """Array-materialised inputs behave exactly like object-form ones."""
        materialised = [
            IntervalList.from_arrays(*il.columns()) if index % 2 else il
            for index, il in enumerate(lists)
        ]
        expected = _both_backends(lambda: union_all(lists))
        assert _both_backends(lambda: union_all(materialised)) == expected


def _event(time, term):
    return Event(time, parse_term(term))


def _streams():
    item = st.tuples(
        st.integers(0, 80),
        st.sampled_from(["speed", "turn"]),
        st.integers(0, 3),
        st.integers(-5, 5),
    )
    return st.lists(item, max_size=30).map(
        lambda items: EventStream(
            _event(t, "%s(v%d, %d)" % (functor, vid, value))
            for t, functor, vid, value in items
        )
    )


class TestEventStreamEquivalence:
    @settings(deadline=None)
    @given(_streams(), st.integers(-5, 90), st.integers(-5, 90))
    def test_count_in_window(self, stream, start, end):
        expected = sum(1 for e in stream if start < e.time <= end)
        assert stream.count_in_window(start, end) == expected

    @settings(deadline=None)
    @given(_streams(), st.integers(-5, 90), st.integers(-5, 90))
    def test_slice_window_matches_filtered_rebuild(self, stream, start, end):
        sliced = stream.slice_window(start, end)
        rebuilt = EventStream(e for e in stream if start < e.time <= end)
        assert list(sliced) == list(rebuilt)
        assert len(sliced) == len(rebuilt)
        assert sliced.min_time == rebuilt.min_time
        assert sliced.max_time == rebuilt.max_time
        for functor in ("speed", "turn"):
            assert list(sliced.events_in_window(functor, 2, -10, 1000)) == list(
                rebuilt.events_in_window(functor, 2, -10, 1000)
            )

    @settings(deadline=None)
    @given(_streams(), st.integers(-5, 90))
    def test_slice_window_unbounded(self, stream, start):
        sliced = stream.slice_window(start)
        assert list(sliced) == [e for e in stream if e.time > start]
