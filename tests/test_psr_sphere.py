"""Unit tests for PSR tracking and sphere-of-replication accounting."""

from repro.core.psr import FuCorrespondenceTracker
from repro.core.sphere import SphereOfReplication
from repro.isa.instructions import FuClass


class TestFuCorrespondenceTracker:
    def test_same_unit_counted(self):
        tracker = FuCorrespondenceTracker()
        tracker.leading_retired((FuClass.INT, 3), 0)
        tracker.trailing_retired((FuClass.INT, 3), 0)
        assert tracker.stats.pairs == 1
        assert tracker.stats.same_unit == 1
        assert tracker.stats.same_half == 1

    def test_different_unit_counted(self):
        tracker = FuCorrespondenceTracker()
        tracker.leading_retired((FuClass.INT, 3), 0)
        tracker.trailing_retired((FuClass.INT, 7), 1)
        assert tracker.stats.pairs == 1
        assert tracker.stats.same_unit == 0
        assert tracker.stats.same_half == 0

    def test_pairs_matched_by_retirement_index(self):
        tracker = FuCorrespondenceTracker()
        tracker.leading_retired((FuClass.INT, 0), 0)
        tracker.leading_retired((FuClass.FP, 1), 1)
        tracker.trailing_retired((FuClass.INT, 0), 0)   # pairs with first
        tracker.trailing_retired((FuClass.FP, 2), 0)    # pairs with second
        assert tracker.stats.pairs == 2
        assert tracker.stats.same_unit == 1

    def test_trailing_ahead_stays_unpaired(self):
        """A trailing retirement with no leading record is unpaired, and
        the leading record that arrives later for its index never pairs."""
        tracker = FuCorrespondenceTracker()
        tracker.trailing_retired((FuClass.INT, 0), 0)   # index 0: no record
        tracker.leading_retired((FuClass.INT, 0), 0)    # index 0: too late
        tracker.leading_retired((FuClass.FP, 1), 1)     # index 1
        assert tracker.stats.pairs == 0
        tracker.trailing_retired((FuClass.FP, 1), 1)    # pairs with index 1
        assert tracker.stats.pairs == 1
        assert tracker.stats.same_unit == 1
        assert tracker.stats.same_half == 1

    def test_missing_fu_ignored(self):
        tracker = FuCorrespondenceTracker()
        tracker.leading_retired(None, 0)
        tracker.trailing_retired((FuClass.INT, 0), 0)
        assert tracker.stats.pairs == 0

    def test_fraction_properties(self):
        tracker = FuCorrespondenceTracker()
        assert tracker.stats.same_unit_fraction == 0.0
        for i in range(4):
            tracker.leading_retired((FuClass.INT, 0), 0)
        for i in range(4):
            tracker.trailing_retired((FuClass.INT, i % 2), 0)
        assert tracker.stats.same_unit_fraction == 0.5


class TestSphere:
    def test_counters(self):
        sphere = SphereOfReplication("test")
        sphere.record_input()
        sphere.record_input(3)
        sphere.record_comparison(matched=True)
        sphere.record_comparison(matched=False)
        sphere.record_forwarded()
        sphere.record_uncovered("lvq-ecc")
        summary = sphere.summary()
        assert summary["inputs_replicated"] == 4
        assert summary["outputs_compared"] == 2
        assert summary["mismatches"] == 1
        assert summary["outputs_forwarded"] == 1
        assert sphere.uncovered["lvq-ecc"] == 1
