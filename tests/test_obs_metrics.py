"""Metrics registry: histogram accuracy, snapshot consistency, and the
ServiceCounters tear-freedom regression test (8 writer threads hammer
invariant-preserving atomic updates while readers assert the lifecycle
invariant never appears torn)."""

import pickle
import random
import threading

import pytest

from repro.obs.metrics import (SERVICE_COUNTER_FIELDS, MetricsRegistry,
                               ServiceCounters, bucket_edges, bucket_index,
                               quantile_oracle, registry)


class TestCounterGauge:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 5

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("g")
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == pytest.approx(11.5)

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")

    def test_default_registry_is_process_wide(self):
        assert registry() is registry()


class TestHistogram:
    def test_bucket_edges_cover_value(self):
        for value in (1e-6, 0.004, 0.7, 1.0, 3.0, 1234.5):
            low, high = bucket_edges(bucket_index(value))
            assert low < value <= high * (1 + 1e-12)

    def test_quantiles_within_relative_error_bound(self):
        """Log-bucket estimates stay within ~4.5% of the exact
        nearest-rank quantile (the documented half-bucket bound)."""
        rng = random.Random(7)
        values = [10 ** rng.uniform(-4, 1) for _ in range(5000)]
        reg = MetricsRegistry()
        hist = reg.histogram("latency")
        for value in values:
            hist.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = quantile_oracle(values, q)
            estimate = hist.quantile(q)
            assert abs(estimate - exact) / exact < 0.045, (
                f"p{q * 100:.0f}: estimate {estimate} vs exact {exact}")

    def test_zeros_land_in_dedicated_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        for _ in range(9):
            hist.observe(0.0)
        hist.observe(5.0)
        assert hist.count == 10
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) == pytest.approx(5.0, rel=0.045)

    def test_quantiles_clamped_to_observed_range(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        hist.observe(3.0)
        for q in (0.5, 0.9, 0.99):
            assert hist.quantile(q) == pytest.approx(3.0)

    def test_empty_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        full = reg.snapshot()["histograms"]["h"]
        assert full["count"] == 0
        assert full["p50"] == 0.0

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(1.5)
        hist = reg.histogram("c")
        hist.observe(0.25)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"b": 1.5}
        entry = snap["histograms"]["c"]
        assert entry["count"] == 1
        assert entry["min"] == entry["max"] == 0.25
        assert set(entry) == {"count", "sum", "min", "max",
                              "p50", "p90", "p99"}


class TestServiceCounters:
    def test_zero_arg_construction_and_fields(self):
        counters = ServiceCounters()
        assert counters.to_dict() == {name: 0
                                      for name in SERVICE_COUNTER_FIELDS}
        assert counters.accepted == 0
        assert counters.consistent()

    def test_atomic_add_and_accessors(self):
        counters = ServiceCounters()
        counters.add(accepted=1, cache_hits=1, completed=1)
        assert counters.accepted == 1
        assert counters.cache_hits == 1
        assert counters.consistent()

    def test_unknown_and_negative_rejected(self):
        counters = ServiceCounters()
        with pytest.raises(TypeError):
            counters.add(bogus=1)
        with pytest.raises(TypeError):
            ServiceCounters(bogus=1)
        with pytest.raises(ValueError):
            counters.add(accepted=-1)

    def test_fields_are_read_only(self):
        """A stray `counters.accepted += 1` must fail loudly, not race."""
        counters = ServiceCounters()
        with pytest.raises(AttributeError):
            counters.accepted = 5

    def test_pickle_round_trip(self):
        counters = ServiceCounters(accepted=3, completed=2, failed=1)
        clone = pickle.loads(pickle.dumps(counters))
        assert clone == counters
        assert clone.to_dict() == counters.to_dict()
        clone.add(accepted=1)  # the re-created lock works
        assert clone.accepted == 4

    def test_repr_and_eq(self):
        counters = ServiceCounters(accepted=1)
        assert "accepted=1" in repr(counters)
        assert counters == ServiceCounters(accepted=1)
        assert counters != ServiceCounters()

    def test_invariant_never_tears_under_hammer(self):
        """Regression test for the torn-read race in `/metrics`.

        8 writer threads apply invariant-preserving atomic groups
        (accepted goes up in the same add() as its settlement field);
        2 reader threads snapshot via to_dict() the whole time and
        assert accepted == completed + failed + cancelled in every
        snapshot.  Per-field reads (the old dataclass shape) tear
        within milliseconds under this load.
        """
        counters = ServiceCounters()
        stop = threading.Event()
        torn = []

        settlements = (dict(accepted=1, completed=1),
                       dict(accepted=1, failed=1),
                       dict(accepted=1, cancelled=1),
                       dict(accepted=1, completed=1, cache_hits=1))

        def writer(index):
            deltas = settlements[index % len(settlements)]
            for _ in range(3000):
                counters.add(**deltas)

        def reader():
            while not stop.is_set():
                snap = counters.to_dict()
                if snap["accepted"] != (snap["completed"] + snap["failed"]
                                        + snap["cancelled"]):
                    torn.append(snap)
                    return

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer, args=(i,))
                   for i in range(8)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()

        assert not torn, f"torn snapshot observed: {torn[0]}"
        final = counters.to_dict()
        assert final["accepted"] == 8 * 3000
        assert counters.consistent()


class TestQuantileOracle:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert quantile_oracle(values, 0.5) == 2.0
        assert quantile_oracle(values, 0.99) == 4.0
        assert quantile_oracle([], 0.5) == 0.0
