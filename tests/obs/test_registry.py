"""Metrics registry: instrument semantics + Prometheus exposition."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("frames_total", "frames")
        counter.inc()
        counter.inc(3)
        assert counter.value() == 4

    def test_negative_inc_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("c_total", "h").inc(-1)

    def test_labels(self):
        counter = Counter("faults_total", "h", ("kind",))
        counter.inc(kind="delay")
        counter.inc(2, kind="duplicate")
        assert counter.value(kind="duplicate") == 2
        with pytest.raises(ConfigurationError):
            counter.inc()  # missing the label

    def test_render(self):
        counter = Counter("faults_total", "injected faults", ("kind",))
        counter.inc(kind="delay")
        text = "\n".join(counter.render())
        assert "# HELP faults_total injected faults" in text
        assert "# TYPE faults_total counter" in text
        assert 'faults_total{kind="delay"} 1' in text


class TestGauge:
    def test_set_replaces_the_value(self):
        gauge = Gauge("in_flight", "h")
        gauge.set(5)
        gauge.set(4)
        assert gauge.value() == 4


class TestHistogram:
    def test_observe_buckets_sum_count(self):
        histogram = Histogram("lat", "h", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(5.55)
        text = "\n".join(histogram.render())
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_needs_a_bucket(self):
        with pytest.raises(ConfigurationError):
            Histogram("lat", "h", buckets=())


class TestRegistry:
    def test_idempotent_get(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "h")
        assert registry.counter("a_total") is first

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "h")
        with pytest.raises(ConfigurationError):
            registry.gauge("a_total")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "h", ("kind",))
        with pytest.raises(ConfigurationError):
            registry.counter("a_total", "h", ("other",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("bad name")
        with pytest.raises(ConfigurationError):
            registry.counter("ok_total", "h", ("bad-label",))

    def test_render_is_sorted_and_parseable(self):
        registry = MetricsRegistry()
        registry.gauge("z_gauge", "h").set(1)
        registry.counter("a_total", "h").inc()
        text = registry.render()
        assert text.index("a_total") < text.index("z_gauge")
        assert text.endswith("\n")
        # every sample line is "<series> <value>"
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            assert series
            float(value)

    def test_label_value_escaping(self):
        counter = Counter("c_total", "h", ("kind",))
        counter.inc(kind='we"ird\nvalue\\x')
        (line,) = [ln for ln in counter.render() if not ln.startswith("#")]
        assert '\\"' in line and "\\n" in line and "\\\\" in line
