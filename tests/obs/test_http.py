"""Exposition endpoint: scrape /metrics like Prometheus would."""

import importlib
import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (MetricsServer, PROMETHEUS_CONTENT_TYPE, Registry,
                       parse_prometheus)

#: Families the instrumented packages must register on import — the
#: same names the CI ``obs-smoke`` job asserts on a live scrape.
REQUIRED_FAMILIES = [
    "repro_serve_requests_total",
    "repro_serve_latency_seconds",
    "repro_serve_queue_depth",
    "repro_span_seconds",
    "repro_weight_quant_cache_total",
    "repro_codebook_cache",
    "repro_decode_lut_cache",
    "repro_scrub_passes_total",
]


@pytest.fixture()
def server():
    registry = Registry()
    registry.counter("t_requests_total", "Requests.", ("event",)).labels(
        event="ok").inc(2)
    registry.histogram("t_seconds", "Latency.",
                       buckets=(0.1, 1.0)).observe(0.5)
    srv = MetricsServer(registry)
    yield srv
    srv.close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.headers.get("Content-Type"), resp.read().decode()


class TestMetricsServer:
    def test_metrics_parses_as_prometheus(self, server):
        content_type, body = _get(server.url)
        assert content_type == PROMETHEUS_CONTENT_TYPE
        families = parse_prometheus(body)
        assert families["t_requests_total"]["type"] == "counter"
        assert families["t_seconds"]["type"] == "histogram"

    def test_root_serves_prometheus_too(self, server):
        _, body = _get(f"http://{server.host}:{server.port}/")
        assert "# TYPE t_requests_total counter" in body

    def test_metrics_json(self, server):
        content_type, body = _get(
            f"http://{server.host}:{server.port}/metrics.json")
        assert content_type == "application/json"
        data = json.loads(body)
        assert data["t_requests_total"]["samples"][0]["value"] == 2.0

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(f"http://{server.host}:{server.port}/nope")
        assert exc.value.code == 404

    def test_close_is_idempotent_via_context_manager(self):
        with MetricsServer(Registry()) as srv:
            _get(srv.url)
        # closed on __exit__; a fresh scrape must now fail
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(srv.url)


class TestGlobalRegistryExposition:
    def test_required_families_scrapable(self):
        """Importing the instrumented packages registers every family the
        obs-smoke job scrapes for, on the process-global registry."""
        for module in ("repro.nn.quantize", "repro.resilience.scrub",
                       "repro.serve.stats"):
            importlib.import_module(module)
        from repro import obs

        with MetricsServer(obs.REGISTRY) as srv:
            _, body = _get(srv.url)
        families = parse_prometheus(body)
        missing = [name for name in REQUIRED_FAMILIES
                   if name not in families]
        assert not missing, f"families absent from scrape: {missing}"
