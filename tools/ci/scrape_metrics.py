"""obs smoke: serve a few requests with a live ``/metrics`` endpoint,
scrape it and check the exposition parses and carries the required
families.

Run:  PYTHONPATH=src python tools/ci/scrape_metrics.py
"""

import urllib.request

from repro.obs import parse_prometheus
from repro.serve import InferenceServer, ModelPool
from repro.serve.bench import build_requests

pool = ModelPool()
requests = build_requests("resnet", 8, seed=0)
with InferenceServer(pool, max_batch=4, max_wait_ms=5.0,
                     metrics_port=0) as server:
    futures = [server.submit(r.kind, r.payload) for r in requests]
    for f in futures:
        f.result(timeout=300.0)
    with urllib.request.urlopen(server.metrics.url,
                                timeout=30) as resp:
        body = resp.read().decode()
families = parse_prometheus(body)   # raises on invalid text
required = [
    "repro_serve_requests_total", "repro_serve_batches_total",
    "repro_serve_batch_size", "repro_serve_latency_seconds",
    "repro_serve_queue_wait_seconds", "repro_serve_queue_depth",
    "repro_span_seconds", "repro_pool_hits_total",
    "repro_weight_quant_cache_total", "repro_codebook_cache",
    "repro_decode_lut_cache",
]
missing = [name for name in required if name not in families]
assert not missing, f"scrape missing families: {missing}"
print(f"obs smoke OK: {len(families)} families scraped")
