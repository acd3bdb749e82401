"""resilience smoke: the tiny CLI campaign persisted a result with an
exp_bias cell and at least one finite cell per family.

Run after the campaign, with the same ``REPRO_CACHE_DIR``:
    python tools/ci/check_tiny_campaign.py
"""

import json, math, os
path = os.path.join(os.environ["REPRO_CACHE_DIR"],
                    "results", "resilience_tiny.json")
assert os.path.exists(path), "campaign result not persisted"
result = json.load(open(path))
for family in ("transformer", "seq2seq", "resnet"):
    cells = result["models"][family]["formats"]
    assert cells["adaptivfloat"]["exp_bias"] is not None, family
    finite = 0
    for fmt, fields in cells.items():
        for key, cell in fields.items():
            if cell is None:
                continue
            assert 0.0 <= cell["sdc_rate"] <= 1.0, (family, fmt, key)
            scores = (cell["clean_score"], cell["mean_score"])
            finite += all(s is not None and math.isfinite(s)
                          for s in scores)
    assert finite, f"no finite cell for {family}"
print("resilience smoke OK")
