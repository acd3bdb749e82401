"""resilience smoke: the ``--jobs 2`` grid (copied to
``campaign_jobs2.json``) equals the in-process ``--jobs 1`` grid,
timing aside.

Run after both campaigns, with the same ``REPRO_CACHE_DIR``:
    python tools/ci/check_campaign_jobs.py
"""

import json, os
def strip(obj):
    if isinstance(obj, dict):
        return {k: strip(v) for k, v in obj.items() if k != "timing"}
    return obj
workers = json.load(open("campaign_jobs2.json"))
path = os.path.join(os.environ["REPRO_CACHE_DIR"],
                    "results", "resilience_tiny.json")
in_process = json.load(open(path))
assert strip(workers) == strip(in_process), \
    "--jobs 2 and --jobs 1 campaign grids differ"
print("jobs 2 == jobs 1 (timing aside)")
