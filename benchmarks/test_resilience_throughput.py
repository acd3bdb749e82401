"""Fault-injection trial-loop throughput: naive reference vs TrialEngine.

``repro.resilience.campaign.measure_injection_throughput`` times the
machinery the engine accelerates — the clean context's install step
(fault synthesis, installing the corrupted tensor, and the detection
scan), the same step the campaign's trial loop runs — with the scoring
work (probe forward + task evaluation, identical in both paths)
excluded.  The gate test at the bottom runs in CI as a regression
tripwire: the engine loop must stay at least 3x the naive loop's
trials/sec *and* install byte-identical faulty tensors (per-trial
checksums).
"""

import pytest

from benchmarks import ab
from repro.experiments.common import trained_model
from repro.resilience.campaign import measure_injection_throughput

GATE_TRIALS = 96
MIN_SPEEDUP = 3.0


@pytest.fixture(scope="module", autouse=True)
def tiny_checkpoint():
    # Warm the FP32 checkpoint so it never trains inside a timed region.
    trained_model("transformer", "tiny")


def trial_loop_speedup(min_speedup, **config):
    """Engine (A) against naive (B) trial-loop wall clock, with per-trial
    fault checksums, gated at ``min_speedup``; returns the comparison
    and the last engine and naive records."""
    runs = {}

    def loop(engine):
        def sample():
            runs[engine] = measure_injection_throughput(
                engine=engine, checksums=True, **config)
            return runs[engine]["wall_time_s"]
        return sample

    comparison = ab.compare(loop(True), loop(False), at_least=min_speedup)
    return comparison, runs[True], runs[False]


def test_trial_loop_speedup_gate():
    """CI tripwire (runs under --benchmark-disable): the engine trial
    loop must be >=3x the naive loop and install identical faults."""
    speedup, engine, naive = trial_loop_speedup(
        MIN_SPEEDUP, profile="tiny", trials=GATE_TRIALS, seed=0)
    assert engine["checksums"] == naive["checksums"]
    assert engine["flips_total"] == naive["flips_total"]
    assert engine["findings_total"] == naive["findings_total"]
    assert speedup.passed, (
        f"trial-engine speedup {speedup} (engine "
        f"{engine['trials_per_sec']:.0f}/s vs naive "
        f"{naive['trials_per_sec']:.0f}/s in the last round)")
