"""The A/B helper behind every timed gate (``benchmarks/ab.py``), on
scripted samples: no clock is read."""

import itertools

from benchmarks import ab
from repro.rng import fresh_rng


def scripted(values, log=None, name=None):
    """A sampler returning ``values`` in turn, logging its calls."""
    values = itertools.cycle(values)

    def sample():
        if log is not None:
            log.append(name)
        return next(values)
    return sample


def test_clear_pass_resolves_at_the_first_rounds():
    result = ab.compare(scripted([1.0]), scripted([1.4, 1.5, 1.6]),
                        at_most=2.0)
    assert result.passed and len(result.stats) == 7
    assert result.estimate == 1.5 and result.interval == (1.4, 1.6)


def test_clear_fail():
    result = ab.compare(scripted([1.0]), scripted([1.2, 1.3]), at_least=2.0)
    assert result.verdict == "fail" and result.interval[1] < 2.0


def test_unresolved_at_the_cap_fails_and_names_its_interval():
    result = ab.compare(scripted([1.0]), scripted([1.9, 2.1]), at_most=2.0)
    assert result.verdict == "unresolved" and not result.passed
    assert len(result.stats) == ab.MAX_ROUNDS
    low, high = result.interval
    assert low < 2.0 < high
    assert str(result).endswith(
        f"[{low:.4g}, {high:.4g}] over {ab.MAX_ROUNDS} rounds): "
        "unresolved against <= 2.0")


def test_order_flips_every_round_and_warmup_is_left_out():
    log = []
    result = ab.compare(scripted([100.0, 1.0, 1.0, 1.0], log, "a"),
                        scripted([200.0, 2.0, 2.0, 2.0], log, "b"),
                        warmup=1, rounds=3)
    assert log == ["a", "b", "a", "b", "b", "a", "a", "b"]
    assert result.a == [1.0] * 3 and result.b == [2.0] * 3
    assert result.verdict is None and result.bound is None


def test_same_samples_give_the_same_interval():
    def run():
        return ab.compare(scripted([1.0]),
                          scripted([1.0, 1.3, 0.9, 1.7, 1.1, 1.2, 1.05]))
    first, second = run(), run()
    assert first.record() == second.record()
    assert first.interval[0] < first.estimate < first.interval[1]


def test_interval_is_the_binomial_order_statistics():
    # P(Bin(15, 1/2) <= 3) = 576/32768 <= 2.5% < P(<= 4)
    assert ab.median_interval(range(1, 16)) == (4, 12, 1 - 2 * 576 / 32768)
    # 7 values reach 2.5% only with their whole range; 3 never do
    assert ab.median_interval(range(7)) == (0, 6, 1 - 2 / 128)
    assert ab.median_interval([3, 1, 2]) == (1, 3, 0.75)


def test_a_true_value_on_the_bound_passes_at_most_one_run_in_20():
    rng = fresh_rng(0)
    for bound in ({"at_most": 1.0}, {"at_least": 1.0}):
        passes = 0
        for _ in range(200):
            noise = iter(rng.normal(1.0, 0.2, size=ab.MAX_ROUNDS + 1))
            passes += ab.compare(scripted([1.0]), lambda: next(noise),
                                 **bound).passed
        assert passes <= 10, (bound, passes)
