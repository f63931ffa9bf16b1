"""Unit tests of the benchmark's own helpers and output checks.

    python -m pytest perfbench/tests
"""
import math
import statistics

import pytest

from stats import tail, tts99
from workloads import CircuitNor, Factor, Multiply


def test_tts99_certain_hit_is_one_shot():
    assert tts99(0.25, 1.0) == 0.25


def test_tts99_never_hit_is_unreachable():
    assert tts99(0.25, 0.0) is None


def test_tts99_follows_the_repeat_formula():
    assert tts99(2.0, 0.5) == pytest.approx(2.0 * math.log(0.01) / math.log(0.5))


def test_tts99_needs_at_least_one_shot():
    assert tts99(2.0, 0.995) == 2.0


@pytest.mark.parametrize("t_shot, p_hit", [(0.0, 0.5), (-1.0, 0.5), (math.inf, 0.5),
                                           (1.0, -0.1), (1.0, 1.5), (1.0, math.nan)])
def test_tts99_rejects_bad_inputs(t_shot, p_hit):
    with pytest.raises(ValueError):
        tts99(t_shot, p_hit)


def test_tail_is_p95_at_200_samples_and_max_below_20():
    values = list(range(1, 201))
    assert tail(values) == statistics.quantiles(values, n=100, method="inclusive")[94]
    assert sum(v > tail(values) for v in values) >= 10
    assert tail([3.0, 1.0, 2.0]) == 3.0


FACTOR_OK = """master_seed 7
network 4x4 qubits 88 clamped 80
reference_e0 -119.5
shots 200
best_energy -119.5
ground_hits 150
ground_hit_rate 0.75
count (3,5) 150 ground 150
count (1,7) 50 ground 0
"""


def test_factor_check_passes_a_consistent_output():
    checked = Factor().check(7, -119.5, [FACTOR_OK])
    assert checked.failed == 0 and not checked.problems
    assert checked.quality == {"ground_hit_rate": 0.75}


def test_factor_check_fails_ground_shots_with_wrong_factors():
    bad = FACTOR_OK.replace("count (3,5) 150 ground 150", "count (3,5) 140 ground 140\n"
                            "count (1,14) 10 ground 10")
    assert Factor().check(7, -119.5, [bad]).failed == 10


@pytest.mark.parametrize("old, new", [
    ("best_energy -119.5", "best_energy -120.0"),        # below the analytic E0
    ("ground_hits 150", "ground_hits 0"),                 # no hit at all
    ("count (1,7) 50", "count (1,7) 49"),                 # counts miss a shot
    ("master_seed 7", "master_seed 8"),
])
def test_factor_check_fails_every_shot_on_a_broken_invariant(old, new):
    assert Factor().check(7, -119.5, [FACTOR_OK.replace(old, new)]).failed == 200


def test_multiply_check_needs_the_product_when_ground_is_reached():
    m, n = Multiply().factors(7)
    good = f"master_seed 7\nproduct {m * n}\nground_reached True\nground_hit_rate 0.125\n"
    assert Multiply().check(7, None, [good]).failed == 0
    wrong = good.replace(f"product {m * n}", f"product {m * n + 1}")
    assert Multiply().check(7, None, [wrong]).failed == 8


NOR = """master_seed 7
shots 200
master_seed 7
count -1 -1 +1 {clamp} 150
count -1 +1 -1 {clamp} 50
nor_violations 0
clamp_misses {misses}
"""


def test_circuit_check_needs_counts_summing_to_shots():
    ok = [NOR.format(clamp="-1", misses=150), NOR.format(clamp="+1", misses=50)]
    checked = CircuitNor().check(7, None, ok)
    assert checked.failed == 0, checked.problems
    assert checked.quality == {"nor_violation_rate": 0.0, "clamp_miss_rate": 0.5}
    short = [ok[0].replace(" 150\n", " 149\n"), ok[1]]
    assert CircuitNor().check(7, None, short).failed == 200
