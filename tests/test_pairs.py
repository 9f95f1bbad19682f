import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
SPEC = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

RATE = {"name": "solves_per_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "solve_ms_p50", "better": "lower", "bound": 0.25}


def verdict(metric, parent, change):
    line, verdict = pairs.summary(metric, parent, change)
    assert verdict in line
    return verdict, "gain claimable" in line


def test_a_gain_is_claimed_with_ten_pairs_only():
    parent = [100.0, 101.0, 99.0, 100.5]
    change = [120.0, 121.0, 119.0, 120.5]
    assert verdict(RATE, parent, change) == ("within bound", False)
    assert verdict(RATE, parent * 3, change * 3) == ("within bound", True)
    # nine tenths of the pairs must be won
    assert verdict(RATE, parent * 3, change * 2 + [98.0] * 4) == ("within bound", False)


def test_a_loss_past_the_bound_is_over_it():
    parent = [10.0, 10.1, 9.9, 10.0] * 3
    change = [13.0, 13.1, 12.9, 13.0] * 3
    assert verdict(LATENCY, parent, change) == ("OVER BOUND", False)


def test_a_parent_spread_past_the_bound_leaves_the_metric_unresolved():
    # the parent's quartiles span 50 around a median of 100, past 0.25 * 100
    parent = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    assert verdict(RATE, parent, [100.0] * 10) == ("unresolved", False)
    # unless every change run beats every parent run
    assert verdict(RATE, parent, [150.0] * 10) == ("within bound", True)
    # a tight parent resolves the same change
    assert verdict(RATE, [100.0, 101.0] * 5, [100.0] * 10) == ("within bound", False)
