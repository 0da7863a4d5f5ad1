"""The verdict of scripts/ab_pairs.py on hand-made paired runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts",
                     "ab_pairs.py")
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "steps_per_s", "better": "higher", "bound": 0.25},
    {"name": "run_s", "better": "lower", "bound": 0.25},
]


def runs(steps, run_s, failed=0, attempted=10):
    return [{"attempted": attempted, "failed": failed,
             "metrics": {"steps_per_s": {"value": a, "unit": "1/s"},
                         "run_s": {"value": b, "unit": "s"}}}
            for a, b in zip(steps, run_s)]


# Base steps/s 100..109: quartiles 102.25 and 106.75 (inclusive method),
# so its quartile distance is 4.5 and its median 104.5.
BASE_STEPS = [100.0 + i for i in range(10)]
BASE_RUN = [1.0] * 10


def test_clear_gain_holds():
    change = [v + 10.0 for v in BASE_STEPS]
    holds, lines = ab_pairs.verdict(runs(BASE_STEPS, BASE_RUN),
                                    runs(change, BASE_RUN), "steps_per_s",
                                    END_TO_END)
    assert holds
    assert lines[0].startswith("steps_per_s: claim holds: 10 of 10")


def test_nine_wins_in_ten_suffice_and_eight_do_not():
    # ties count for neither side
    nine = [v + 10.0 for v in BASE_STEPS[:9]] + [BASE_STEPS[9]]
    eight = [v + 10.0 for v in BASE_STEPS[:8]] + BASE_STEPS[8:]
    assert ab_pairs.verdict(runs(BASE_STEPS, BASE_RUN), runs(nine, BASE_RUN),
                            "steps_per_s", END_TO_END)[0]
    assert not ab_pairs.verdict(runs(BASE_STEPS, BASE_RUN),
                                runs(eight, BASE_RUN), "steps_per_s",
                                END_TO_END)[0]


def test_gain_inside_the_base_spread_fails():
    # every pair won, but the median gain 4 is below the quartile distance 4.5
    change = [v + 4.0 for v in BASE_STEPS]
    holds, lines = ab_pairs.verdict(runs(BASE_STEPS, BASE_RUN),
                                    runs(change, BASE_RUN), "steps_per_s",
                                    END_TO_END)
    assert not holds
    assert "claim fails: 10 of 10" in lines[0]


@pytest.mark.parametrize("slower, holds", [(1.25, True), (1.26, False)])
def test_other_metrics_must_stay_within_their_bound(slower, holds):
    change = [v + 10.0 for v in BASE_STEPS]
    got, lines = ab_pairs.verdict(runs(BASE_STEPS, BASE_RUN),
                                  runs(change, [slower] * 10), "steps_per_s",
                                  END_TO_END)
    assert got is holds
    assert lines[1].startswith("run_s: within" if holds else "run_s: beyond")


def test_a_larger_share_of_failures_fails():
    change = [v + 10.0 for v in BASE_STEPS]
    holds, lines = ab_pairs.verdict(runs(BASE_STEPS, BASE_RUN),
                                    runs(change, BASE_RUN, failed=1),
                                    "steps_per_s", END_TO_END)
    assert not holds
    assert lines[-1].startswith("failed operations: larger")


def test_lower_is_better_claim():
    change_run = [0.5] * 10
    holds, _ = ab_pairs.verdict(runs(BASE_STEPS, [1.0 + 0.01 * i
                                                  for i in range(10)]),
                                runs(BASE_STEPS, change_run), "run_s",
                                END_TO_END)
    assert holds


def test_no_claim_applies_only_the_regression_and_failure_rules():
    # no metric is claimed, so a change that wins nothing still holds
    holds, lines = ab_pairs.verdict(runs(BASE_STEPS, BASE_RUN),
                                    runs(BASE_STEPS, BASE_RUN), None,
                                    END_TO_END)
    assert holds
    assert [line.split(":")[1].strip() for line in lines[:2]] == [
        "within its bound", "within its bound"]
    assert not ab_pairs.verdict(runs(BASE_STEPS, BASE_RUN),
                                runs(BASE_STEPS, BASE_RUN, failed=1), None,
                                END_TO_END)[0]


# Base run_s 1.0..1.9: quartiles 1.225 and 1.675 about the median 1.45, a
# spread of 0.31 of the median, wider than the bound 0.25.
WIDE_RUN = [1.0 + 0.1 * i for i in range(10)]


@pytest.mark.parametrize("change_run, word, holds", [
    (WIDE_RUN, "unresolved", False),
    # every change run faster than every base run
    ([0.9] * 10, "within its bound", True),
])
def test_a_base_spread_wider_than_the_bound_is_unresolved(change_run, word,
                                                          holds):
    got, lines = ab_pairs.verdict(runs(BASE_STEPS, WIDE_RUN),
                                  runs(BASE_STEPS, change_run), None,
                                  END_TO_END)
    assert got is holds
    assert lines[1].startswith(f"run_s: {word}:")
