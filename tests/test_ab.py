"""The verdict arithmetic of ``tools/ab.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# ten runs of the base: quartiles 10.225 and 10.775 (inclusive method),
# so an interquartile range of 0.55 around the median 10.5
BASE = [10.0, 10.1, 10.2, 10.3, 10.4, 10.6, 10.7, 10.8, 10.9, 11.0]


def test_quartiles():
    assert ab.quartiles(BASE) == pytest.approx((10.225, 10.5, 10.775))
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_improved_needs_nine_wins_and_a_gap_beyond_the_spread():
    head = [b - 1.0 for b in BASE]
    got = ab.verdict(BASE, head, "lower")
    assert (got["wins"], got["pairs"], got["verdict"]) == (10, 10, "improved")
    assert got["ratio"] == pytest.approx(9.5 / 10.5)
    assert got["base"]["median"] == pytest.approx(10.5)
    assert got["head"]["median"] == pytest.approx(9.5)
    # nine wins still suffice
    head[0] = 12.0
    assert ab.verdict(BASE, head, "lower")["verdict"] == "improved"
    # eight do not
    head[1] = 12.0
    got = ab.verdict(BASE, head, "lower")
    assert got["wins"] == 8 and got["verdict"] == "unresolved"


def test_a_gap_within_the_spread_is_unchanged():
    # the head wins every pair, by 0.4 < the base's 0.55 spread
    head = [b - 0.4 for b in BASE]
    got = ab.verdict(BASE, head, "lower")
    assert got["wins"] == 10 and got["verdict"] == "unchanged"


def test_regressed_is_improved_with_the_sides_swapped():
    head = [b + 1.0 for b in BASE]
    got = ab.verdict(BASE, head, "lower")
    assert (got["wins"], got["verdict"]) == (0, "regressed")


def test_higher_is_better():
    head = [b + 1.0 for b in BASE]
    got = ab.verdict(BASE, head, "higher")
    assert (got["wins"], got["verdict"]) == (10, "improved")
    assert ab.verdict(BASE, [b - 1.0 for b in BASE],
                      "higher")["verdict"] == "regressed"


def test_nine_of_ten_is_a_share():
    # 63 wins of 70, where 0.9 * 70 rounds above 63
    base = [10.0 + i / 100 for i in range(70)]
    head = [b - 1.0 for b in base]
    for i in range(7):
        head[i] = 20.0
    got = ab.verdict(base, head, "lower")
    assert (got["wins"], got["verdict"]) == (63, "improved")


def test_ties_are_not_wins():
    got = ab.verdict(BASE, list(BASE), "lower")
    assert (got["wins"], got["ratio"], got["verdict"]) == (0, 1.0,
                                                            "unchanged")


def test_needs_paired_runs():
    with pytest.raises(ValueError):
        ab.verdict(BASE, BASE[:-1], "lower")
    with pytest.raises(ValueError):
        ab.verdict([], [], "lower")
