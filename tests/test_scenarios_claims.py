"""Unit tests: claim primitives and metric-path resolution.

Claims are exercised against synthetic results (plain attribute
namespaces) so each primitive's pass/fail/error logic is pinned down
without running the simulator.
"""

import math
from types import SimpleNamespace

import pytest

from repro.core.metrics import (LatencyBreakdown, MetricPathError,
                                resolve_metric)
from repro.scenarios.claims import (at_least, at_most, dominates,
                                    evaluate_claims, monotone_in,
                                    ratio_at_least, ratio_dominates,
                                    within_pct)
from repro.scenarios.paper import zero_bubble_claims
from repro.scenarios.verdict import Status


def _result(**attrs):
    attrs.setdefault("mode", SimpleNamespace(value="training"))
    return SimpleNamespace(**attrs)


def _lookup(**table):
    results = {name: _result(time=value) if isinstance(value,
                                                       (int, float))
               else value for name, value in table.items()}

    def lookup(name):
        return results[name]
    return lookup


class TestResolveMetric:
    def test_walks_dotted_properties(self):
        result = _result(
            breakdown=LatencyBreakdown(compute=1.0, sync=1.0,
                                       vmem=6.0))
        assert resolve_metric(result, "breakdown.vmem_share") == 0.75

    def test_bools_fold_to_floats(self):
        assert resolve_metric(_result(fits=True), "fits") == 1.0
        assert resolve_metric(_result(fits=False), "fits") == 0.0

    def test_missing_attribute(self):
        with pytest.raises(MetricPathError, match="no attribute"):
            resolve_metric(_result(), "jct_p95")

    def test_none_segment_names_the_mode(self):
        result = _result(cluster=None)
        with pytest.raises(MetricPathError, match="mode=training"):
            resolve_metric(result, "cluster.jct_p95")

    def test_non_numeric_leaf(self):
        with pytest.raises(MetricPathError, match="not a number"):
            resolve_metric(_result(name="DC-DLA"), "name")


class TestVmemShare:
    def test_share_and_empty_total(self):
        assert LatencyBreakdown(1.0, 1.0, 2.0).vmem_share == 0.5
        assert LatencyBreakdown(0.0, 0.0, 0.0).vmem_share == 0.0


class TestRatioAtLeast:
    def test_pass_reports_worst_pair(self):
        claim = ratio_at_least(
            "speedup", "time", numerators=("slow-a", "slow-b"),
            denominators=("fast",), threshold=2.0)
        verdict = claim.check(_lookup(**{"slow-a": 6.0, "slow-b": 4.0,
                                         "fast": 2.0}))
        assert verdict.status is Status.PASS
        assert verdict.measured == 2.0
        assert verdict.margin == 0.0
        assert verdict.detail == ""

    def test_strict_rejects_equality(self):
        claim = ratio_at_least(
            "speedup", "time", numerators=("a",),
            denominators=("b",), threshold=2.0, strict=True)
        verdict = claim.check(_lookup(a=4.0, b=2.0))
        assert verdict.status is Status.FAIL
        assert "worst a / b" in verdict.detail

    def test_window_upper_bound(self):
        claim = ratio_at_least(
            "speedup", "time", numerators=("a",),
            denominators=("b",), threshold=1.0, at_most=1.5)
        verdict = claim.check(_lookup(a=4.0, b=2.0))
        assert verdict.status is Status.FAIL
        assert verdict.margin == pytest.approx(-0.5)

    def test_broadcast_mismatch_is_an_error_verdict(self):
        claim = ratio_at_least(
            "speedup", "time", numerators=("a", "b"),
            denominators=("c", "d", "e"))
        verdict = claim.evaluate(_lookup(a=1, b=1, c=1, d=1, e=1))
        assert verdict.status is Status.ERROR
        assert "must align" in verdict.detail

    def test_unknown_aggregate_rejected_at_build(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            ratio_at_least("x", "time", numerators=("a",),
                           denominators=("b",), aggregate="median")


class TestRatioDominates:
    def test_ratio_of_aggregates(self):
        claim = ratio_dominates(
            "dp-over-mp", "time",
            numerators_a=("base-dp",), denominators_a=("fast-dp",),
            numerators_b=("base-mp",), denominators_b=("fast-mp",),
            strict=True)
        lookup = _lookup(**{"base-dp": 8.0, "fast-dp": 2.0,
                            "base-mp": 6.0, "fast-mp": 3.0})
        verdict = claim.check(lookup)
        assert verdict.status is Status.PASS
        assert verdict.measured == 2.0   # (8/2) / (6/3)

    def test_factor_window(self):
        claim = ratio_dominates(
            "near", "time",
            numerators_a=("a",), denominators_a=("b",),
            numerators_b=("c",), denominators_b=("d",),
            factor=0.9, at_most=1.0)
        lookup = _lookup(a=3.0, b=2.0, c=2.0, d=1.0)
        verdict = claim.check(lookup)   # (1.5) / (2.0) = 0.75 < 0.9
        assert verdict.status is Status.FAIL
        assert verdict.measured == 0.75


class TestWithinPct:
    def test_exact_equality_when_pct_zero(self):
        claim = within_pct("conserved", "time",
                           scenarios=("a", "b"), reference="ref")
        assert claim.check(
            _lookup(a=5.0, b=5.0, ref=5.0)).status is Status.PASS
        verdict = claim.check(_lookup(a=5.0, b=5.5, ref=5.0))
        assert verdict.status is Status.FAIL
        assert verdict.measured == pytest.approx(10.0)
        assert "worst b" in verdict.detail

    def test_zero_reference(self):
        claim = within_pct("zeros", "time", scenarios=("a",),
                           reference="ref")
        assert claim.check(
            _lookup(a=0.0, ref=0.0)).status is Status.PASS
        verdict = claim.check(_lookup(a=1.0, ref=0.0))
        assert verdict.status is Status.FAIL
        assert verdict.measured == float("inf")


class TestMonotoneIn:
    LOOKUP = staticmethod(lambda: _lookup(a=4.0, b=3.0, c=3.0, d=5.0))

    def test_non_increasing_allows_plateaus(self):
        claim = monotone_in("down", "time", scenarios=("a", "b", "c"))
        assert claim.check(self.LOOKUP()).status is Status.PASS

    def test_strict_flags_the_plateau(self):
        claim = monotone_in("down", "time", scenarios=("a", "b", "c"),
                            strict=True)
        verdict = claim.check(self.LOOKUP())
        assert verdict.status is Status.FAIL
        assert "b -> c" in verdict.detail

    def test_violating_step_is_named(self):
        claim = monotone_in("down", "time",
                            scenarios=("a", "b", "c", "d"))
        verdict = claim.check(self.LOOKUP())
        assert verdict.status is Status.FAIL
        assert verdict.measured == 2.0   # the c -> d jump
        assert "c -> d" in verdict.detail

    def test_non_decreasing(self):
        claim = monotone_in("up", "time", scenarios=("b", "c", "d"),
                            direction="non-decreasing")
        assert claim.check(self.LOOKUP()).status is Status.PASS


class TestDominates:
    def test_pairwise_with_tolerance(self):
        claim = dominates("bound", "time", winners=("oracle",),
                          losers=("a", "b"), tolerance=0.25)
        lookup = _lookup(oracle=2.0, a=2.0, b=1.8)
        verdict = claim.check(lookup)   # oracle beats a, ties-ish b
        assert verdict.status is Status.PASS
        lookup = _lookup(oracle=2.0, a=2.0, b=1.5)
        verdict = claim.check(lookup)
        assert verdict.status is Status.FAIL
        assert "oracle vs b" in verdict.detail

    def test_max_sense_flips_the_inequality(self):
        claim = dominates("avail", "time", winners=("mc",),
                          losers=("dc",), sense="max")
        assert claim.check(
            _lookup(mc=0.9, dc=0.5)).status is Status.PASS
        assert claim.check(
            _lookup(mc=0.4, dc=0.5)).status is Status.FAIL


class TestBounds:
    def test_at_least_names_worst_scenario(self):
        claim = at_least("floor", "time", scenarios=("a", "b"),
                         bound=3.0)
        verdict = claim.check(_lookup(a=4.0, b=2.0))
        assert verdict.status is Status.FAIL
        assert verdict.measured == 2.0
        assert "worst b" in verdict.detail

    def test_at_most(self):
        claim = at_most("ceiling", "time", scenarios=("a",), bound=1.0)
        assert claim.check(_lookup(a=0.5)).status is Status.PASS
        assert claim.check(_lookup(a=1.5)).status is Status.FAIL

    def test_quorum_counts_satisfying_scenarios(self):
        claim = at_least("quorum", "time",
                         scenarios=("a", "b", "c"), bound=3.0,
                         min_count=2)
        verdict = claim.check(_lookup(a=4.0, b=5.0, c=1.0))
        assert verdict.status is Status.PASS
        assert verdict.measured == 2.0   # the count, not a metric
        verdict = claim.check(_lookup(a=4.0, b=1.0, c=1.0))
        assert verdict.status is Status.FAIL
        assert "1 of 3 satisfy" in verdict.detail

    def test_quorum_bounds_validated(self):
        with pytest.raises(ValueError, match="min_count"):
            at_least("bad", "time", scenarios=("a",), bound=0.0,
                     min_count=2)


class TestEvaluate:
    def test_failed_lookup_becomes_error_verdict(self):
        def lookup(name):
            raise RuntimeError(f"scenario {name} exploded")
        claim = at_least("floor", "time", scenarios=("a",), bound=0.0)
        verdict, = evaluate_claims([claim], lookup)
        assert verdict.status is Status.ERROR
        assert verdict.measured is None
        assert "RuntimeError: scenario a exploded" in verdict.detail

    def test_metric_path_error_becomes_error_verdict(self):
        claim = at_least("floor", "cluster.jct_p95",
                         scenarios=("a",), bound=0.0)
        verdict = claim.evaluate(lambda name: _result(cluster=None))
        assert verdict.status is Status.ERROR
        assert "MetricPathError" in verdict.detail

    def test_negative_zero_folds_to_positive_zero(self):
        claim = dominates("tie", "time", winners=("a",),
                          losers=("b",))
        verdict = claim.check(_lookup(a=0.0, b=-0.0))
        assert str(verdict.measured) == "0.0"
        assert str(verdict.margin) == "0.0"


class TestShippedClaimsAtUlpTies:
    """A shipped claim's measured value must not hinge on one ulp."""

    #: DC-DLA bubble fractions (1F1B, zb-h1): zb-h1 ties 1F1B, one ulp
    #: above it.
    DC_TIES = {"GPT2": (0.8334195571066086, 0.8334195571066088),
               "BERT-Large": (0.8173821485491338, 0.8173821485491339)}

    def _lookup(self, claim, ulps):
        table = {}
        for name in claim.scenario_names():
            design, network, schedule = name.split("/")
            is_zb = schedule == "zbpp-zb-h1"
            if design != "DC-DLA":
                fraction = 0.4 if is_zb else 0.5
            else:
                fraction = self.DC_TIES[network][is_zb]
                for _ in range(abs(ulps) if is_zb else 0):
                    fraction = math.nextafter(
                        fraction, math.copysign(math.inf, ulps))
            table[name] = _result(pipeline=SimpleNamespace(
                bubble_fraction=fraction))
        return _lookup(**table)

    def test_zb_h1_never_worse_than_1f1b(self):
        claim, = [c for c in zero_bubble_claims()
                  if c.name == "zb-h1-never-worse-than-1f1b"]
        verdicts = [claim.check(self._lookup(claim, ulps))
                    for ulps in (-1, 0, 1)]
        measured = verdicts[1].measured
        for verdict in verdicts:
            assert verdict.status is Status.PASS
            assert abs(verdict.measured - measured) \
                < 1e-9 * abs(measured)
