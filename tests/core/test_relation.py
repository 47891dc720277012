"""Tests for pairwise relation-weight quantification (§III-B1)."""

import pytest

from repro.core.entity import ConfigEntity, Flag, ValueType
from repro.core.model import ConfigurationModel
from repro.core.relation import ModelBuildSummary, RelationQuantifier
from repro.coverage.bitmap import CoverageMap
from repro.errors import StartupError


def _bool_entity(name):
    return ConfigEntity(name, ValueType.BOOLEAN, Flag.MUTABLE, (True, False))


def _synthetic_probe(assignment):
    """A startup with baseline sites plus feature- and synergy-gated sites.

    - ``a`` on: sites a1, a2
    - ``b`` on: site b1; with ``a`` also on: synergy site ab
    - ``c`` on together with ``a``: startup conflict
    """
    coverage = CoverageMap(["base1", "base2"])
    a_on = assignment.get("a") is True
    b_on = assignment.get("b") is True
    c_on = assignment.get("c") is True
    if a_on and c_on:
        raise StartupError("a conflicts with c", ("a", "c"))
    if a_on:
        coverage.hit("a1")
        coverage.hit("a2")
    if b_on:
        coverage.hit("b1")
        if a_on:
            coverage.hit("ab")
    if c_on:
        coverage.hit("c1")
    return coverage


class TestProbeAssignment:
    def test_success_records_sites(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        record = quantifier.probe_assignment({"a": True})
        assert record.branches == 4
        assert "a1" in record.sites
        assert not record.failed

    def test_failure_records_zero(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        record = quantifier.probe_assignment({"a": True, "c": True})
        assert record.failed
        assert record.branches == 0

    def test_plain_int_probe_supported(self):
        quantifier = RelationQuantifier(lambda asg: CoverageMap(["x"]))
        assert quantifier.probe_assignment({}).branches == 1


class TestPairWeight:
    def test_synergy_detected(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        weight = quantifier.pair_weight(_bool_entity("a"), _bool_entity("b"))
        assert weight == 1.0  # the "ab" site

    def test_independent_pair_has_zero_weight(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        weight = quantifier.pair_weight(_bool_entity("b"), _bool_entity("c"))
        assert weight == 0.0

    def test_conflicting_pair_has_zero_weight(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        weight = quantifier.pair_weight(_bool_entity("a"), _bool_entity("c"))
        assert weight == 0.0

    def test_non_synergy_mode_uses_absolute_coverage(self):
        quantifier = RelationQuantifier(_synthetic_probe, synergy=False)
        weight = quantifier.pair_weight(_bool_entity("a"), _bool_entity("b"))
        assert weight == 6.0  # base1 base2 a1 a2 b1 ab

    def test_mean_aggregate_below_max(self):
        max_q = RelationQuantifier(_synthetic_probe, synergy=False, aggregate="max")
        mean_q = RelationQuantifier(_synthetic_probe, synergy=False, aggregate="mean")
        a, b = _bool_entity("a"), _bool_entity("b")
        assert mean_q.pair_weight(a, b) < max_q.pair_weight(a, b)

    def test_combination_cap_respected(self):
        calls = []

        def probe(assignment):
            calls.append(assignment)
            return CoverageMap(["s"])

        quantifier = RelationQuantifier(probe, max_combinations=2, synergy=False)
        quantifier.pair_weight(_bool_entity("a"), _bool_entity("b"))
        assert len(calls) == 2

    def test_invalid_aggregate_rejected(self):
        with pytest.raises(ValueError):
            RelationQuantifier(_synthetic_probe, aggregate="median")


class TestQuantify:
    def _model(self):
        return ConfigurationModel(
            [_bool_entity("a"), _bool_entity("b"), _bool_entity("c"),
             ConfigEntity("path", ValueType.STRING, Flag.IMMUTABLE, ())]
        )

    def test_builds_relation_model(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        relation_model, report = quantifier.quantify(self._model())
        assert relation_model.weight("a", "b") == 1.0
        assert relation_model.weight("a", "c") == 0.0
        assert relation_model.weight("b", "c") == 0.0

    def test_weights_normalised(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        relation_model, _ = quantifier.quantify(self._model())
        for _, _, data in relation_model.graph.edges(data=True):
            assert 0.0 <= data["weight"] <= 1.0

    def test_immutable_entities_not_probed(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        relation_model, _ = quantifier.quantify(self._model())
        assert "path" in relation_model.isolated_entities()

    def test_report_counts_launches_and_failures(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        _, report = quantifier.quantify(self._model())
        assert report.launches > 0
        assert report.failures > 0  # the a+c conflicts

    def test_report_best_values_prefer_high_coverage(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        _, report = quantifier.quantify(self._model())
        assert report.best_values["a"] is True
        assert report.best_values["b"] is True

    def test_summary_keeps_the_product_not_the_probe_log(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        _, report = quantifier.quantify(self._model())
        summary = report.summary()
        assert isinstance(summary, ModelBuildSummary)
        assert summary.launches == report.launches
        assert summary.best_values == report.best_values
        assert summary.raw_weights == report.raw_weights
        assert not hasattr(summary, "probes")
        # A copy: later edits to the report do not leak into it.
        report.best_values["a"] = "edited"
        assert summary.best_values["a"] is True

    def test_single_probe_caching(self):
        calls = []

        def probe(assignment):
            calls.append(dict(assignment))
            return _synthetic_probe(assignment)

        quantifier = RelationQuantifier(probe)
        quantifier.quantify(self._model())
        singles = [c for c in calls if len(c) == 1]
        assert len(singles) == len({tuple(sorted(c.items())) for c in singles})
