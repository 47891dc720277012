"""The per-process probe memo behind every campaign model build.

A probe's outcome depends only on the target class and the configuration
values, so CMFuzz-family campaigns share one memo of outcomes per class
(:func:`repro.core.probes.probe_memo`). These tests pin what that must
not change — exports, bug ledgers, concurrent builds — and what it must
never do: serve one class's outcomes to another that shares its ``NAME``.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.api import extract_model
from repro.core import probes
from repro.core.probes import (
    CachedProbeExecutor,
    build_probe_executor,
    probe_memo,
)
from repro.core.relation import RelationQuantifier
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.export import results_to_json
from repro.parallel import create_mode
from repro.targets import get_target
from repro.targets.dns.server import DnsmasqTarget
from repro.targets.faults import FaultKind, SanitizerFault

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(probes.__file__)))


class FaultyDnsmasq(DnsmasqTarget):
    """dnsmasq plus a startup crash when query logging meets DNSSEC.

    dnsmasq's own startup bug (expand-hosts with an empty domain) fires
    too, so the bug ledger holds two startup faults whose order is part
    of the export.
    """

    def _startup_impl(self) -> None:
        if self.enabled("log-queries") and self.enabled("dnssec"):
            self.cov.hit("startup.log_dnssec")
            raise SanitizerFault(FaultKind.SEGV, "log_query_signed",
                                 "query logger dereferences unsigned RRSIG")
        super()._startup_impl()


def _synergy_subclass():
    """A fresh dnsmasq subclass (so its memo starts cold) whose startup
    hits one extra site when query logging meets DNSSEC — a relation
    the plain target does not have."""

    class ExtraSiteDnsmasq(DnsmasqTarget):
        def _startup_impl(self) -> None:
            super()._startup_impl()
            if self.enabled("log-queries") and self.enabled("dnssec"):
                self.cov.hit("startup.log_dnssec")

    return ExtraSiteDnsmasq


def campaign_export(mode_name, target_cls=FaultyDnsmasq, **config):
    """One small campaign against ``target_cls``, exported to JSON."""
    return results_to_json([run_campaign(
        target_cls, get_target("dnsmasq").state_model(),
        create_mode(mode_name),
        CampaignConfig(n_instances=2, duration_hours=0.5, seed=3,
                       sample_interval=300.0, **config),
    )])


def _cold_export(mode_name):
    """The same campaign from a fresh interpreter, whose memo is empty."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, REPO_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                            else []))
    script = ("import sys\n"
              "from tests.core.test_probe_memo import campaign_export\n"
              "sys.stdout.write(campaign_export(sys.argv[1]))\n")
    done = subprocess.run([sys.executable, "-c", script, mode_name],
                          cwd=REPO_ROOT, env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    return done.stdout


def _memo_quantify(target_cls, on_fault=None):
    """Quantify ``target_cls`` through the stack a campaign builds."""
    executor = CachedProbeExecutor(build_probe_executor(target_cls),
                                   target_cls, probe_memo(target_cls))
    quantifier = RelationQuantifier(executor=executor, max_combinations=4,
                                    on_fault=on_fault)
    relation_model, report = quantifier.quantify(extract_model(target_cls))
    snapshot = {
        "launches": report.launches,
        "raw": sorted(report.raw_weights.items()),
        "best": sorted(report.best_values.items()),
        "probes": [(sorted(r.assignment.items()), sorted(r.sites), r.failed)
                   for r in report.probes],
        "edges": sorted(relation_model.edges_by_weight()),
    }
    return snapshot, quantifier.last_run_stats


class TestColdAndWarmMemo:
    @pytest.mark.parametrize("mode_name", ["cmfuzz", "plateau"])
    def test_exports_are_byte_identical(self, mode_name, monkeypatch):
        cold = _cold_export(mode_name)
        first = campaign_export(mode_name)
        assert probe_memo(FaultyDnsmasq).outcomes
        # Now the memo is warm for certain: a probe that reached an
        # executor would be a miss.
        def no_probes(self, assignments):
            raise AssertionError("warm memo executed %d probes"
                                 % len(assignments))

        monkeypatch.setattr(probes.LocalProbeExecutor, "run", no_probes)
        warm = campaign_export(mode_name)
        assert warm == cold
        assert first == cold
        functions = [bug["function"] for bug in json.loads(cold)[0]["bugs"]]
        assert "log_query_signed" in functions
        assert "config_parse" in functions


class TestConcurrentBuilds:
    def test_threads_building_one_target_give_equal_reports(self):
        """More threads than cores race on one cold memo, switching as
        often as the interpreter allows; every report must match and
        every stored site set must still be the canonical one."""
        target_cls = _synergy_subclass()  # a cold memo for every thread
        threads_n = 4
        barrier = threading.Barrier(threads_n)
        results = [None] * threads_n

        def build(slot):
            faults = []
            barrier.wait()
            snapshot, _ = _memo_quantify(
                target_cls, on_fault=lambda f: faults.append(str(f)))
            results[slot] = (snapshot, faults)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,))
                       for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results[0] is not None
        assert all(result == results[0] for result in results)
        assert results[0][1], "dnsmasq's startup bug must replay"
        memo = probe_memo(target_cls)
        assert all(memo._site_sets[o.sites] is o.sites
                   for o in memo.outcomes.values())
        # ... and a later build served wholly from the memo agrees,
        # bug ledger included.
        faults = []
        again, stats = _memo_quantify(
            target_cls, on_fault=lambda f: faults.append(str(f)))
        assert (again, faults) == results[0]
        assert stats["executed"] == 0 and stats["cache_hits"] > 0


class TestClassKeying:
    def test_classes_sharing_a_name_never_share_outcomes(self):
        extra = _synergy_subclass()
        plain = type("PlainDnsmasq", (DnsmasqTarget,), {})
        assert extra.NAME == plain.NAME == "dnsmasq"
        extra_snapshot, _ = _memo_quantify(extra)
        plain_snapshot, plain_stats = _memo_quantify(plain)
        assert plain_stats["cache_hits"] == 0  # nothing from extra's memo
        assert probe_memo(extra) is not probe_memo(plain)
        assert extra_snapshot["raw"] != plain_snapshot["raw"]
        assert any("dnsmasq:startup.log_dnssec" in outcome.sites
                   for outcome in probe_memo(extra).outcomes.values())
        assert not any("dnsmasq:startup.log_dnssec" in outcome.sites
                       for outcome in probe_memo(plain).outcomes.values())

    def test_equal_site_sets_are_one_object(self):
        target_cls = _synergy_subclass()
        _memo_quantify(target_cls)
        by_value = {}
        strings = {}
        for outcome in probe_memo(target_cls).outcomes.values():
            assert by_value.setdefault(outcome.sites, outcome.sites) \
                is outcome.sites
            for site in outcome.sites:
                assert strings.setdefault(site, site) is site
        assert len(by_value) < len(probe_memo(target_cls).outcomes)


class TestCampaignProbesItsOwnClass:
    def test_subclass_export_is_equal_across_probe_paths(self, tmp_path):
        """The pooled batch and the disk-cache key must name the class
        the campaign runs, not whatever the registry maps its NAME to.
        Each leg uses a fresh subclass, so no leg reads another's memo."""
        serial = campaign_export("cmfuzz", _synergy_subclass())
        assert serial != campaign_export("cmfuzz", DnsmasqTarget)
        cached = campaign_export("cmfuzz", _synergy_subclass(),
                                 probe_cache=True,
                                 probe_cache_dir=str(tmp_path))
        pooled = campaign_export("cmfuzz", _synergy_subclass(),
                                 probe_workers=2)
        assert cached == serial
        assert pooled == serial
