"""Mode × target golden: every registered scheduler on every target.

``tests/goldens/mode_target_exports.json`` holds one campaign export per
registered mode and registered target (seed 7, 1 sim-hour, 2 instances,
``sample_interval=300``), captured while the engine still carried a
second, switch-selected copy of its hot loop. Deleting that copy must
move no bytes, so these tests re-run the capture campaigns serially,
through a two-worker pool and through checkpoint kill-and-resume, and
require the JSON to match the fixture byte for byte.
"""

import dataclasses
import json
import os
import tempfile

import pytest

from repro.api import run_campaign
from repro.errors import CampaignInterrupted
from repro.harness import campaign
from repro.harness.campaign import CampaignConfig
from repro.harness.executor import CampaignSpec, execute_specs, results
from repro.harness.export import results_to_json
from repro.parallel import create_mode, mode_names
from repro.targets import get_target, target_names

_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "goldens", "mode_target_exports.json")

with open(_GOLDEN_PATH, encoding="utf-8") as _handle:
    _GOLDENS = json.load(_handle)

CELLS = [(mode, target) for mode in sorted(_GOLDENS)
         for target in sorted(_GOLDENS[mode])]


def _config(**overrides):
    base = dict(n_instances=2, duration_hours=1.0, seed=7,
                sample_interval=300.0)
    base.update(overrides)
    return CampaignConfig(**base)


def _strip_instances(export: str) -> str:
    """Serialise an export with the per-instance detail removed (pooled
    outcomes rebuild without live instance objects)."""
    records = json.loads(export)
    for record in records:
        record.pop("instances", None)
    return json.dumps(records, sort_keys=True)


def test_golden_covers_every_registered_mode_and_target():
    assert sorted(_GOLDENS) == sorted(mode_names())
    for mode in _GOLDENS:
        assert sorted(_GOLDENS[mode]) == sorted(target_names())


@pytest.mark.parametrize("mode,target", CELLS)
def test_serial_export_is_byte_identical(mode, target):
    result = run_campaign(target, mode=create_mode(mode), config=_config())
    assert results_to_json([result]) == _GOLDENS[mode][target]


def test_workers2_exports_match_golden():
    specs = [CampaignSpec(target=target, mode=mode, config=_config())
             for mode, target in CELLS]
    cells = execute_specs(specs, workers=2)
    for cell in cells:
        assert cell.failure is None, cell.failure
    for (mode, target), result in zip(CELLS, results(cells)):
        assert (_strip_instances(results_to_json([result]))
                == _strip_instances(_GOLDENS[mode][target])), (mode, target)


@pytest.mark.parametrize("mode", sorted(_GOLDENS))
def test_kill_and_resume_matches_golden(mode):
    entry = get_target("dnsmasq")
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        config = _config(checkpoint_every=300.0,
                         checkpoint_dir=checkpoint_dir)

        def run(config, hook=None):
            return campaign.run_campaign(
                entry.target_cls, get_target("dnsmasq").state_model(),
                create_mode(mode), config, abort_hook=hook)

        with pytest.raises(CampaignInterrupted):
            run(config, hook=lambda iterations, now: now >= 1800)
        resumed = run(dataclasses.replace(config, resume=True))
    assert results_to_json([resumed]) == _GOLDENS[mode]["dnsmasq"]
