"""Reference parity: the engine's hot-loop mechanics must not change output.

:func:`tests.reference.reference_components` swaps the templated,
interned and batched hot-loop components for their kept reference
twins. These tests require a campaign's export on the reference setup
to be byte-identical to production's across every registered mode,
serially and through checkpoint kill-and-resume.
"""

import dataclasses
import tempfile
from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage.collector import CoverageCollector
from repro.errors import CampaignInterrupted
from repro.harness.campaign import CampaignConfig, run_campaign
from repro.harness.export import results_to_json
from repro.parallel import create_mode, mode_names
from repro.targets import get_target
from tests.reference import reference_components

_SETTINGS = dict(max_examples=6, deadline=None)

#: Every registered mode (plateau and statemap included) must hold the
#: parity invariant, so the list derives from the registry.
ALL_MODES = list(mode_names())


def _config(seed, **overrides):
    base = dict(n_instances=2, duration_hours=1.0, seed=seed,
                sample_interval=300.0)
    base.update(overrides)
    return CampaignConfig(**base)


def _export(mode_name, config, reference, abort_at=None):
    hook = None
    if abort_at is not None:
        hook = lambda iterations, now: iterations >= abort_at  # noqa: E731
    with reference_components() if reference else nullcontext():
        return results_to_json([run_campaign(
            get_target("dnsmasq").target_cls, get_target("dnsmasq").state_model(),
            create_mode(mode_name), config, abort_hook=hook,
        )])


def test_reference_components_are_in_effect():
    """Guard against a patch target drifting out from under the suite."""
    from repro.fuzzing.datamodel import Message
    from repro.parallel.instance import FuzzingInstance

    model = get_target("dnsmasq").state_model().data_models()[0]
    instance = FuzzingInstance(0, get_target("dnsmasq").target_cls, None,
                               None)
    assert Message(model)._tpl is not None
    with reference_components():
        assert Message(model)._tpl is None
        assert type(FuzzingInstance(0, get_target("dnsmasq").target_cls,
                                    None, None).collector) is CoverageCollector
    assert type(instance.collector) is not CoverageCollector


class TestSerialParity:
    @settings(**_SETTINGS)
    @given(mode_name=st.sampled_from(ALL_MODES),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_production_equals_reference(self, mode_name, seed):
        config = _config(seed)
        assert (_export(mode_name, config, reference=False)
                == _export(mode_name, config, reference=True))

    def test_every_mode_once_fixed_seed(self):
        """A deterministic smoke leg per mode (hypothesis-independent)."""
        for mode_name in ALL_MODES:
            config = _config(seed=7)
            reference = _export(mode_name, config, reference=True)
            production = _export(mode_name, config, reference=False)
            assert production == reference, (
                "production diverged from the reference in mode %r"
                % mode_name)


class TestCheckpointResumeParity:
    @settings(**_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           abort_at=st.integers(min_value=1, max_value=250),
           resume_on_reference=st.booleans())
    def test_kill_resume_equals_reference(self, seed, abort_at,
                                          resume_on_reference):
        """A checkpoint written by production, resumed on either setup,
        must still match the reference uninterrupted export."""
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            config = _config(seed, checkpoint_every=300.0,
                             checkpoint_dir=checkpoint_dir)
            reference = _export("cmfuzz", config, reference=True)
            try:
                _export("cmfuzz", config, reference=False, abort_at=abort_at)
            except CampaignInterrupted:
                pass  # the expected path; a tiny k may finish first
            resumed = _export("cmfuzz",
                              dataclasses.replace(config, resume=True),
                              reference=resume_on_reference)
            assert resumed == reference
