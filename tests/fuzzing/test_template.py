"""Model-template tests: templated messages must mirror the tree walks.

:mod:`repro.fuzzing.template` precompiles a model into dict-backed
defaults, per-selection-state generated encoders and an element index;
``Message`` consults the template whenever the model compiles. These
tests drive templated and untemplated messages through the same
operations and require identical observables, plus the template
machinery's own contracts (caching, fallback, pickling).
"""

import gc
import pickle
import random

import pytest

from repro.fuzzing.datamodel import (
    Blob,
    Block,
    Choice,
    DataElement,
    DataModel,
    Message,
    Number,
    Size,
    Str,
    _rebuild_message,
)
from repro.fuzzing.template import (
    _TEMPLATES,
    ModelTemplate,
    UntemplatableModel,
    template_for,
)
from repro.targets import get_target, target_names
from tests.reference import tree_walk


def _rich_model():
    """A model exercising every leaf kind, nesting, choices and sizes."""
    return DataModel("rich", [
        Number("id", bits=16, default=7),
        Block("header", [
            Number("flags", bits=8, default=3),
            Size("length", of="body", bits=16, adjust=2),
        ]),
        Choice("kind", [
            Block("query", [Str("name", default="host"),
                            Number("qtype", bits=16, default=1)]),
            Block("answer", [Blob("rdata", default=b"\x7f\x00\x00\x01"),
                             Number("ttl", bits=32, default=300)]),
        ]),
        Block("body", [Blob("payload", default=b"xyz")]),
    ])


def _messages(model):
    """A (fast, slow) pair: a templated and a tree-walking message."""
    fast = Message(model)
    with tree_walk():
        slow = Message(model)
    assert fast._tpl is not None, "fast message did not get a template"
    assert slow._tpl is None, "slow message unexpectedly templated"
    return fast, slow


class TestMessageParity:
    def test_defaults_and_fields(self):
        fast, slow = _messages(_rich_model())
        assert fast.fields() == slow.fields()
        assert fast.choice_paths() == slow.choice_paths()
        assert fast.encode() == slow.encode()

    def test_element_at_every_field(self):
        fast, slow = _messages(_rich_model())
        for path, _ in slow.fields():
            assert fast.element_at(path) is slow.element_at(path)
        assert fast.element_at("") is slow.element_at("")
        with pytest.raises(Exception):
            fast.element_at("no.such.path")

    def test_set_and_encode(self):
        fast, slow = _messages(_rich_model())
        for message in (fast, slow):
            message.set("id", 0xBEEF)
            message.set("body.payload", b"longer-payload")
        assert fast.encode() == slow.encode()
        assert fast.get("id") == slow.get("id") == 0xBEEF

    def test_select_switches_options(self):
        fast, slow = _messages(_rich_model())
        for message in (fast, slow):
            message.select("kind", "answer")
        assert fast.fields() == slow.fields()
        assert fast.encode() == slow.encode()
        assert fast.selection("kind") == slow.selection("kind") == "answer"
        for message in (fast, slow):
            message.set("kind.answer.ttl", 1)
            message.select("kind", "query")
        assert fast.encode() == slow.encode()

    def test_copy_is_deep_enough(self):
        fast, _ = _messages(_rich_model())
        clone = fast.copy()
        clone.set("id", 1)
        clone.select("kind", "answer")
        assert fast.get("id") == 7
        assert fast.selection("kind") == "query"
        assert clone._tpl is fast._tpl

    def test_pickle_round_trip_re_resolves_template(self):
        fast, slow = _messages(_rich_model())
        fast.set("id", 99)
        slow.set("id", 99)
        restored = pickle.loads(pickle.dumps(fast))
        assert restored._tpl is not None
        assert restored.encode() == fast.encode() == slow.encode()
        assert restored.fields() == fast.fields()

    def test_pickle_payload_carries_no_template(self):
        fast, _ = _messages(_rich_model())
        state = fast.__getstate__()
        assert "_tpl" not in state
        assert "_state" not in state

    def test_pickle_is_by_value(self):
        """A message pickles as the fields it is rebuilt from — no
        per-message state dict."""
        fast, _ = _messages(_rich_model())
        rebuild, args = fast.__reduce__()
        assert rebuild is _rebuild_message
        assert args == (fast.model, fast.rng, fast._clean, fast._values,
                        fast._selections)

    @pytest.mark.parametrize("clean", [True, False])
    def test_old_dict_state_pickle_still_loads(self, monkeypatch, clean):
        """Checkpoints and cached outcomes written before messages
        pickled by value carry NEWOBJ + dict state; they must load."""
        fast, slow = _messages(_rich_model())
        if not clean:
            fast.set("id", 99)
            slow.set("id", 99)
        with monkeypatch.context() as patch:
            # Pickle the way the dict-state layout did.
            patch.setattr(Message, "__reduce__", object.__reduce__)
            blob = pickle.dumps(fast, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_rebuild_message" not in blob
        restored = pickle.loads(blob)
        assert restored._tpl is not None
        assert restored._state is None
        assert restored._clean is clean
        assert restored.encode() == slow.encode()
        assert restored.fields() == fast.fields()

    @pytest.mark.parametrize("target", target_names())
    def test_all_pit_models_encode_identically(self, target):
        state_model = get_target(target).state_model()
        rng = random.Random(42)
        for data_model in state_model.data_models():
            fast, slow = _messages(data_model)
            assert fast.encode() == slow.encode()
            assert fast.fields() == slow.fields()
            # A few random writes stay in lockstep.
            paths = [path for path, _ in slow.fields()]
            for path in rng.sample(paths, min(3, len(paths))):
                element = slow.element_at(path)
                if isinstance(element, Number):
                    value = rng.randint(element.min_value, element.max_value)
                elif isinstance(element, Str):
                    value = "mutated"
                elif isinstance(element, Blob):
                    value = b"\x00\x01"
                else:
                    continue
                fast.set(path, value)
                slow.set(path, value)
            assert fast.encode() == slow.encode()


class TestCleanEncodeCache:
    def test_clean_messages_share_default_bytes(self):
        model = _rich_model()
        first = Message(model)
        second = Message(model)
        assert first.encode() == second.encode()
        # Identity: the second encode is served from the state cache.
        assert first.encode() is second.encode()

    def test_write_invalidates_cleanliness(self):
        model = _rich_model()
        message = Message(model)
        default = message.encode()
        message.set("id", 8)
        assert message.encode() != default
        # A fresh message still gets the pristine bytes.
        assert Message(model).encode() == default

    def test_select_invalidates_cleanliness(self):
        model = _rich_model()
        message = Message(model)
        pristine = message.encode()
        message.select("kind", "answer")
        with tree_walk():
            reference = Message(model)
        reference.select("kind", "answer")
        assert message.encode() == reference.encode()
        assert Message(model).encode() == pristine


class TestTemplateMachinery:
    def test_template_for_is_cached_per_model(self):
        model = _rich_model()
        assert template_for(model) is template_for(model)

    def test_state_for_caches_by_selection(self):
        template = ModelTemplate(_rich_model())
        default = template.state_for({"kind": "query"})
        assert template.state_for({"kind": "query"}) is default
        other = template.state_for({"kind": "answer"})
        assert other is not default
        assert set(default.field_paths) != set(other.field_paths)

    def test_target_paths_match_strategy_view(self):
        """target_paths must equal fields() + choice_paths() order-for-order."""
        model = _rich_model()
        fast, slow = _messages(model)
        state = fast._tpl.state_for(fast._selections)
        expected = [path for path, _ in slow.fields()] + slow.choice_paths()
        assert list(state.target_paths) == expected

    def test_dropped_model_frees_its_template(self):
        """The cache is keyed weakly by the model: once a model is gone
        its template must go too (a template pinning its own key
        leaked one compiled graph per model ever built)."""
        gc.collect()
        before = len(_TEMPLATES)
        model = _rich_model()
        message = Message(model)
        message.encode()
        assert len(_TEMPLATES) == before + 1
        del model, message
        gc.collect()
        assert len(_TEMPLATES) == before

    def test_unknown_leaf_kind_is_untemplatable(self):
        class Weird(DataElement):
            def default_value(self):
                return None

            def encode_value(self, value, message):
                return b""

        model = DataModel("weird", [Weird("w")])
        with pytest.raises(UntemplatableModel):
            ModelTemplate(model)
        assert template_for(model) is None
        message = Message(model)  # falls back to the tree walks
        assert message._tpl is None
        assert message.encode() == b""
