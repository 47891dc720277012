"""The kept reference twins of the engine's hot-loop components.

Campaigns run on compiled model templates, interned coverage and the
batched channel transport. Each has a plainer twin kept in the tree for
differential tests: the tree-walking ``Message`` bodies (taken when the
template lookup returns ``None``), the dict-backed ``CoverageCollector``
and ``ChannelTransport``. These helpers patch them in for a block.
"""

from contextlib import contextmanager
from unittest import mock

from repro.coverage.collector import CoverageCollector
from repro.fuzzing.engine import ChannelTransport


def tree_walk():
    """Build messages without a template, on the tree-walking bodies."""
    return mock.patch("repro.fuzzing.datamodel._resolve_template",
                      lambda model: None)


@contextmanager
def reference_components():
    """Run campaigns on all three reference twins."""
    with tree_walk(), \
            mock.patch("repro.parallel.instance.make_collector",
                       CoverageCollector), \
            mock.patch("repro.parallel.instance.BatchedChannelTransport",
                       ChannelTransport):
        yield
