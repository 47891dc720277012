"""Branch-coverage substrate (SanitizerCoverage trace-pc-guard analogue).

The paper instruments targets with Clang's ``trace-pc-guard`` to collect
branch coverage.  Our pure-Python targets call explicit probes instead:
every decision point executes ``cov.hit(site_id)`` where ``site_id`` is a
stable string naming that branch.  A :class:`CoverageMap` is a set-like
bitmap of hit sites supporting union, difference and counting, which is all
the fuzzers consume.

Campaign instances use :func:`make_collector`, whose
:class:`InternedCoverageCollector` replaces the string-keyed dicts with a
:class:`SiteInterner` (site string -> dense int id, once per campaign)
and :class:`IndexedCoverageMap` (array counters + int sets with bulk
union/diff). The dict-backed :class:`CoverageCollector` stays as the
public base class and the reference the differential suite in
``tests/coverage/test_indexed_equivalence.py`` holds the interned one
to: both are observationally identical.
"""

from repro.coverage.bitmap import CoverageMap
from repro.coverage.collector import (
    CoverageCollector,
    InternedCoverageCollector,
    NullCollector,
    make_collector,
)
from repro.coverage.indexed import IndexedCoverageMap
from repro.coverage.interner import SiteInterner

__all__ = [
    "CoverageMap",
    "CoverageCollector",
    "IndexedCoverageMap",
    "InternedCoverageCollector",
    "NullCollector",
    "SiteInterner",
    "make_collector",
]
