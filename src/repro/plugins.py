"""One registry idiom: the catalogue behind the mode and target registries.

:mod:`repro.parallel.registry` (schedulers) and
:mod:`repro.targets.registry` (systems under test) each keep one
:class:`Catalogue`. The catalogue owns what the two share:

- the ``name -> entry`` dict, with re-registration of the same
  implementation a no-op and a different one refused unless
  ``replace=True``;
- lookups that raise a ``KeyError`` naming every registered entry;
- lazy discovery on the first query: the registry's scan hook, then
  every module named in its environment variable (comma-separated
  import paths), then its ``importlib.metadata`` entry-point group.

Discovery is thread-safe and published only on success. Concurrent
first queries (fleet agent threads resolving specs at once) wait on one
lock, so no thread sees a half-populated catalogue. A plugin whose
import raises fails the query that ran the scan *and every later one*,
until the plugin is fixed — discovery is never marked done over an
error, so a broken plugin cannot silently shrink the catalogue to the
built-ins. A module that queries its own catalogue while being imported
by the scan re-enters on the same thread and sees the entries
registered so far.
"""

from __future__ import annotations

import importlib
import os
import threading
from importlib import metadata
from typing import Callable, Dict, Generic, Iterable, Sequence, Tuple, TypeVar

E = TypeVar("E")


class Catalogue(Generic[E]):
    """A named plugin catalogue with lazy, thread-safe discovery.

    Args:
        kind: What an entry is (``"mode"``, ``"target"``); error
            messages name it.
        env_var: Environment variable listing extra modules to import.
        group: ``importlib.metadata`` entry-point group to load.
        load_point: Registers one entry point of ``group``.
        owner: The objects that identify an entry's implementation;
            registering an entry with the same owner is a no-op.
        scan: Hook returning in-tree module names to import before the
            environment variable's (none by default).
    """

    def __init__(self, kind: str, env_var: str, group: str,
                 load_point: Callable[[metadata.EntryPoint], None],
                 owner: Callable[[E], Tuple],
                 scan: Callable[[], Iterable[str]] = tuple):
        self.kind = kind
        self.env_var = env_var
        self.group = group
        self._load_point = load_point
        self._owner = owner
        self._scan = scan
        self._entries: Dict[str, E] = {}
        self._lock = threading.RLock()
        self._discovered = False
        self._discovering = False

    def check_name(self, name: str) -> None:
        """Reject names that are not identifier-like tokens."""
        if not name or not name.replace("-", "_").isidentifier():
            raise ValueError("%s name must be a non-empty identifier, got %r"
                             % (self.kind, name))

    def register(self, name: str, entry: E, replace: bool = False) -> E:
        """Store ``entry`` under ``name``; returns the registered entry."""
        existing = self._entries.get(name)
        if existing is not None and not replace:
            if self._owner(existing) == self._owner(entry):
                return existing
            raise ValueError(
                "%s %r is already registered to %r (pass replace=True to "
                "override)" % (self.kind, name, self._owner(existing)[0]))
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        self._entries.pop(name, None)

    def get(self, name: str) -> E:
        self._discover()
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError("unknown %s %r; registered %ss: %s"
                           % (self.kind, name, self.kind,
                              ", ".join(sorted(self._entries)) or "<none>"))

    def names(self) -> Tuple[str, ...]:
        self._discover()
        return tuple(sorted(self._entries))

    def entries(self) -> Tuple[E, ...]:
        self._discover()
        return tuple(self._entries[name] for name in sorted(self._entries))

    def _discover(self) -> None:
        if self._discovered:
            return
        with self._lock:
            if self._discovered or self._discovering:
                return
            self._discovering = True
            try:
                self._scan_plugins()
                self._discovered = True
            finally:
                self._discovering = False

    def _scan_plugins(self) -> None:
        modules = list(self._scan())
        modules += os.environ.get(self.env_var, "").split(",")
        for module_name in modules:
            if module_name.strip():
                importlib.import_module(module_name.strip())
        points = metadata.entry_points()
        if hasattr(points, "select"):  # py3.10+
            group = points.select(group=self.group)
        else:  # py3.9 returns a plain dict
            group = points.get(self.group, ())
        for point in group:
            self._load_point(point)


def markdown_table(headers: Sequence[str],
                   rows: Sequence[Sequence[str]]) -> str:
    """A markdown table padding every column except the last (README
    catalogue tables regenerate from this)."""
    widths = [max([len(header)] + [len(row[i]) for row in rows])
              for i, header in enumerate(headers[:-1])]
    widths.append(len(headers[-1]))

    def line(cells):
        padded = ["%-*s" % (width, cell) for width, cell in zip(widths, cells)]
        return "| %s |" % " | ".join(padded[:-1] + [cells[-1]])

    out = [line(headers),
           "|%s|" % "|".join("-" * (width + 2) for width in widths)]
    out.extend(line(row) for row in rows)
    return "\n".join(out)
