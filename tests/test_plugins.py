"""The discovery contract the mode and target catalogues share.

Both registries discover out-of-tree plugins through one
:class:`repro.plugins.Catalogue`: discovery is thread-safe, published
only when the whole scan succeeds, and a failing plugin fails every
query. Each case runs in a fresh interpreter, so discovery starts from
scratch exactly as in a real process, and is parametrized over both
registries.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Per registry: its discovery variable, its query functions, and the
#: body of a plugin module registering one entry named ``slow_plugin``.
REGISTRIES = {
    "mode": {
        "env": "CMFUZZ_MODE_MODULES",
        "query": "from repro.parallel.registry import get_mode as get, "
                 "mode_names as names",
        "register": """
            from repro.parallel.peach import PeachParallelMode
            from repro.parallel.registry import register_mode

            register_mode("slow_plugin", PeachParallelMode)
        """,
    },
    "target": {
        "env": "CMFUZZ_TARGET_MODULES",
        "query": "from repro.targets import get_target as get, "
                 "target_names as names",
        "register": """
            from repro.pits.dns import state_model
            from repro.targets.dns.server import DnsmasqTarget
            from repro.targets.registry import register_target

            register_target("slow_plugin", DnsmasqTarget, state_model, {
                "name": "slow_plugin",
                "protocol": "DNS",
                "description": "A plugin that is slow to import.",
                "port": 53,
                "config_surface": {"format": "key-value file", "keys": 1},
                "pit": "repro.pits.dns:state_model",
            })
        """,
    },
}

#: Imported by the slow plugin and by the driver, so the driver knows
#: when discovery is inside the plugin's import.
GATE_SOURCE = """
import threading

entered = threading.Event()
"""

SLOW_PLUGIN_PREFIX = """
import time

import _plugin_gate

_plugin_gate.entered.set()
time.sleep(0.5)
"""

RACE_DRIVER = """
import json
import threading

import _plugin_gate
{query}

outcomes = []


def lookup():
    try:
        outcomes.append(get("slow_plugin").name)
    except KeyError as error:
        outcomes.append("KeyError: %s" % error)


discovering = threading.Thread(target=names)
discovering.start()
if not _plugin_gate.entered.wait(30):
    raise SystemExit("discovery never reached the plugin")
racers = [threading.Thread(target=lookup) for _ in range(4)]
for racer in racers:
    racer.start()
for thread in [discovering] + racers:
    thread.join(30)
    if thread.is_alive():
        raise SystemExit("a query thread hung")
print(json.dumps(outcomes))
"""

REQUERY_DRIVER = """
import json

{query}

outcomes = []
for _ in range(3):
    try:
        names()
    except ImportError as error:
        outcomes.append("ImportError: %s" % error)
    else:
        outcomes.append("catalogue returned")
print(json.dumps(outcomes))
"""


def _run(tmp_path, registry, plugin, driver):
    """Run ``driver`` in a fresh interpreter whose discovery variable
    names one plugin module with source ``plugin``."""
    (tmp_path / "_plugin_gate.py").write_text(GATE_SOURCE, encoding="utf-8")
    (tmp_path / "_plugin.py").write_text(plugin, encoding="utf-8")
    env = {key: value for key, value in os.environ.items()
           if key not in ("CMFUZZ_MODE_MODULES", "CMFUZZ_TARGET_MODULES")}
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), _SRC])
    env[REGISTRIES[registry]["env"]] = "_plugin"
    proc = subprocess.run(
        [sys.executable, "-c",
         driver.format(query=REGISTRIES[registry]["query"])],
        env=env, cwd=str(tmp_path), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_queries_during_discovery_wait_for_it(tmp_path, registry):
    """A query made while another thread is still importing a plugin
    sees the finished catalogue, not a half-populated one."""
    plugin = SLOW_PLUGIN_PREFIX + textwrap.dedent(
        REGISTRIES[registry]["register"])
    outcomes = _run(tmp_path, registry, plugin, RACE_DRIVER)
    assert outcomes == ["slow_plugin"] * 4


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
def test_failing_plugin_fails_every_query(tmp_path, registry):
    """Discovery is never marked done over an error: a plugin whose
    import raises keeps failing queries instead of leaving the
    built-ins as the whole catalogue."""
    outcomes = _run(tmp_path, registry, "raise ImportError('broken plugin')\n",
                    REQUERY_DRIVER)
    assert outcomes == ["ImportError: broken plugin"] * 3
