#!/usr/bin/env python
"""Out-of-tree plugin smoke: the discovery contract, end to end.

Authors a throwaway target module and a throwaway mode module in a
temporary directory — modules nobody in-tree knows about — then drives
the installed CLI in fresh subprocesses to prove both plugin paths work
without a single repo edit:

1. without ``CMFUZZ_TARGET_MODULES`` the catalogue must NOT list the
   plugin target (discovery is opt-in, not ambient);
2. with the variable set, ``python -m repro targets`` must list the
   plugin alongside every in-tree target;
3. ``python -m repro campaign --target plugin_smoke`` must run a short
   campaign against it and export positive coverage;
4. ``python -m repro modes`` must list the plugin mode only when
   ``CMFUZZ_MODE_MODULES`` names its module;
5. ``python -m repro campaign --target dnsmasq --mode plugin_smoke``
   must export positive coverage;
6. a plugin module that raises must make every ``repro targets``
   invocation exit non-zero (a broken plugin never silently shrinks the
   catalogue to the built-ins).

Exits non-zero with a ``FAIL:`` line on the first broken promise. CI's
``plugin-smoke`` job runs this; it works locally too::

    PYTHONPATH=src python scripts/plugin_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile
import textwrap

#: The throwaway target. Deliberately self-contained: its only imports
#: are the public plugin surface an out-of-tree author would use, and it
#: registers with a plain dict manifest (no target.json on disk).
PLUGIN_MODULE = "cmfuzz_smoke_plugin"
PLUGIN_TARGET = "plugin_smoke"
PLUGIN_SOURCE = textwrap.dedent("""
    from repro.core.extraction import ConfigSources
    from repro.fuzzing.datamodel import Blob, DataModel, Number
    from repro.fuzzing.statemodel import Action, State, StateModel
    from repro.targets.base import ProtocolTarget
    from repro.targets.registry import register_target

    CONFIG_FILE = "port=9901\\nshout=false\\n"


    class PluginSmokeTarget(ProtocolTarget):
        NAME = "plugin_smoke"
        PROTOCOL = "ECHO"
        PORT = 9901

        @classmethod
        def config_sources(cls):
            return ConfigSources(files=(("plugin_smoke.conf", CONFIG_FILE),))

        @classmethod
        def default_config(cls):
            return {"port": 9901, "shout": False}

        def _startup_impl(self):
            self.cov.hit("startup.complete")
            self.cov.branch("startup.shout", self.enabled("shout"))

        def reset_session(self):
            pass

        def handle_packet(self, data):
            self.require_started()
            if not data:
                self.cov.hit("recv.empty")
                return b""
            self.cov.hit("recv.op.%d" % (data[0] % 4))
            self.cov.branch("recv.long", len(data) > 8)
            if self.enabled("shout"):
                return data.upper()
            return data


    def state_model():
        return StateModel(
            "plugin-smoke", "start",
            [State("start", [Action("send", "Ping")])
             .add_transition("finish", 1.0),
             State("finish")],
            [DataModel("Ping", [Number("op", 8, default=1),
                                Blob("payload", default=b"hello")])])


    register_target("plugin_smoke", PluginSmokeTarget, state_model, {
        "name": "plugin_smoke",
        "protocol": "ECHO",
        "description": "Throwaway out-of-tree target for the CI plugin smoke.",
        "port": 9901,
        "config_surface": {"format": "key-value file", "keys": 2},
        "pit": "cmfuzz_smoke_plugin:state_model",
    })
""")

#: The throwaway mode: an out-of-tree scheduler reusing the Peach
#: parallel mode's behaviour under a new registry name.
MODE_MODULE = "cmfuzz_smoke_mode"
PLUGIN_MODE = "plugin_smoke"
MODE_SOURCE = textwrap.dedent("""
    from repro.parallel.peach import PeachParallelMode
    from repro.parallel.registry import register_mode


    class PluginSmokeMode(PeachParallelMode):
        \"\"\"Throwaway out-of-tree mode for the CI plugin smoke.\"\"\"

        name = "plugin_smoke"


    register_mode("plugin_smoke", PluginSmokeMode)
""")

#: A plugin whose import fails.
BROKEN_MODULE = "cmfuzz_smoke_broken"
BROKEN_SOURCE = "raise ImportError('deliberately broken smoke plugin')\n"


def fail(message):
    print("FAIL: %s" % message)
    raise SystemExit(1)


def cli(args, env, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro"] + args,
        env=env, cwd=cwd, capture_output=True, text=True)


def run_cli(args, env, cwd):
    proc = cli(args, env, cwd)
    if proc.returncode != 0:
        fail("`repro %s` exited %d:\n%s\n%s"
             % (" ".join(args), proc.returncode, proc.stdout, proc.stderr))
    return proc.stdout


def exported_coverage(export_path, field, expected):
    """The positive ``final_coverage`` of a one-campaign export whose
    ``field`` names ``expected``."""
    with open(export_path, encoding="utf-8") as handle:
        export = json.load(handle)
    if not export:
        fail("campaign export is empty")
    record = export[0]
    if record.get(field) != expected:
        fail("export records %s %r, expected %r"
             % (field, record.get(field), expected))
    coverage = record.get("final_coverage", 0)
    if not coverage or coverage <= 0:
        fail("campaign reported non-positive coverage %r" % coverage)
    return coverage


def in_tree_targets(env):
    """The in-tree catalogue, read in a subprocess WITHOUT the plugin
    discovery variable — the reference the plugin must not disturb."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.targets import target_names; "
         "print('\\n'.join(target_names()))"],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        fail("could not read the in-tree catalogue:\n%s" % proc.stderr)
    return [line for line in proc.stdout.splitlines() if line]


def main():
    base_env = {k: v for k, v in os.environ.items()
                if k not in ("CMFUZZ_TARGET_MODULES", "CMFUZZ_MODE_MODULES")}
    if base_env.get("PYTHONPATH"):
        # Subprocesses run from a temp dir; keep relative entries (the
        # local `PYTHONPATH=src` invocation) pointing at the repo.
        base_env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p)
            for p in base_env["PYTHONPATH"].split(os.pathsep) if p)
    builtins = in_tree_targets(base_env)
    if PLUGIN_TARGET in builtins:
        fail("%r is already an in-tree target; the smoke needs a fresh name"
             % PLUGIN_TARGET)

    with tempfile.TemporaryDirectory(prefix="cmfuzz-plugin-") as tmpdir:
        for module, source in ((PLUGIN_MODULE, PLUGIN_SOURCE),
                               (MODE_MODULE, MODE_SOURCE),
                               (BROKEN_MODULE, BROKEN_SOURCE)):
            with open(os.path.join(tmpdir, module + ".py"),
                      "w", encoding="utf-8") as handle:
                handle.write(source)

        plugin_env = dict(base_env)
        plugin_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmpdir, base_env.get("PYTHONPATH")) if p)
        plugin_env["CMFUZZ_TARGET_MODULES"] = PLUGIN_MODULE

        # 1. Discovery is opt-in: no env var, no plugin.
        table = run_cli(["targets"], base_env, tmpdir)
        if PLUGIN_TARGET in table:
            fail("catalogue lists %r without CMFUZZ_TARGET_MODULES set"
                 % PLUGIN_TARGET)

        # 2. With it, the table lists the plugin AND every in-tree target.
        table = run_cli(["targets"], plugin_env, tmpdir)
        for name in builtins + [PLUGIN_TARGET]:
            if "`%s`" % name not in table:
                fail("`repro targets` table is missing %r:\n%s"
                     % (name, table))
        print("catalogue lists %d in-tree targets + %r"
              % (len(builtins), PLUGIN_TARGET))

        # 3. A short campaign against the plugin completes and exports
        #    positive coverage.
        export_path = os.path.join(tmpdir, "plugin_campaign.json")
        run_cli(["campaign", "--target", PLUGIN_TARGET, "--mode", "cmfuzz",
                 "--instances", "2", "--hours", "1", "--seed", "3",
                 "--no-cache", "--export", export_path],
                plugin_env, tmpdir)
        coverage = exported_coverage(export_path, "target", PLUGIN_TARGET)
        print("campaign on target %r exported final_coverage=%s"
              % (PLUGIN_TARGET, coverage))

        # 4. The plugin mode is listed only when its module is named.
        table = run_cli(["modes"], plugin_env, tmpdir)
        if "`%s`" % PLUGIN_MODE in table:
            fail("`repro modes` lists %r without CMFUZZ_MODE_MODULES set"
                 % PLUGIN_MODE)
        mode_env = dict(plugin_env)
        mode_env["CMFUZZ_MODE_MODULES"] = MODE_MODULE
        table = run_cli(["modes"], mode_env, tmpdir)
        if "`%s`" % PLUGIN_MODE not in table:
            fail("`repro modes` table is missing %r:\n%s"
                 % (PLUGIN_MODE, table))

        # 5. A short campaign under the plugin mode exports coverage.
        export_path = os.path.join(tmpdir, "plugin_mode_campaign.json")
        run_cli(["campaign", "--target", "dnsmasq", "--mode", PLUGIN_MODE,
                 "--instances", "2", "--hours", "1", "--seed", "3",
                 "--no-cache", "--export", export_path],
                mode_env, tmpdir)
        coverage = exported_coverage(export_path, "mode", PLUGIN_MODE)
        print("campaign under mode %r exported final_coverage=%s"
              % (PLUGIN_MODE, coverage))

        # 6. A plugin that raises fails every query, not just the first:
        #    each invocation is a fresh discovery, and none may fall back
        #    to the built-in catalogue.
        broken_env = dict(plugin_env)
        broken_env["CMFUZZ_TARGET_MODULES"] = BROKEN_MODULE
        for attempt in (1, 2):
            proc = cli(["targets"], broken_env, tmpdir)
            if proc.returncode == 0:
                fail("`repro targets` exited 0 with a broken plugin "
                     "(attempt %d):\n%s" % (attempt, proc.stdout))
            if "deliberately broken" not in proc.stderr:
                fail("`repro targets` failed without naming the broken "
                     "plugin's error:\n%s" % proc.stderr)
        print("a broken plugin fails every `repro targets` invocation")

    print("plugin smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
