"""The import contract: what a host process loads, and what the façades promise.

A pipe worker (``import repro.bus.procpool``) and a TCP daemon
(``python -m repro.bus.tcp``) host prepared modules: they need the module
host, queues, codecs, ``mh``, telemetry and faults — not the transformer
pipeline, the MIL parser, the bus, the coordinator, or any third-party
package.  Every case runs in a fresh interpreter, because this process
has long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

FACADES = ["repro", "repro.bus", "repro.core", "repro.reconfig"]

#: What a host must not have loaded: these modules and anything below them.
FORBIDDEN = [
    "networkx",
    "repro.core.callgraph",
    "repro.core.recongraph",
    "repro.core.validate",
    "repro.core.desugar",
    "repro.core.varinfo",
    "repro.core.cfg",
    "repro.core.flatten",
    "repro.core.liveness",
    "repro.core.capture_blocks",
    "repro.core.transformer",
    "repro.bus.mil",
    "repro.bus.bus",
    "repro.reconfig",
    "repro.apps",
    "repro.tools",
    "repro.baselines",
]


def fresh(code: str):
    """Run ``code`` in a new interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# What the import added to ``sys.modules``: the interpreter's own start-up
# (``site`` and what ``.pth`` files pull in) is not the program's doing.
LOADED_BY = """
import json, sys
before = set(sys.modules)
import {module}
loaded = {{}}
for name in set(sys.modules) - before:
    loaded[name] = getattr(sys.modules[name], "__file__", None) or ""
print(json.dumps(loaded))
"""


def forbidden_in(loaded):
    return sorted(
        name
        for name in loaded
        if any(name == entry or name.startswith(entry + ".") for entry in FORBIDDEN)
    )


@pytest.mark.parametrize("module", ["repro.bus.procpool", "repro.bus.tcp"])
def test_host_closure(module):
    loaded = fresh(LOADED_BY.format(module=module))
    assert module in loaded
    assert forbidden_in(loaded) == []
    third_party = sorted(
        name
        for name, path in loaded.items()
        if "site-packages" in path.split(os.sep)
    )
    assert third_party == []


def test_bus_process_loads_the_pipeline_eagerly():
    """No first-use import of the transformer can land in ``launch()`` or
    ``replace()``: importing the bus has already loaded it."""
    loaded = fresh(LOADED_BY.format(module="repro.bus.bus"))
    assert "repro.core.transformer" in loaded
    assert "repro.core.callgraph" in loaded
    assert "networkx" not in loaded


FACADE_REPORT = """
import importlib, json, sys
package = importlib.import_module({package!r})
report = {{"all": list(package.__all__), "dir": dir(package)}}
report["identical"] = {{}}
for name in package.__all__:
    value = getattr(package, name)
    report["identical"][name] = any(
        getattr(module, name, None) is value
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro.")
        and not hasattr(module, "__path__")
    )
star = {{}}
exec("from {package} import *", star)
report["star"] = sorted(n for n in star if n != "__builtins__")
try:
    package.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
try:
    exec("from {package} import no_such_name")
except ImportError:
    report["unknown_from"] = True
print(json.dumps(report))
"""


@pytest.mark.parametrize("package", FACADES)
def test_facade_resolves_every_export(package):
    report = fresh(FACADE_REPORT.format(package=package))
    exported = report["all"]
    assert len(exported) == len(set(exported))
    assert set(exported) <= set(report["dir"])
    assert report["star"] == sorted(exported)
    # Each export is the very object a (non-package) submodule holds,
    # not a copy made by the façade; only the version lives in a façade.
    report["identical"].pop("__version__", None)
    assert set(report["identical"]) == set(exported) - {"__version__"}
    assert all(report["identical"].values()), report["identical"]
    assert "no_such_name" in report["unknown"]
    assert report["unknown_from"] is True


def test_facade_import_alone_loads_no_submodule():
    loaded = fresh(LOADED_BY.format(module="repro.reconfig"))
    assert sorted(n for n in loaded if n.startswith("repro")) == [
        "repro",
        "repro._lazy",
        "repro.reconfig",
    ]


def test_documented_entry_points_still_import():
    fresh(
        "from repro import SoftwareBus, move_module, parse_mil, __version__\n"
        "from repro.bus import Message\n"
        "from repro.core import prepare_module\n"
        "from repro.reconfig import BindBatch\n"
        "import repro\n"
        "assert repro.__version__ == __version__ == '1.0.0'\n"
        "print('null')\n"
    )
