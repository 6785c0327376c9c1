"""What ``import repro`` loads.

The library path (``repro.evaluate``, ``SweepEngine``, the CLIs' import
cost) runs in-process; the process runtime belongs to serving and the
Monte-Carlo replica pool only, so importing the package must not pull
in ``multiprocessing``, ``asyncio`` or the worker topologies.

The layers import downwards: the engine evaluates points and knows
nothing of the analysis layer built on top of it.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import repro

_PROBE = (
    "import json, sys, repro; "
    "print(json.dumps(sorted(m for m in sys.modules if m in {names})))"
)


def _loaded_after_import(names):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _PROBE.format(names=sorted(names))],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout)


def test_import_repro_leaves_process_runtime_unloaded():
    unwanted = {"multiprocessing", "asyncio", "repro.runtime.topology"}
    assert _loaded_after_import(unwanted) == []


def test_import_repro_leaves_scipy_unloaded():
    # scipy's import costs about as much as numpy's; only the transient
    # solve (``CTMC.transient_distribution``) needs it, and it loads it.
    assert _loaded_after_import({"scipy"}) == []


def _imported_modules(path, package):
    """Absolute names of every module ``path`` imports, lazy imports
    inside functions included (``package`` resolves relative ones)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[: len(parts) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_engine_does_not_import_analysis():
    engine_dir = pathlib.Path(repro.__file__).resolve().parent / "engine"
    offenders = {}
    for path in sorted(engine_dir.glob("*.py")):
        bad = sorted(
            name
            for name in _imported_modules(path, "repro.engine")
            if name == "repro.analysis" or name.startswith("repro.analysis.")
        )
        if bad:
            offenders[path.name] = bad
    assert offenders == {}
