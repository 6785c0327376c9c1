"""What ``import repro`` loads.

The library path (``repro.evaluate``, ``SweepEngine``, the CLIs' import
cost) runs in-process; the process runtime belongs to serving and the
Monte-Carlo replica pool only, so importing the package must not pull
in ``multiprocessing``, ``asyncio`` or the worker topologies.
"""

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
