"""The runtime never needs scipy: it is a test-only dependency.

scipy is the oracle of ``tests/laminar/test_stats_oracle.py`` and is
installed with the ``test`` extra only. A fresh interpreter whose imports
of ``scipy`` fail must still import every package the fabric uses, run
the fabric through its Laminar epochs, and compute a confidence interval.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PROBE = (
    "import importlib.abc, json, sys\n"
    "class BlockScipy(importlib.abc.MetaPathFinder):\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            raise ImportError(f'scipy is blocked: {name}')\n"
    "        return None\n"
    "sys.meta_path.insert(0, BlockScipy())\n"
    "import repro, repro.analysis, repro.core, repro.laminar\n"
    "from repro.analysis import confidence_interval\n"
    "from repro.core import FabricConfig, XGFabric\n"
    "fab = XGFabric(FabricConfig(seed=3))\n"
    "fab.run(2 * 3600.0)\n"
    "print(json.dumps({\n"
    "    'epochs': fab.hub.detection.epochs,\n"
    "    'interval': confidence_interval([1.0, 2.0, 3.0, 4.0]),\n"
    "    'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
    "}))\n"
)


def test_fabric_runs_with_scipy_imports_blocked():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["epochs"] >= 2
    # mean 2.5 +/- t(0.975, 3) * sem, with t(0.975, 3) = 3.182446305284263
    half = 3.182446305284263 * (5.0 / 3.0) ** 0.5 / 2.0
    assert result["interval"] == pytest.approx([2.5 - half, 2.5 + half], rel=1e-12)
    assert result["scipy"] == []
