"""``import repro.parallel`` stays light: every spawned worker pays for it.

A spawned worker imports ``repro.parallel.worker`` (and with it the
package) before it can run its shard, so whatever the package pulls in
lands in each worker's start-up time and memory. The fabric stack --
sensors, Laminar and CFD -- must stay out, and so must CSPOT: the layer
passes the envelopes a shard sends to its hub without reading them. So
must ``scipy``, which only the tests import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = (
    "import json, sys\n"
    "import repro.parallel\n"
    "print(json.dumps({\n"
    "    'repro': sorted({m.split('.')[1] for m in sys.modules\n"
    "                     if m.startswith('repro.')}),\n"
    "    'scipy': any(m.split('.')[0] == 'scipy' for m in sys.modules),\n"
    "}))\n"
)


def test_package_import_loads_only_the_shard_stack():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    loaded = json.loads(out)
    assert loaded["repro"] == ["obs", "parallel", "radio", "simkernel"]
    assert loaded["scipy"] is False
