"""Set-up probe: a fresh process that gets pinlab ready to run a workload.

    python3 bench/setup_probe.py CONFIG.json [CONFIG.json ...]

Imports the package and its CLI (numpy and scipy come with it), parses each
config and builds its kernel and disorder law, then prints ``ready``.  The
runner times this from process start to that line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pinlab import cli  # noqa: E402,F401  (the import is the main cost being measured)
from pinlab.disorder import disorder_from_json  # noqa: E402
from pinlab.kernels import kernel_from_json  # noqa: E402

for path in sys.argv[1:]:
    with open(path) as fh:
        cfg = json.load(fh)
    kernel_from_json(cfg["kernel"])
    if "disorder" in cfg:
        disorder_from_json(cfg["disorder"])
print("ready", flush=True)
