"""The tests that start a fresh interpreter (`python -m nu_spectral.cli`, or
`python -c` probes) import the package from this tree's src/, as the tests
themselves do through pyproject's pythonpath, whether or not the caller set
PYTHONPATH."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
