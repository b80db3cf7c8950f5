"""The CLI tests start child interpreters (`python -m tricut.cli`); they
import the package from the same source tree as the test process, whether
or not the package is installed or PYTHONPATH is set."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
