import os
import sys
from pathlib import Path

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))

# tests that start `python -m spherekuramoto.cli` in a subprocess import the
# package from the same src/ tree that pyproject's pythonpath gives pytest
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
