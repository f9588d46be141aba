"""Puts this directory on ``sys.path`` so the test modules can import ``oracles`` under any import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
