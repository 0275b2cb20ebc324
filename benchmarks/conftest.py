"""Benchmark suite configuration: make sibling helper modules and the
test oracles (``tests.oracles``) importable."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent))
