"""Make the benchmark's modules and the program importable in tests.

Run from the root of a source checkout::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
