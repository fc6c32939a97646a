import sys
from pathlib import Path

# the benchmark's tests import ccrnn from the checkout, like the benchmark does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
