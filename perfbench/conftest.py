import sys
from pathlib import Path

# the benchmark's modules import the package from the checkout's src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
