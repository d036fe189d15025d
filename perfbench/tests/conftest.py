import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)
