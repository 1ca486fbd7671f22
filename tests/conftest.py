import os
import sys

# Make sibling test helpers (oracles, sample data builders) importable when
# pytest is run from the repository root.
sys.path.insert(0, os.path.dirname(__file__))
