import os
import sys

import pytest

# Make sibling test helpers (oracles, sample data builders) importable when
# pytest is run from the repository root.
sys.path.insert(0, os.path.dirname(__file__))

FOURTEEN = "oLLLLLPwQQcccefgijlmkklnnnlnewbnetafobnkj_12001112122200"


@pytest.fixture(scope="session")
def fourteen_tet():
    """Analysis of the 14-tetrahedron sample entry, shared by the whole
    session so that its double-cover polynomial (about two minutes) is
    computed once."""
    from veerpoly.census_io import parse_taut_sig
    from veerpoly.invariants import Analysis
    return Analysis(parse_taut_sig(FOURTEEN))
