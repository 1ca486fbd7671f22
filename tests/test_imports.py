"""Modules of the package import only public names from each other."""

import ast
import os

from veerpoly import cli

PACKAGE = os.path.dirname(cli.__file__)


def test_no_private_names_imported_across_modules():
    private = []
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("veerpoly")):
                private += ["%s: %s" % (fname, alias.name)
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
