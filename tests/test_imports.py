"""Modules of the package import only public names from each other,
import nothing from the benchmark or the tests, define nothing that
only the tests read (no function, class, module constant or data
member), store no attribute that no package class declares, and store
attributes only inside a class body."""

import ast
import os

from veerpoly import cli

PACKAGE = os.path.dirname(cli.__file__)
TESTS = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(TESTS, os.pardir, "perfbench")


def parsed_modules(directory):
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            with open(os.path.join(directory, fname)) as fh:
                yield fname, ast.parse(fh.read(), fname)


def test_no_private_names_imported_across_modules():
    private = []
    for fname, tree in parsed_modules(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("veerpoly")):
                private += ["%s: %s" % (fname, alias.name)
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_no_module_of_the_benchmark_or_tests_imported():
    # the benchmark and the test suite put their directories on sys.path,
    # so a package module could import spans, workloads, oracles, ...
    outside = {"perfbench", "tests"}
    for directory in (PERFBENCH, TESTS):
        outside.update(fname[:-3] for fname, _ in parsed_modules(directory))
    assert {"spans", "workloads", "oracles", "bundles", "conftest"} <= outside
    found = []
    for fname, tree in parsed_modules(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += ["%s:%d: %s" % (fname, node.lineno, name)
                      for name in modules
                      if name.split(".")[0] in outside]
    assert found == []


def names_read():
    """Every name and attribute the package or the benchmark reads."""
    read = set()
    for directory in (PACKAGE, PERFBENCH):
        for _, tree in parsed_modules(directory):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return read


def test_every_definition_is_read_outside_the_tests():
    # each function, method and class of the package is read by name
    # somewhere in the package or the benchmark; dunder methods are
    # called by the interpreter
    defined = {}
    for fname, tree in parsed_modules(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, "%s:%d" % (fname, node.lineno))
    read = names_read()
    unread = sorted(where for name, where in defined.items()
                    if name not in read
                    and not (name.startswith("__") and name.endswith("__")))
    assert unread == []


def test_every_module_constant_is_read_outside_the_tests():
    # each name assigned at the top level of a package module is read
    # somewhere in the package or the benchmark
    assigned = []
    for fname, tree in parsed_modules(PACKAGE):
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            assigned += [(name.id, "%s:%d" % (fname, node.lineno))
                         for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
    assert assigned
    read = names_read()
    assert sorted(where for name, where in assigned if name not in read) == []


def attributes_read():
    """Every attribute the package or the benchmark reads, other than
    as the callee of a call: ``rng.choice(...)`` reads no member."""
    read = set()
    for directory in (PACKAGE, PERFBENCH):
        for _, tree in parsed_modules(directory):
            callees = {id(node.func) for node in ast.walk(tree)
                       if isinstance(node, ast.Call)}
            read.update(node.attr for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and id(node) not in callees)
    return read


def data_members():
    """(class, member, where) of every ``__slots__`` entry and every
    ``self.X`` store in the methods of a package class."""
    members = []
    for fname, tree in parsed_modules(PACKAGE):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign) and any(
                        isinstance(target, ast.Name)
                        and target.id == "__slots__"
                        for target in node.targets):
                    names = ast.literal_eval(node.value)
                elif isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Store) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id == "self":
                    names = [node.attr]
                else:
                    continue
                members += [(cls.name, name, "%s:%d" % (fname, node.lineno))
                            for name in names]
    return members


def test_every_data_member_is_read_outside_the_tests():
    # each data member of a package class is read as an attribute
    # somewhere in the package or the benchmark
    members = data_members()
    # one member of each kind: a __slots__ entry and a self.X store
    assert {("Coorientation", "below"), ("GluingTable", "faces")} <= \
        {(cls, name) for cls, name, _ in members}
    read = attributes_read()
    unread = {}
    for cls, name, where in members:
        if name not in read:
            unread.setdefault("%s.%s" % (cls, name), where)
    assert sorted(unread.items()) == []


def test_every_stored_attribute_is_a_declared_member():
    # the package stores attributes only under names that some package
    # class declares (a __slots__ entry or a self.X store), so no object
    # gains a member from outside that its class does not list
    declared = {name for _, name, _ in data_members()}
    stored = []
    for fname, tree in parsed_modules(PACKAGE):
        stored += ["%s:%d %s.%s" % (fname, node.lineno,
                                    ast.unparse(node.value), node.attr)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Store)
                   and node.attr not in declared]
    assert stored == []


def test_attributes_are_stored_only_inside_class_bodies():
    # an object is built whole by its own class: no function outside a
    # class body sets a member after construction (``obj.x = ...``)
    outside = []
    for fname, tree in parsed_modules(PACKAGE):
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
        outside += ["%s:%d %s.%s" % (fname, node.lineno,
                                     ast.unparse(node.value), node.attr)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and id(node) not in inside]
    assert outside == []


def terms_loop_operand(loop):
    """The source of X when loop (a for statement or a comprehension
    clause) runs over ``X.terms.items()``, else None."""
    it = loop.iter
    if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute) \
            and it.func.attr == "items" \
            and isinstance(it.func.value, ast.Attribute) \
            and it.func.value.attr == "terms":
        return ast.unparse(it.func.value.value)
    return None


def pair_of_terms_loops(tree):
    """The qualified name of every function that nests a loop over one
    polynomial's ``.terms.items()`` inside a loop over another's."""
    found = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, name + [child.name])
                continue
            if isinstance(child, ast.For):
                outer = terms_loop_operand(child)
                inner = [terms_loop_operand(n) for n in ast.walk(child)
                         if n is not child
                         and isinstance(n, (ast.For, ast.comprehension))]
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp,
                                    ast.GeneratorExp)):
                operands = [terms_loop_operand(g) for g in child.generators]
                outer = operands[0]
                inner = operands[1:]
            else:
                outer = None
            if outer is not None and \
                    any(x is not None and x != outer for x in inner):
                found.add(".".join(name))
            visit(child, name)

    visit(tree, [])
    return found


def test_sub_mul_is_the_one_loop_over_pairs_of_terms():
    # +, -, * and ** of Laurent polynomials are sub_mul calls, so no
    # other package function multiplies pairs of terms in a loop of its
    # own
    found = set()
    for fname, tree in parsed_modules(PACKAGE):
        found |= {"%s:%s" % (fname, name)
                  for name in pair_of_terms_loops(tree)}
    assert found == {"laurent.py:LaurentPoly.sub_mul"}
