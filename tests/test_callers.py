"""Every public function of the package has a caller outside the tests,
unless it is the reference that an acceptance test rests on."""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")

# public functions whose only callers are tests: each names the test that
# uses it and why it stays in the package
TEST_ONLY = {
    "hilbert_transform": ("test_acceptance.py", "test_criterion_01_flat_quadrature_oracle",
                          "criterion 1: the flat-interface closed form"),
    "dv1_at_zero_full": ("test_acceptance.py", "test_criterion_04_reduced_vs_full_identity",
                         "criterion 4: the reference for dv1_at_zero_reduced"),
    "energy_distance": ("test_acceptance.py", "test_criterion_10_conservation_and_stability",
                        "criterion 10: the distance whose decay it bounds"),
    "perturb_h4": ("test_initial_data.py", "test_perturb_h4_exact_size_and_reproducible",
                   "ROADMAP item 2: the open-set scenario, not yet written"),
}


def _trees(pattern):
    for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
        with open(path) as fh:
            yield path, ast.parse(fh.read())


def _references(tree):
    """(name, line) of every name read and every attribute taken."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def uncalled_functions():
    """Public module functions and methods of src/turnwave whose name is
    referenced nowhere in src/turnwave or scripts outside their own body."""
    package = list(_trees("src/turnwave/*.py"))
    refs = [(path, name, line)
            for path, tree in package + list(_trees("scripts/*.py"))
            for name, line in _references(tree)]
    uncalled = set()
    for path, tree in package:
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            defs += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
        for fn in defs:
            if fn.name.startswith("_"):
                continue
            if not any(name == fn.name and not (where == path and
                                                fn.lineno <= line <= fn.end_lineno)
                       for where, name, line in refs):
                uncalled.add(fn.name)
    return uncalled


def test_every_public_function_has_a_caller_outside_the_tests():
    assert uncalled_functions() == set(TEST_ONLY)


def test_test_only_functions_are_used_by_their_tests():
    for name, (test_file, test_name, _) in TEST_ONLY.items():
        (_, tree), = _trees(os.path.join("tests", test_file))
        test, = (node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == test_name)
        assert name in {ref for ref, _ in _references(test)}, (name, test_name)
