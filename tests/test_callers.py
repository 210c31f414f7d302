"""Every public function of the package has a caller outside the tests,
unless it is the reference that an acceptance test rests on; every
defaulted parameter of one has a call outside the tests that passes it,
unless a test needs it; and a module imports another module's private
names only where the reach is listed with its reason."""

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

# defaulted parameters (callee, name) that no call in src/turnwave or
# scripts passes: each names the test, or test helper, that passes it and
# why the option stays
TEST_ONLY_OPTIONS = {
    ("main", "argv"): ("test_config_cli.py", "test_cli_missing_config_exit_2",
                       "the console script calls main(); the tests run the CLI in process"),
    ("ScenarioConfig", "scenario"): ("test_acceptance.py", "_cfg",
                                     "the acceptance criteria build each scenario's config"),
    ("turning_candidate_periodic", "tilt"): ("test_stepping.py", "test_run_emits_turning_event",
                                             "a periodic graph that turns in a short run"),
}

# private names that one module of the package imports from another:
# (importer, module, name) and why the importer reaches for it
PRIVATE_IMPORTS = {
    ("initial_data", "singular", "_muskat_periodic"):
        "dv1_at_zero_periodic needs the periodic velocity on the five nodes around alpha = 0",
    ("scenarios", "stepping", "_brent"):
        "the RT sign change is located with the root finder that locates Turning",
    ("scenarios", "stepping", "_diagnose"):
        "verify recomputes each diagnostics row with the functions the run wrote it with",
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


def _options(tree):
    """(callee, function node, positional parameters, defaulted parameters)
    of each public function and method of a module.  The callee is the
    name a call uses: the class name for __init__.  A method's first
    parameter (self or cls) is dropped, unless it is a staticmethod."""
    defs = [(node.name, node, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        defs += [(cls.name if fn.name == "__init__" else fn.name, fn,
                  not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list))
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    for callee, fn, method in defs:
        if callee.startswith("_"):
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args][method:]
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        yield callee, fn, positional, defaulted


def _calls(tree):
    """(callee name, call node) of every call of a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def _passes(call, positional, param) -> bool:
    """Whether a call passes param: among its leading positional arguments,
    as a keyword, or through *args or **kwargs, which may hold anything."""
    return (param in positional[:len(call.args)] or param in {k.arg for k in call.keywords}
            or any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords))


def unpassed_options():
    """(callee, parameter) of each defaulted parameter of a public function
    or method of src/turnwave that no call in src/turnwave or scripts
    passes outside the function's own body.  Calls match by name, so a
    call of another function of the same name counts too."""
    package = list(_trees("src/turnwave/*.py"))
    calls = [(path, name, call) for path, tree in package + list(_trees("scripts/*.py"))
             for name, call in _calls(tree)]
    unpassed = set()
    for path, tree in package:
        for callee, fn, positional, defaulted in _options(tree):
            for param in defaulted:
                if not any(name == callee and _passes(call, positional, param)
                           and not (where == path and fn.lineno <= call.lineno <= fn.end_lineno)
                           for where, name, call in calls):
                    unpassed.add((callee, param))
    return unpassed


def test_every_public_function_has_a_caller_outside_the_tests():
    assert uncalled_functions() == set(TEST_ONLY)


def test_test_only_functions_are_used_by_their_tests():
    for name, (test_file, test_name, _) in TEST_ONLY.items():
        (_, tree), = _trees(os.path.join("tests", test_file))
        test, = (node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == test_name)
        assert name in {ref for ref, _ in _references(test)}, (name, test_name)


def test_every_option_is_passed_outside_the_tests():
    assert unpassed_options() == set(TEST_ONLY_OPTIONS)


def test_test_only_options_are_passed_by_their_tests():
    positional = {callee: pos for _, tree in _trees("src/turnwave/*.py")
                  for callee, _, pos, _ in _options(tree)}
    for (callee, param), (test_file, test_name, _) in TEST_ONLY_OPTIONS.items():
        (_, tree), = _trees(os.path.join("tests", test_file))
        test, = (node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == test_name)
        assert any(name == callee and _passes(call, positional[callee], param)
                   for name, call in _calls(test)), (callee, param, test_name)


def private_imports():
    """(importer, module, name) of each `from .module import _name` in
    src/turnwave."""
    found = set()
    for path, tree in _trees("src/turnwave/*.py"):
        importer = os.path.splitext(os.path.basename(path))[0]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= {(importer, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    return found


def test_private_names_imported_across_modules_are_listed():
    assert private_imports() == set(PRIVATE_IMPORTS)
