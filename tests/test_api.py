import ast
import importlib
import inspect
from pathlib import Path

import blindid

SUBMODULES = ("bounds", "cli", "ensembles", "lifting", "mc", "recovery", "spectral")


def test_every_exported_name_resolves():
    # each name a submodule lists in __all__ exists, and the package, which
    # has no __all__ of its own, star-exports only names that some
    # submodule lists; so a deleted name cannot leave a stale export
    listed = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"blindid.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, (name, missing)
        listed.update(module.__all__)
    exported = {}
    exec("from blindid import *", exported)
    public = {name for name in exported if not name.startswith("_")}
    assert public - set(SUBMODULES) <= listed, public - set(SUBMODULES) - listed
    assert all(getattr(blindid, name) is exported[name] for name in public)


# Paper quantities that no program path reports yet; they stay public until
# the lab reports them.
UNREPORTED_PAPER_QUANTITIES = {"covering_bound", "snr_metrics",
                               "mean_isometry_relative_error",
                               "calibrated_isometry_radius"}


def test_every_listed_name_is_used_by_the_package():
    # a name a submodule lists in __all__ must be read somewhere in the
    # package besides __init__.py, so no public name exists only for tests
    src = Path(blindid.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {(name, attr) for name in SUBMODULES
              for attr in importlib.import_module(f"blindid.{name}").__all__
              if attr not in used and attr not in UNREPORTED_PAPER_QUANTITIES}
    assert not unused, sorted(unused)


SCENARIO_KINDS = {"subspace", "mixed", "sparsity"}


def _kind_constants(node):
    """The scenario-kind string constants an operand of a comparison holds,
    directly or inside a tuple, list or set literal."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {item.value for item in items
            if isinstance(item, ast.Constant) and item.value in SCENARIO_KINDS}


def test_scenario_kind_is_decided_in_ensembles_only():
    # what a scenario kind means for the supports is ConstraintScenario's to
    # say (support_sizes); any other module that compares against a kind
    # name decides it a second time
    src = Path(blindid.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "ensembles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                kinds = set().union(*map(_kind_constants, [node.left, *node.comparators]))
                if kinds:
                    found.append((path.name, node.lineno, sorted(kinds)))
    assert not found, found


def _names_by_function(node, owner=None):
    """(innermost enclosing function or None, name) for every name, attribute
    and imported name under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        if isinstance(child, ast.Name):
            yield inner, child.id
        elif isinstance(child, ast.Attribute):
            yield inner, child.attr
        elif isinstance(child, ast.alias):
            yield inner, child.name
        yield from _names_by_function(child, inner)


def test_supports_are_enumerated_in_largest_unions_only():
    # every index set a solver or certifier runs over comes from
    # recovery._largest_unions, so one function decides the order of the
    # supports and their unions and caps their number
    src = Path(blindid.__file__).parent
    found = [(path.name, owner) for path in sorted(src.glob("*.py"))
             for owner, name in _names_by_function(ast.parse(path.read_text()))
             if name == "combinations"]
    assert found and set(found) == {("recovery.py", "_largest_unions")}, found


def _callee(node):
    """The name a call node calls, plain or as an attribute, or None."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls_in(node, owner=None):
    """(innermost enclosing function or None, call node) for every call under node."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        if isinstance(child, ast.Call):
            yield inner, child
        yield from _calls_in(child, inner)


def _calls_by_function(*callees):
    """(module file, innermost enclosing function, call node) for every call
    of one of `callees` in the package, from one parse of each file."""
    src = Path(blindid.__file__).parent
    return [(path.name, owner, node) for path in sorted(src.glob("*.py"))
            for owner, node in _calls_in(ast.parse(path.read_text()))
            if _callee(node) in callees]


def test_orbit_distances_are_judged_by_the_counterexample_rule():
    # the package's one min_scaled_distance call is in
    # recovery._counterexamples, as the distance argument of _far, so both
    # searches and verify_counterexample judge a pair by one rule
    calls = _calls_by_function("min_scaled_distance", "_far")
    distances = [(name, owner, node) for name, owner, node in calls
                 if _callee(node) == "min_scaled_distance"]
    assert [(name, owner) for name, owner, _ in distances] == [
        ("recovery.py", "_counterexamples")], distances
    assert any(node.args and node.args[0] is distances[0][2] for _, _, node in calls)


def test_far_threshold_has_one_owner():
    # every _far call in the package is in recovery: the counterexample rule
    # (_counterexamples) and the refusals of a tolerance whose far threshold
    # 10 * tol reaches the unit-ball radius, in the searches' _check_search
    # and in verify_counterexample
    calls = sorted((name, owner) for name, owner, _ in _calls_by_function("_far"))
    assert calls == [("recovery.py", "_check_search"), ("recovery.py", "_counterexamples"),
                     ("recovery.py", "verify_counterexample")], calls


def test_kernel_runs_in_the_solver_and_the_certifier_only():
    # the Levenberg-Marquardt kernel has two callers, a solve and the one
    # certifier routine that both searches share
    calls = sorted((name, owner) for name, owner, _ in _calls_by_function("_lm"))
    assert calls == [("recovery.py", "_certify"), ("recovery.py", "solve_fixed_support")], \
        calls


def test_stacks_are_sized_in_recovery_only():
    # how many slots a solver or certifier stack holds is decided where its
    # kernel runs: recovery.STACK_ENTRIES bounds every such stack and
    # _pair_count gives a solve's supports, so no other module reads them
    # or keeps a stack bound of its own in entries
    src = Path(blindid.__file__).parent
    readers, bounds = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        readers.update((path.name, name) for _, name in _names_by_function(tree)
                       if name in ("_pair_count", "STACK_ENTRIES"))
        bounds.update((path.name, target.id) for node in tree.body
                      if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                      for target in getattr(node, "targets", [getattr(node, "target", None)])
                      if isinstance(target, ast.Name) and target.id.endswith("_ENTRIES"))
    assert readers == {("recovery.py", "_pair_count"), ("recovery.py", "STACK_ENTRIES")}, \
        readers
    assert bounds == {("recovery.py", "STACK_ENTRIES")}, bounds


def test_least_squares_calls_the_svd_solver_only_as_its_fallback():
    # least-squares rows are solved by Householder QR and back substitution
    # in recovery._lstsq; only its rank-deficient fallback reads
    # np.linalg.lstsq, so no second path solves a least-squares row. The
    # in-place QR is the one private numpy.linalg gufunc that src/ calls
    src = Path(blindid.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    readers = {(name, owner) for name, tree in trees.items()
               for owner, attr in _names_by_function(tree) if attr == "lstsq"}
    spelled = {ast.unparse(node) for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "lstsq"}
    private = {node.attr for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "_umath_linalg"}
    assert readers == {("recovery.py", "_lstsq")}, readers
    assert spelled == {"np.linalg.lstsq"}, spelled
    assert private == {"qr_r_raw"}, private


def test_ensembles_are_built_by_the_trial_rule_only():
    # --seed s names one ensemble, that of mix_seed(s, 0): gen, recover, both
    # certify levels and every sweep trial build it through mc.trial_ensemble,
    # so no other function reads build_ensemble to map a seed a second way
    src = Path(blindid.__file__).parent
    found = {(path.name, owner) for path in sorted(src.glob("*.py"))
             for owner, name in _names_by_function(ast.parse(path.read_text()))
             if name == "build_ensemble" and owner is not None}
    assert found == {("mc.py", "trial_ensemble")}, found


def test_row_stacks_are_built_by_recover_stack_only():
    # a solve's rows are grouped in one place: every RowStack that src/
    # constructs, the solvers' only input form, is built by mc.recover_stack
    src = Path(blindid.__file__).parent
    found = {(path.name, fn.name) for path in sorted(src.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and _callee(node) == "RowStack"}
    assert found == {("mc.py", "recover_stack")}, found


# Entry points whose options the CLI fills: after the leading positional
# parameters, every option is keyword-only and has no default, so the CLI
# holds every default.
ENTRY_POINT_OPTIONS = {
    ("mc", "run_phase_transition"): ("trials", "seed", "restarts", "noise_level", "R"),
    ("mc", "run_stability_sweep"): ("trials", "seed", "restarts", "R", "mode", "starts"),
    ("recovery", "certify_weak"): ("budget", "tol", "rng"),
    ("recovery", "certify_strong"): ("budget", "tol", "rng"),
    ("bounds", "make_report"): ("delta", "epsilon", "R", "rho", "ell", "L"),
}


def test_entry_point_options_are_required_keywords():
    for (module, name), options in ENTRY_POINT_OPTIONS.items():
        params = list(inspect.signature(
            getattr(importlib.import_module(f"blindid.{module}"), name)).parameters.values())
        lead = len(params) - len(options)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:lead]), name
        assert tuple(p.name for p in params[lead:]) == options, name
        assert all(p.kind is p.KEYWORD_ONLY for p in params[lead:]), name
        assert all(p.default is p.empty for p in params), name
