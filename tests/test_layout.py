"""Library code is what ``sgronwall`` runs.

Every top-level name in the package, public or private (dunders aside),
must be referenced by other package code (as a name, an attribute or an
import), so the command can reach it, or be a target the benchmark's
span tracer binds. A re-export from ``__init__.py`` does not count: it
makes a name importable, not used. Code that only the tests call belongs
in ``tests/``.
"""

import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stochastic_gronwall"
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"
BENCHMARK = ROOT / "BENCHMARK.json"


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id if isinstance(sub, ast.Name) else sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
    return names


def _tracer_targets():
    """(module, top-level name) of each dotted target the tracer binds."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    dotted = [t for _, targets, _ in tracer.ENTRY_POINTS for t in targets]
    dotted += [tracer.CHUNK_STREAM, tracer.POOL]
    return {tuple(t.split(".")[:2]) for t in dotted}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_name_is_used_by_the_package_or_the_tracer():
    # one entry per top-level statement: (module, statement index, names it references)
    statements = []
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for index, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if module != "__init__":
                statements.append((module, index, _referenced_names(stmt)))
            defined += [(module, index, name) for name in _defined_names(stmt)
                        if not _is_dunder(name)]
    bound = _tracer_targets()
    unused = sorted(
        f"{module}.{name}" for module, index, name in defined
        if (module, name) not in bound
        and not any(name in refs for m, i, refs in statements if (m, i) != (module, index))
    )
    assert unused == [], f"names nothing in the package uses: {unused}"


def test_the_implicit_step_kernels_have_one_owner():
    # sde owns each kind of implicit step, one stepper class per kind, so a new kind
    # is a class there: no other module steps paths itself or tells the kinds apart
    kernels = {"bem_scalar_batch"}
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    users = {module for module, tree in modules.items() if kernels & _referenced_names(tree)}
    assert users == {"sde"}, f"modules that call the step kernels: {sorted(users)}"
    steppers = {module: [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                         and any(isinstance(f, ast.FunctionDef) and f.name == "step"
                                 for f in node.body)]
                for module, tree in modules.items()}
    assert steppers.pop("sde") == ["ScalarPaths", "RotationPaths"]
    steppers = [name for names in steppers.values() for name in names]
    kinds = [node.value for node in ast.walk(modules["mc"]) if isinstance(node, ast.Constant)
             and node.value in ("scalar", "rotation")]
    assert steppers == [] and kinds == [], f"paths stepped outside sde: {steppers}, {kinds}"


def test_every_problem_and_trajectory_field_is_read_by_the_package():
    # a field of a problem or a trajectory that no package code reads outside its own
    # class body is carried for the tests alone: every problem must supply it, every
    # trajectory hold it
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    classes = {node.name: node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in ("SdeProblem", "BemTrajectory")}
    assert sorted(classes) == ["BemTrajectory", "SdeProblem"]
    unread = []
    for name, cls in sorted(classes.items()):
        inside = {id(node) for node in ast.walk(cls)}
        read = {node.attr for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in inside}
        fields = [stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
        # the fields are the class-body annotations: a class with none would pass empty
        assert fields, f"{name} declares no fields as class-body annotations"
        unread += [f"{name}.{field}" for field in fields if field not in read]
    assert unread == [], f"fields only their own class reads: {unread}"


def test_every_stored_attribute_is_read_by_the_package():
    # an attribute the package assigns but never reads is a value kept for the tests
    # alone; argparse reads the one it is handed, the parser's negative-number matcher
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    attributes = [node for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    read = {node.attr for node in attributes if isinstance(node.ctx, ast.Load)}
    stored = {node.attr for node in attributes if isinstance(node.ctx, ast.Store)}
    assert stored, "the package stores no attribute: the walk found nothing to check"
    unread = sorted(stored - read - {"_negative_number_matcher"})
    assert unread == [], f"attributes the package stores and never reads: {unread}"


def _exit_scopes(node, scope):
    """The dotted scope of each reference to ``_exit`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _exit_scopes(child, f"{scope}.{child.name}")
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "_exit"
                or isinstance(child, ast.Name) and child.id == "_exit"
                or isinstance(child, ast.alias) and child.name == "_exit"):
            yield scope
        yield from _exit_scopes(child, scope)


def test_only_the_process_entry_and_the_pool_child_end_the_process():
    # os._exit ends the process at once; anywhere but the process entry and a forked
    # pool child it would end an in-process caller of main, verify_apriori or
    # sample_columns, such as these tests or the benchmark's tracer
    scopes = sorted(scope for path in sorted(PACKAGE.glob("*.py"))
                    for scope in _exit_scopes(ast.parse(path.read_text(encoding="utf-8")),
                                              path.stem))
    assert scopes == ["cli.run", "mc.ProcessPoolExecutor.submit"], scopes


def test_no_class_defines_its_own_pickling():
    # no task is pickled to a pool child, which inherits it by fork, the zoo's
    # callables pickle by reference, and an error crosses the pool's pipe back as
    # its type and message, so no class needs a pickle hook
    hooks = sorted(
        f"{path.stem}.{cls.name}.{name}"
        for path in PACKAGE.glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        for name in _defined_names(stmt)
        if name in ("__reduce__", "__reduce_ex__")
    )
    assert hooks == [], f"pickle hooks: {hooks}"


def _is_private(name):
    return name.startswith("_") and not _is_dunder(name)


def test_no_module_reads_another_modules_private_names():
    # a private name is its module's own: no other package module imports it or
    # reads it as an attribute
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    private = {module: {name for stmt in tree.body for name in _defined_names(stmt)
                        if _is_private(name)} for module, tree in trees.items()}
    borrowed = []
    for module, tree in trees.items():
        others = set().union(*(names for m, names in private.items() if m != module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("stochastic_gronwall")):
                names = [alias.name for alias in node.names if _is_private(alias.name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = [node.attr] if node.attr in others - private[module] else []
            else:
                names = []
            borrowed += [f"{module}: {name}" for name in names]
    assert borrowed == [], f"private names read outside their module: {borrowed}"


def test_readme_names_resolve():
    # a backticked `module.name` or `module.name.attr` in the README, or a call of
    # one, whose first part is a package module names something that module has;
    # the benchmark's per-layer metrics, such as `kernels.bem_scalar_batch.busy_s`,
    # are metric names, not attributes
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    metrics = {metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]}
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`",
                       README.read_text(encoding="utf-8"))
    names = [span for span in spans if span.split(".")[0] in modules and span not in metrics]
    missing = []
    for name in names:
        first, *attrs = name.split(".")
        target = importlib.import_module(f"stochastic_gronwall.{first}")
        try:
            for attr in attrs:
                target = getattr(target, attr)
        except AttributeError:
            missing.append(name)
    assert len(names) >= 10 and missing == [], f"README names that do not resolve: {missing}"
