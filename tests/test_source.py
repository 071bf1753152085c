"""Rules that hold over the package source as a whole."""

import ast
from pathlib import Path

import fdsrank

SRC = Path(fdsrank.__file__).resolve().parent


def test_integrity_checks_are_typed_errors():
    # bare asserts vanish under python -O and AssertionError cannot be told
    # from a bug elsewhere: integrity checks raise IntegrityError instead
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_imports_sit_at_module_top():
    # a function-local import of a package module hides a dependency from the
    # module header; third-party lazy imports (scipy) stay allowed
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_linprog_is_called_only_from_ratlp():
    # one LP entry point: exact callers go through the certificate there
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "ratlp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            if "linprog" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_weak_components_is_the_only_union_find():
    # one union-find: a nested ``find`` outside digraph.py is a second copy
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "digraph.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if node is not fn and isinstance(node, ast.FunctionDef) and node.name == "find":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _call_sites(name):
    """(file, top-level owner) of every call to ``name`` in the package."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {node: getattr(top, "name", "<module>")
                 for top in tree.body for node in ast.walk(top)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (getattr(func, "id", None) or getattr(func, "attr", None)) == name:
                found.append((path.name, owner[node]))
    return found


def test_highs_is_called_only_inside_solve_exact():
    # every HiGHS answer passes the certificate, so no uncertified float
    # can reach a report
    assert _call_sites("_highs") == [("ratlp.py", "solve_exact")]


def test_the_parser_is_built_only_in_main():
    # build_parser is cached once per process; a second call site would
    # invite a command that rebuilds the parser on every call
    assert _call_sites("build_parser") == [("cli.py", "main")]


def test_solve_exact_is_the_only_public_function_of_ratlp():
    # one LP path: an answer is a certified HiGHS optimum or a refusal, so a
    # second solver cannot come back as another public entry point
    tree = ast.parse((SRC / "ratlp.py").read_text(encoding="utf-8"))
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")]
    assert public == ["solve_exact"]


def test_no_function_takes_an_exact_cap():
    # exact-size caps are module constants checked in one place, not knobs
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arg) and node.arg == "exact_cap":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _top_level_names(tree):
    """Each top-level function, class and assigned name, with its defining node."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defs.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    return defs


def test_every_export_is_reached_from_the_commands():
    # an exported name that no command or verify check reaches is dead code;
    # the walk follows bare names, ``from .module import name`` bindings and
    # ``module.name`` through ``from . import module``
    defs, imported, modules = {}, {}, {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mod = path.stem
        defs[mod], imported[mod], modules[mod] = _top_level_names(tree), {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module:
                        imported[mod][bound] = (node.module, alias.name)
                    else:
                        modules[mod][bound] = alias.name
    reached = set()
    todo = [(mod, name) for mod in ("cli", "verify") for name in defs[mod]]
    while todo:
        mod, name = todo.pop()
        if (mod, name) in reached:
            continue
        reached.add((mod, name))
        for node in ast.walk(defs[mod][name]):
            if isinstance(node, ast.Name):
                if node.id in defs[mod]:
                    todo.append((mod, node.id))
                elif node.id in imported[mod]:
                    todo.append(imported[mod][node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = modules[mod].get(node.value.id)
                if target is not None and node.attr in defs[target]:
                    todo.append((target, node.attr))
    dead = sorted(f"{mod}.{name}" for mod, name in imported["__init__"].values()
                  if (mod, name) not in reached)
    assert dead == [], f"exports that no command or verify check reaches: {dead}"


def test_one_sweep_path_through_the_orbit_reduction():
    # the kernel is called from one place, inside enumerate_stats, which
    # always sweeps orbit representatives: no parameter, flag or environment
    # variable turns the reduction off, and the unreduced product lives on
    # only as a test oracle
    calls, environ = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {node: getattr(top, "name", "<module>")
                 for top in tree.body for node in ast.walk(top)}
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (getattr(func, "id", None) or getattr(func, "attr", None)) == "family_histograms":
                calls.append((path.name, owner[node], len(node.args) + len(node.keywords)))
            if path.name == "enumeration.py" and getattr(node, "attr", None) in ("environ", "getenv"):
                environ.append(node.lineno)
    # one calling convention: every input required, all six passed
    assert calls == [("enumeration.py", "enumerate_stats", 6)]
    assert environ == []
    kernel = next(node for node in ast.parse((SRC / "kernels.py").read_text(encoding="utf-8")).body
                  if isinstance(node, ast.FunctionDef) and node.name == "family_histograms")
    assert [a.arg for a in kernel.args.args] == [
        "w", "counts", "n_states", "mult", "factors", "flags"]
    assert kernel.args.defaults == [] and kernel.args.kwonlyargs == []
    tree = ast.parse((SRC / "enumeration.py").read_text(encoding="utf-8"))
    params = {node.name: [a.arg for a in node.args.args + node.args.kwonlyargs]
              for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert params["enumerate_stats"] == ["d", "q", "strict", "max_funcs", "max_states"]
    # the tensor holds the rows the plan keeps, built once a sweep: no caller
    # names a vertex's group, picks a sub-product or turns a reduction off
    assert params["_sweep_tensor"] == ["d", "q", "rows"]


def test_kernels_bin_in_integers():
    # weighted histograms are exact int64 sums: np.bincount(weights=...)
    # would bin in float64, which rounds counts past 2^53
    found = []
    tree = ast.parse((SRC / "kernels.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if (getattr(func, "id", None) or getattr(func, "attr", None)) == "bincount":
            if len(node.args) > 1 or any(kw.arg == "weights" for kw in node.keywords):
                found.append(node.lineno)
    assert found == []


def test_a_strict_request_is_priced_before_the_memo_is_read():
    # the strict histograms a loose sweep binned are read only inside
    # enumerate_stats, after price_family: a memo hit keeps every refusal
    # with its message and projected size
    tree = ast.parse((SRC / "enumeration.py").read_text(encoding="utf-8"))
    owner = {node: getattr(top, "name", "<module>")
             for top in tree.body for node in ast.walk(top)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "_strict_memo"]
    assert {owner[node] for node in reads} == {"<module>", "enumerate_stats"}
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "enumerate_stats")
    priced = [node.lineno for node in ast.walk(fn) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "price_family"]
    memo = [node.lineno for node in reads if owner[node] == "enumerate_stats"]
    assert len(priced) == 1 and priced[0] < min(memo)
