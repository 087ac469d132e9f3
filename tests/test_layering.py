"""Import layering of the package: module imports form a DAG, all at top level."""

import ast
from collections import Counter
from importlib import resources
from pathlib import Path


def _parsed_modules() -> dict[str, ast.Module]:
    root = resources.files("turanpin")
    return {
        entry.name[: -len(".py")]: ast.parse(entry.read_text())
        for entry in root.iterdir()
        if entry.name.endswith(".py")
    }


def _turanpin_targets(node) -> list[str]:
    """Package module names an import statement reaches, if any."""
    if isinstance(node, ast.ImportFrom):
        if node.level:  # relative: "from . import x" or "from .x import y"
            return [node.module] if node.module else [a.name for a in node.names]
        names = [node.module or ""]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return []
    out = []
    for n in names:
        if n == "turanpin":
            out.append("__init__")
        elif n.startswith("turanpin."):
            out.append(n.split(".")[1])
    return out


def test_import_graph_is_acyclic():
    modules = _parsed_modules()
    deps = {
        name: {t for node in tree.body for t in _turanpin_targets(node) if t in modules}
        for name, tree in modules.items()
    }
    state: dict[str, str] = {}

    def visit(name: str, path: list[str]) -> None:
        if state.get(name) == "done":
            return
        assert state.get(name) != "open", f"import cycle: {' -> '.join(path + [name])}"
        state[name] = "open"
        for dep in sorted(deps[name]):
            visit(dep, path + [name])
        state[name] = "done"

    for name in sorted(deps):
        visit(name, [])


def test_no_function_level_package_imports():
    for name, tree in _parsed_modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                assert not _turanpin_targets(node), (
                    f"{name}.{fn.name} imports from turanpin at line {node.lineno}"
                )


def _used_names(tree: ast.Module) -> set[str]:
    """Every name a module imports, reads or reaches as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_cli_draws_graphs_only_through_randmodels_draw():
    samplers = {"triangle_free_process", "sample_uniform_triangle_free", "erdos_renyi"}
    names = _used_names(_parsed_modules()["cli"])
    assert not names & samplers, f"cli uses {sorted(names & samplers)} directly"


def test_pair_index_stays_in_the_samplers():
    # pairs are (u, v) tuples outside randmodels; the flat index is its
    # sampling coordinate only, and graphs keeps just the pair count
    index_names = {"pair_to_index", "index_to_pair", "pair_count", "edge_indices"}
    modules = _parsed_modules()
    for name in ("conflict", "construct", "oracle"):
        used = _used_names(modules[name]) & index_names
        assert not used, f"{name} uses {sorted(used)}"
    graphs = modules["graphs"]
    defined = {node.name for node in graphs.body if isinstance(node, ast.FunctionDef)}
    extra = (_used_names(graphs) | defined) & index_names - {"pair_count"}
    assert not extra, f"graphs defines or uses {sorted(extra)}"


ROOT = Path(__file__).resolve().parents[1]
# the code that can reach the package: the package itself, the demos and the benchmark
_REACHING_DIRS = ("src", "demos", "perfbench")


def _reference_names(tree: ast.AST) -> Counter:
    """Names a tree reads as a Name or Attribute, imports, or spells as a string."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
    return refs


def _assigned_names(node) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


def _definitions(module: str, tree: ast.Module):
    """(label, name, node) for every top-level def, class and assignment of a
    module, and every method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield f"{module}.{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned_names(node):
                yield f"{module}.{name}", name, node


def test_every_package_definition_is_reached_outside_the_tests():
    # nothing in src/ exists only for its tests: each definition is used,
    # outside its own body, by the package, a demo or the benchmark
    refs = Counter()
    for top in _REACHING_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            refs += _reference_names(ast.parse(path.read_text()))
    unused = []
    for path in sorted((ROOT / "src" / "turanpin").glob("*.py")):
        tree = ast.parse(path.read_text())
        for label, name, node in _definitions(path.stem, tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if refs[name] - _reference_names(node)[name] <= 0:
                unused.append(label)
    assert not unused, f"defined in src/ but reached only by tests: {unused}"
