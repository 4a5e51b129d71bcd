"""Public surface: every public top-level function and class in
src/gcnpart has a caller, so code that only tests reach does not pile up
in the package unnoticed."""

import ast
from pathlib import Path

from test_perfbench_contract import load_experiment

SRC = Path(__file__).resolve().parents[1] / "src" / "gcnpart"

# public names kept without a caller in the package, and why
ALLOWED = {
    "train_serial": "the serial oracle that parallel training is checked against",
    "hoeffding_min_nets": "the default stochastic-hypergraph sample count (ROADMAP item 4)",
    "parallel_feedforward": "the forward-only inference pass that gives predictions",
}


def references():
    """The names each public top-level function or class references, and
    the names the rest of the package references (module-level code and
    private definitions), outside __init__.py."""
    public, rest = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.setdefault(node.name, set()).update(names - {node.name})
            else:
                rest |= names
    return public, rest


def test_every_public_name_has_a_caller(monkeypatch):
    public, rest = references()
    assert set(ALLOWED) <= public.keys()
    rebound = {attr for _, attr, _, _ in load_experiment(monkeypatch).LAYERS}
    # a name that only uncalled definitions reference has no caller either
    live, todo = set(), (rest | rebound | set(ALLOWED)) & public.keys()
    while todo:
        live |= todo
        todo = set().union(*(public[name] for name in todo)) & public.keys() - live
    assert sorted(public.keys() - live) == []


def test_noqa_imports_are_names_perfbench_rebinds(monkeypatch):
    # an import kept only by "noqa: F401" must be a name that perfbench's
    # LAYERS rebinds on the importing module, so that noqa keeps nothing else
    rebound = {(getattr(owner, "__name__", None), attr)
               for owner, attr, _, _ in load_experiment(monkeypatch).LAYERS}
    kept = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])):
                kept += [(f"gcnpart.{path.stem}", alias.asname or alias.name) for alias in node.names]
    assert kept and sorted(set(kept) - rebound) == []
