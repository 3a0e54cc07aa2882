"""The package surface: what ``hyperscores`` exports, and no dead private code."""

import ast
from collections import Counter
from pathlib import Path

import hyperscores
from hyperscores import criteria, model, oracle, realize

SRC = Path(hyperscores.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def test_top_level_all_is_the_union_of_the_module_lists():
    modules = (model, criteria, realize, oracle)
    union = set().union(*(m.__all__ for m in modules))
    assert sorted(hyperscores.__all__) == sorted(union)
    assert len(set(hyperscores.__all__)) == len(hyperscores.__all__)
    for module in (hyperscores, *modules):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} does not resolve"


def test_readme_names_every_public_name():
    text = README.read_text()
    assert [name for name in hyperscores.__all__ if f"`{name}`" not in text] == []


def _references(node) -> Counter:
    """Names loaded, attributes read and names imported under ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_private_definition_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and used[node.name] == _references(node)[node.name]
            ):
                dead.append(f"{name}:{node.lineno} {node.name}")
    assert dead == []

