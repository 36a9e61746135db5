"""The package surface: every helper, public or private, has a caller in
``src/`` or is exported, and ``__all__`` names each export once."""

import ast
from collections import Counter
from pathlib import Path

import alexlink as al

SRC = Path(al.__file__).parent


def definitions(tree):
    """(qualified name, node) of each top-level function, class and
    private module constant, and of each public method."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from ((t.id, node) for t in targets
                        if isinstance(t, ast.Name) and t.id.startswith("_"))
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_"))


def mentions(node):
    """The names and attribute names read anywhere under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def orphans(src):
    """Definitions under src named nowhere in src outside their own body
    and missing from ``alexlink.__all__``, as "module.qualname": public
    and private top-level functions and classes, private module
    constants and public methods.  Dunders are left out."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    used = sum((mentions(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rpartition(".")[2]
            if name.startswith("__") or name in al.__all__:
                continue
            if used[name] - mentions(node)[name] <= 0:
                out.append(f"{module}.{qualname}")
    return out


def test_every_public_helper_has_a_caller():
    assert orphans(SRC) == []


def test_orphan_found(tmp_path):
    """Definitions named only in their own body are reported; one call
    from another module clears them."""
    (tmp_path / "a.py").write_text(
        "__all__ = []\n_LIMIT = 3\n\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "class Box:\n    def size(self):\n        return 1\n\n"
        "    def _inner(self):\n        return 2\n")
    assert orphans(tmp_path) == ["a._LIMIT", "a.lonely", "a._helper",
                                 "a.Box", "a.Box.size"]
    (tmp_path / "b.py").write_text(
        "from a import _LIMIT, Box, _helper, lonely\n\n"
        "x = lonely(_LIMIT) + Box().size() + _helper()\n")
    assert orphans(tmp_path) == []


def test_all_entries_resolve_once():
    assert len(al.__all__) == len(set(al.__all__))
    for name in al.__all__:
        assert hasattr(al, name), name
