"""Every name ``lsa`` exports is used somewhere: a helper that nothing calls
gets deleted, not re-exported."""
import ast
import inspect
from pathlib import Path

import lsa

ROOT = Path(__file__).resolve().parents[1]


def _used_names() -> set[str]:
    """Every name read, as a bare name or an attribute, in ``src`` and
    ``tests`` outside the package's ``__init__``.  Definitions, assignments
    and imports bind names without reading them, so they do not count."""
    init = ROOT / "src" / "lsa" / "__init__.py"
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]:
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    exports = {name for name in lsa.__all__ if not inspect.ismodule(getattr(lsa, name))}
    assert sorted(exports - _used_names()) == []
