"""The mutation table of ``tools/mutants.py`` stays current: each snippet
occurs exactly once in its file, so every row still mutates the code it was
written for.  The mutants themselves run outside the suite."""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tools" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("tools_mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclass reads its module's namespace
    spec.loader.exec_module(module)
    return module


def test_every_snippet_occurs_exactly_once():
    mutants = load_mutants()
    assert len(mutants.MUTANTS) >= 10
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert mutants.occurrences(m) == 1, m.name
        assert m.replacement != m.snippet, m.name
        assert m.tests and all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name


def test_a_snippet_that_no_longer_matches_is_stale():
    mutants = load_mutants()
    row = mutants.Mutant("gone", "src/lsa/affine.py", "no such line\n", "x", ("tests/test_affine.py",))
    assert mutants.run(row) == "stale"
