import ast
import importlib
import re
from pathlib import Path

import dualbill

ROOT = Path(__file__).resolve().parent.parent
#: the library's modules that README.md names things of as `module.name`
MODULES = ("billiards", "cli", "curves", "families", "forms", "geometry", "integrals", "numerics", "verify")


def test_public_surface():
    assert dualbill.__version__
    fam = dualbill.BilliardFamily.parse("b1")
    x = dualbill.lift_fiber(fam, 2.0, 2.7, "+")
    rec = dualbill.orbit(fam, x, 3)
    assert rec.reason == "completed"
    v = dualbill.eval_integral(fam, rec.points[-1].q)
    assert abs(v.value - 2.0) < 1e-9
    suite = dualbill.default_suite(1)
    assert suite.entries


def _unresolved(text: str) -> list[str]:
    """The backticked `module.name` and `tests/...py::Name` references of
    the text that name nothing: an attribute chain missing from its
    module, or a class or function missing from its test file."""
    missing = []
    names = re.findall(r"`(?:dualbill\.)?((?:%s)\.[A-Za-z_][\w.]*)" % "|".join(MODULES), text)
    for ref in sorted(set(names)):
        module, *attrs = ref.rstrip(".").split(".")
        obj = importlib.import_module(f"dualbill.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(ref)
                break
            obj = getattr(obj, attr)
    for path, name in sorted(set(re.findall(r"`(tests/[\w/]+\.py)::([\w:]+)", text))):
        scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for part in name.split("::"):
            found = [
                node for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == part
            ]
            if not found:
                missing.append(f"{path}::{name}")
                break
            scope = found[0].body
    return missing


def test_readme_references_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "`billiards._offset_orbit`" in text and "`tests/test_billiards.py::TestOffsetOrbit`" in text
    assert _unresolved(text) == []


def test_a_stale_reference_is_caught():
    stale = (
        "`billiards._BLOCK = 256`, `verify._sampled.nothing`, "
        "`tests/test_billiards.py::TestOffsetOrbit::gone`"
    )
    assert _unresolved(stale) == [
        "billiards._BLOCK", "verify._sampled.nothing", "tests/test_billiards.py::TestOffsetOrbit::gone",
    ]
