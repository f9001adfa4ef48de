"""Static checks on the package source.

Internal checks must survive ``python -O``, which strips assert statements,
no memo may grow for the life of the process, and the package needs nothing
outside the standard library.
"""

import ast
import sys
from pathlib import Path

import cablecalc

PACKAGE = Path(cablecalc.__file__).resolve().parent


def parsed_modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_package_has_no_assert_statements():
    found = []
    for path, tree in parsed_modules():
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O; raise InternalCheckError instead: {found}"


def unbounded_cache(decorator: ast.expr) -> bool:
    """functools.cache, or lru_cache with maxsize None."""
    call = decorator if isinstance(decorator, ast.Call) else None
    func = call.func if call else decorator
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or call is None:
        return False
    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def test_package_has_no_unbounded_caches():
    found = []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                if unbounded_cache(dec):
                    found.append(f"{path.name}:{dec.lineno}")
    assert not found, f"unbounded caches grow for the life of the process: {found}"


def test_unbounded_cache_detector():
    def decorators(src):
        return ast.parse(src).body[0].decorator_list

    for src in ("@cache\ndef f(): pass", "@functools.cache\ndef f(): pass",
                "@lru_cache(maxsize=None)\ndef f(): pass", "@functools.lru_cache(None)\ndef f(): pass"):
        assert unbounded_cache(decorators(src)[0]), src
    for src in ("@lru_cache\ndef f(): pass", "@functools.lru_cache(maxsize=256)\ndef f(): pass",
                "@lru_cache(64)\ndef f(): pass", "@property\ndef f(): pass"):
        assert not unbounded_cache(decorators(src)[0]), src


def test_package_imports_only_the_standard_library():
    # zero runtime dependencies: every absolute import names a stdlib
    # module or the package itself
    allowed = sys.stdlib_module_names | {"cablecalc"}
    found = []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.partition(".")[0] not in allowed]
    assert not found, f"imports outside the standard library: {found}"
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.partition("\n[project]\n")[2].partition("\n[")[0]
    assert "\ndependencies = []\n" in f"\n{project}\n", "the [project] table must keep dependencies = []"
