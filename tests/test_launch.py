"""What a CLI launch loads: each command imports only the modules it runs,
and no module of the package imports ``dataclasses``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rectangular

PACKAGE = Path(rectangular.__file__).parent

# Runs rectangular.cli as __main__ on the arguments after -c, then prints
# the exit code and the names in sys.modules, one a line.
CHILD = """
import contextlib, io, runpy, sys
sys.argv[0] = "rectangular"
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("rectangular.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(sys.modules), sep="\\n")
"""


def _run(code: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def _launch(*argv: str) -> tuple[int, set[str]]:
    code, *modules = _run(CHILD, *argv)
    return int(code), set(modules)


def _loaded_at_start(module: str) -> bool:
    return _run(f"import sys; print({module!r} in sys.modules)") == ["True"]


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("launch") / "band.txt"
    path.write_text("4\n0 1 0 1\n2 3 2 3\n0 1 0 1\n2 3 2 3\n", encoding="utf-8")
    return str(path)


LAZY = {"rectangular.census", "rectangular.construct", "rectangular.isotopy",
        "rectangular.transform"}


def test_check_loads_no_census_construction_isotopy_or_transform(table_file):
    code, modules = _launch("check", "--property", "rectangular", table_file)
    assert code == 0
    assert {"rectangular.formats", "rectangular.properties"} <= modules
    assert modules & LAZY == set()
    if not _loaded_at_start("dataclasses"):
        assert "dataclasses" not in modules


def test_check_loads_no_json_and_only_the_modules_it_runs(table_file):
    code, modules = _launch("check", "--property", "central", table_file)
    assert code == 1
    ours = {name for name in modules if name.startswith("rectangular.")}
    assert ours <= {"rectangular.cli", "rectangular.formats", "rectangular.properties",
                    "rectangular.core"}
    if not _loaded_at_start("json"):
        assert "json" not in modules


def test_enumerate_loads_the_census_alone():
    code, modules = _launch("enumerate", "--class", "rectangular", "--order", "2")
    assert code == 0
    assert modules & LAZY == {"rectangular.census"}
    if not _loaded_at_start("dataclasses"):
        assert "dataclasses" not in modules


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []
