"""What a CLI launch loads: ``--help`` and a usage error load only the
``check`` table, each command imports only the modules it runs, and no
module of the package imports ``dataclasses``."""

import ast
import hashlib
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


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    return env


def _run(code: str, *args: str) -> list[str]:
    out = subprocess.run([sys.executable, "-c", code, *args], env=_env(),
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
PARSER_ONLY = {"rectangular", "rectangular.cli", "rectangular.checklist"}


def _ours(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "rectangular"}


@pytest.mark.parametrize("argv, want", [
    (("--help",), 0), (("check", "--help"), 0), (("check", "--property", "nope", "x"), 2)],
    ids=["help", "check-help", "usage-error"])
def test_help_and_usage_errors_load_the_check_table_alone(argv, want):
    code, modules = _launch(*argv)
    assert code == want
    assert "rectangular.checklist" in modules
    assert _ours(modules) <= PARSER_ONLY


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
    assert {"rectangular.identities", "rectangular.checklist"} <= modules
    assert _ours(modules) <= PARSER_ONLY | {"rectangular.formats", "rectangular.properties",
                                            "rectangular.core", "rectangular.identities"}
    if not _loaded_at_start("json"):
        assert "json" not in modules


def test_enumerate_loads_the_census_alone():
    code, modules = _launch("enumerate", "--class", "rectangular", "--order", "2",
                            "--emit", "json")
    assert code == 0
    assert modules & LAZY == {"rectangular.census"}
    if not _loaded_at_start("dataclasses"):
        assert "dataclasses" not in modules
    if not _loaded_at_start("json"):
        assert "json" not in modules


def test_a_check_with_no_identity_loads_no_evaluator(table_file):
    # the names of the loaded modules that hold the identity evaluator follow
    # the modules, after a marker
    code = CHILD + ('print("evaluator:", *sorted(name for name, m in list(sys.modules.items())'
                    ' if "identity_counterexample" in getattr(m, "__dict__", {})))')
    out = _run(code, "check", "--property", "rectangular", table_file)
    marker = out.index("evaluator:")
    assert out[0] == "0"
    assert "rectangular.identities" not in out[1:marker]
    assert out[marker + 1:] == []


@pytest.mark.parametrize("command", [
    ("enumerate", "--class", "rectangular", "--order", "2"),
    ("convert", "--from", "groupoid", "--to", "graphpair", "{table}"),
    ("isotopy", "{table}", "{table}"),
    ("transversal", "{table}")], ids=lambda command: command[0])
def test_commands_without_a_check_load_no_predicates(command, table_file):
    code, modules = _launch(*(arg.format(table=table_file) for arg in command))
    assert code == 0
    assert modules & {"rectangular.properties", "rectangular.identities"} == set()


@pytest.mark.parametrize("command, want, module", [
    (("check", "--property", "associative", "{table}"), 1, "rectangular.properties"),
    (("enumerate", "--class", "rectangular", "--order", "2"), 0, "rectangular.census")],
    ids=["check", "enumerate"])
def test_importtime_sees_the_modules_a_command_imports(command, want, module, table_file):
    # a submodule loaded by a plain import is timed; one loaded through
    # importlib.import_module would be missing from the report
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "rectangular.cli",
                          *(arg.format(table=table_file) for arg in command)],
                         env=_env(), capture_output=True, text=True)
    assert out.returncode == want
    timed = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
             if line.startswith("import time:")}
    assert module in timed


# exit code and sha256 of stdout, a NUL byte and stderr of a launch with
# COLUMNS=80: the help and usage text must not change with what a launch
# imports.  argparse's layout differs between Python versions; these are
# the bytes of Python 3.11.
CLI_TEXT_SHA256 = {
    ("--help",):
        (0, "4918024a60750a53a360028260ac0f27247ca093409963c0de2048c27931f2d3"),
    ("check", "--help"):
        (0, "85fa1742eef83462ab837a11d0c0c57658e584b54b8f35e9e9a03aa4733c15d7"),
    ("convert", "--help"):
        (0, "88b48ae87b944be4afc0e37feef89a65b95a13802d21a2c8b924342dafe26c91"),
    ("enumerate", "--help"):
        (0, "1d647fc773cb1b1a0fc6da3d000312575b090959f56d75c8ba4e4fd9c66cce3a"),
    ("construct", "--help"):
        (0, "83de50b0e13cfee970de4bb6d78d8ba8555acadc68976afa17571ada77a0ce40"),
    ("construct", "band", "--help"):
        (0, "b6ef220fec4e94fb31c71f7f039272dceef3f4a907f26769e3ce82e429ea6193"),
    ("isotopy", "--help"):
        (0, "6a06702999e7573bb13eb2cb4d8959b945936bd6fcacc0509493a45fefb56254"),
    ("transversal", "--help"):
        (0, "4b2c82f9a3112a5d310ae0b80a33dd639d9d9ed2e131d035d9aaabdb4942b98b"),
    ("frobnicate",):
        (2, "b1d1327e17ec381383391c7387444f3b71240e1ccaa86207e447027ca65564fd"),
    ("check", "--property", "nonsense", "x.tbl"):
        (2, "ea985801d46c3973cb37a41addaf314937303d63a4dbec966f747e68e7402f75"),
    ("check", "--property", "central"):
        (2, "e548228c0870f7a6b432fdf0fcf408ff6d8c5ccd982af799403e05dce37ebfca"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned under Python 3.11")
@pytest.mark.parametrize("argv", list(CLI_TEXT_SHA256), ids=" ".join)
def test_help_and_usage_bytes_are_pinned(argv):
    out = subprocess.run([sys.executable, "-m", "rectangular.cli", *argv],
                         env={**_env(), "COLUMNS": "80"}, capture_output=True)
    digest = hashlib.sha256(out.stdout + b"\0" + out.stderr).hexdigest()
    assert (out.returncode, digest) == CLI_TEXT_SHA256[argv]


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []
