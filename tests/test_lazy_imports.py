"""Each process imports only what it serves.

``repro`` and ``repro.protocol`` re-export their public names lazily
(PEP 562), the store codec is a leaf, and the CLI imports per command,
so the fleet cache server and the CLI's entry module boot without the
synthesizer.  These tests pin that boundary in a fresh interpreter, and
pin that the lazy names are the very objects their defining modules
hold.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.protocol

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"

#: Nothing under these may load with the CLI and the cache server.
HEAVY_PACKAGES = (
    "repro.synth",
    "repro.engine",
    "repro.dom",
    "repro.lang",
    "repro.semantics",
    "repro.browser",
    "repro.benchmarks",
)
#: Modules (not packages) that may not load with them either.
HEAVY_MODULES = ("repro.protocol.messages",)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def _heavy(module: str) -> bool:
    return module in HEAVY_MODULES or any(
        module == package or module.startswith(package + ".")
        for package in HEAVY_PACKAGES
    )


class TestImportBoundary:
    def test_cli_and_cache_server_load_no_synthesizer(self):
        completed = _python(
            "-c",
            "import sys, repro.cli, repro.fleet.cache_server\n"
            "print('\\n'.join(sorted(sys.modules)))",
        )
        assert completed.returncode == 0, completed.stderr
        loaded = completed.stdout.split()
        assert "repro.fleet.cache_server" in loaded
        assert [module for module in loaded if _heavy(module)] == []

    def test_importing_the_packages_imports_no_submodule(self):
        completed = _python(
            "-c",
            "import sys, repro, repro.protocol\n"
            "print('\\n'.join(sorted(sys.modules)))",
        )
        assert completed.returncode == 0, completed.stderr
        loaded = completed.stdout.split()
        assert not [m for m in loaded if m.startswith("repro.protocol.")]
        assert [m for m in loaded if _heavy(m)] == []


class TestLazyExports:
    @pytest.mark.parametrize(
        "package, name, module",
        [
            (package, name, module)
            for package in (repro, repro.protocol)
            for name, module in package._EXPORTS.items()
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_name_is_its_defining_modules_object(self, package, name, module):
        value = getattr(package, name)
        assert value is getattr(importlib.import_module(module), name)
        defined_in = getattr(value, "__module__", None)
        if callable(value) and defined_in is not None:
            assert defined_in == module, name

    def test_all_lists_every_export(self):
        assert set(repro.__all__) == set(repro._EXPORTS) | {"__version__"}
        assert set(repro.protocol.__all__) == set(repro.protocol._EXPORTS)

    def test_protocol_error_is_one_class(self):
        from repro.protocol import codec, messages

        assert messages.ProtocolError is codec.ProtocolError
        assert repro.protocol.ProtocolError is codec.ProtocolError

    @pytest.mark.parametrize("package", [repro, repro.protocol], ids=lambda p: p.__name__)
    def test_dir_lists_every_export(self, package):
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("package", [repro, repro.protocol], ids=lambda p: p.__name__)
    def test_unknown_name_is_an_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018 - the access is the test
        assert not hasattr(package, "no_such_name")

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)  # noqa: S102 - the import is the test
        for name in repro.__all__:
            assert namespace[name] is getattr(repro, name), name

    def test_submodule_import_through_the_package_still_works(self):
        from repro import io as repro_io

        assert repro_io is importlib.import_module("repro.io")

    @pytest.mark.parametrize(
        "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
    )
    def test_example_import_lines_resolve(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [
            node
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"
        ]
        assert imports, f"{path.name} imports nothing from repro"
        namespace: dict = {}
        exec(compile(ast.Module(imports, []), str(path), "exec"), namespace)  # noqa: S102
        for node in imports:
            for alias in node.names:
                assert (alias.asname or alias.name) in namespace


def test_protocol_schema_command_matches_the_committed_schema():
    completed = _python("-m", "repro", "protocol-schema")
    assert completed.returncode == 0, completed.stderr
    committed = (SRC / "repro" / "protocol" / "schema.json").read_text(encoding="utf-8")
    assert completed.stdout == committed
