"""What each entry point loads, and the package's lazy public names.

Every import-graph case runs in a fresh interpreter, so no module loaded by
another test is counted."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import topocode

SRC = str(Path(topocode.__file__).resolve().parents[1])

LOADED = (
    "import sys; print(' '.join(sorted(m for m in sys.modules if m == 'topocode' or m.startswith('topocode.'))))"
)


def loaded_after(code: str) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{LOADED}"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def pkg(*modules: str) -> set[str]:
    return {"topocode"} | {f"topocode.{m}" for m in modules}


@pytest.mark.parametrize(
    "code, expected",
    [
        ("import topocode", pkg()),
        ("import topocode.labelings", pkg("graphs", "labelings")),
        ("import topocode.protocols", pkg("graphs", "strings", "topcode", "protocols")),
        ("import topocode.cli", pkg("cli")),
    ],
    ids=["package", "labelings", "protocols", "cli"],
)
def test_import_loads_only_its_dependencies(code, expected):
    assert loaded_after(code) == expected


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["string", "add", "1", "2"], 0, pkg("cli", "strings")),
        (["proto", "run"], 2, pkg("cli")),
        (["tables", "reproduce", "--which", "table1"], 0, pkg("cli", "tables", "strings")),
    ],
    ids=["string-add", "proto-run-without-id", "tables-table1"],
)
def test_cli_verb_loads_only_its_modules(argv, code, expected):
    call = f"from topocode.cli import main\nassert main({argv!r}) == {code}"
    assert loaded_after(call) == expected


class TestPackageApi:
    def test_every_export_is_its_submodules_object(self):
        for name in topocode.__all__:
            value = getattr(topocode, name)
            module = sys.modules[f"topocode.{topocode._EXPORTS[name]}"]
            assert value is getattr(module, name), name

    def test_dir_lists_every_export(self):
        assert set(topocode.__all__) <= set(dir(topocode))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            topocode.no_such_name

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from topocode import *", namespace)
        assert set(topocode.__all__) <= set(namespace)
        assert all(namespace[name] is getattr(topocode, name) for name in topocode.__all__)
