"""The package runs on Python 3.10, the floor ``pyproject.toml`` states.

Only a newer interpreter may run the tests, so the source is searched for
names that Python 3.11 added.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "svls"

# names Python 3.11 added; a bare name matches any attribute or import of it
NEWER_THAN_3_10 = {"hashlib.file_digest", "tomllib", "typing.Self", "ExceptionGroup",
                   "add_note"}


def newer_names(source: str) -> set:
    """The names of ``NEWER_THAN_3_10`` that ``source`` uses."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
            if isinstance(node.value, ast.Name):
                used.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Import):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            used.update(f"{node.module}.{alias.name}" for alias in node.names)
            used.add(node.module)
    return used & NEWER_THAN_3_10


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_needs_no_python_newer_than_3_10(path):
    assert newer_names(path.read_text()) == set()


@pytest.mark.parametrize(
    "source, name",
    [("import hashlib\nhashlib.file_digest(f, 'sha256')", "hashlib.file_digest"),
     ("from hashlib import file_digest", "hashlib.file_digest"),
     ("import tomllib", "tomllib"),
     ("from tomllib import loads", "tomllib"),
     ("from typing import Self", "typing.Self"),
     ("import typing\nx: typing.Self", "typing.Self"),
     ("raise ExceptionGroup('x', [])", "ExceptionGroup"),
     ("exc.add_note('x')", "add_note")],
)
def test_each_newer_name_is_found(source, name):
    assert newer_names(source) == {name}
