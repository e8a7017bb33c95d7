"""The public surface: every exported name resolves and the README example runs."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import towercert

MODULES = ["towercert"] + [
    f"towercert.{info.name}" for info in pkgutil.iter_modules(towercert.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_readme_library_snippet_runs():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md#library", "exec"), {})
