"""The public surface: every exported name resolves, the package root imports
nothing else, no module imports a name it never uses, and the README
examples run."""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys

import pytest

import towercert
from towercert.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))

MODULES = ["towercert"] + [
    f"towercert.{info.name}" for info in pkgutil.iter_modules(towercert.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _unused_imports(path):
    """Module-level import names that the module never references and does not export."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_package_import_loads_no_submodule():
    # towercert/__init__.py re-exports nothing: importing it loads no module of the package
    code = "import sys, towercert; print(sorted(m for m in sys.modules if m.startswith('towercert.')))"
    src = str(pathlib.Path(towercert.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _imports(name):
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


# What importing towercert.cli loads: the package, cli and the record codec,
# and hashlib with OpenSSL's _hashlib only on an interpreter without a
# builtin SHA-256 module, the one records takes first.
CLI_BASE = {f"towercert{m}" for m in ("", ".cli", ".arith", ".errors", ".records")} | (
    set() if _imports("_sha2") or _imports("_sha256") else {"hashlib", "_hashlib"}
)


# The standard modules the probe reports: the process pool's; dataclasses
# and inspect (which imports ast, dis and tokenize), which no command loads;
# json, which only a command that decodes a record loads; and hashlib and
# _hashlib, which map OpenSSL's libcrypto (about 3.5 MB) into the process.
REPORTED = ("multiprocessing", "dataclasses", "inspect", "json", "hashlib", "_hashlib")


def _loaded_in_fresh_process(code):
    """The towercert modules, and those of REPORTED, once code has run."""
    probe = code + (
        "\nimport sys\nprint(sorted(m for m in sys.modules"
        f" if m.startswith('towercert') or m in {REPORTED!r}))"
    )
    src = str(pathlib.Path(towercert.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


def test_cli_import_and_parser_load_no_library_module():
    code = "import towercert.cli as cli\ncli.build_parser()"
    assert _loaded_in_fresh_process(code) == CLI_BASE


def test_cli_import_and_parser_compile_no_record_pattern():
    # parse_record compiles its line pattern on its first call, so setup pays nothing for it
    code = (
        "import towercert.cli as cli\n"
        "cli.build_parser()\n"
        "from towercert import records\n"
        "print(records._record_line is None)\n"
        "records.parse_record(records.to_json_line(records.make_record('rejection', {})))\n"
        "print(records._record_line is None)"
    )
    src = str(pathlib.Path(towercert.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\nFalse\n"


def _with(added):
    """CLI_BASE and added: towercert submodules, and modules of REPORTED by name."""
    return CLI_BASE | {m if m in REPORTED else f"towercert.{m}" for m in added}


@pytest.mark.parametrize(
    "argv, added",
    [
        ("group perfect --n 7", {"elliptic"}),
        ("furuta --ell 5 --m-e 30", {"elliptic"}),
        ("search --m-max 20", {"hlsearch"}),
        ("hl constant --prime-bound 1000", {"hlsearch"}),
        ("certify cyclotomic --m 50", {"cubic", "tower"}),
        ("verify residue-claim --weight 12", {"modforms"}),
        ("certify eigenform --weight 12 --ell 877", {"modforms"}),
        ("hl count --x 1000 --prime-bound 1000", {"hlsearch"}),
        ("certify cyclotomic --ell 2659", {"cubic", "tower"}),
    ],
)
def test_command_loads_only_its_modules(argv, added):
    code = (
        "import os, towercert.cli as cli\n"
        f"assert cli.main({argv.split()!r} + ['--out', os.devnull]) == 0"
    )
    assert _loaded_in_fresh_process(code) == _with(added)


def test_eigenform_reading_a_search_registry_loads_no_json(tmp_path):
    # every line of a search --out file is checked in place, with nothing decoded
    registry = tmp_path / "registry.jsonl"
    assert main(["search", "--m-max", "600", "--out", str(registry)]) == 0
    argv = ["certify", "eigenform", "--weight", "12", "--ell", "877", "--registry", str(registry)]
    code = f"import os, towercert.cli as cli\nassert cli.main({argv!r} + ['--out', os.devnull]) == 0"
    assert _loaded_in_fresh_process(code) == _with({"modforms"})


def test_eigenform_citing_a_tower_loads_tower(tmp_path):
    # a registry file that cites --ell's tower record is checked by recomputing it
    towers = tmp_path / "towers.jsonl"
    assert main(["search", "--m-max", "60", "--certify", "--out", str(towers)]) == 0
    argv = ["certify", "eigenform", "--weight", "12", "--ell", "2659", "--registry", str(towers)]
    code = f"import os, towercert.cli as cli\nassert cli.main({argv!r} + ['--out', os.devnull]) == 0"
    # the cited tower record's payload is decoded
    added = {"modforms", "tower", "cubic", "json"}
    assert _loaded_in_fresh_process(code) == _with(added)


def test_search_jobs_loads_tower_before_the_pool_forks():
    # a worker forked before tower was loaded would compile it again
    code = (
        "import os, sys, towercert.cli as cli\n"
        "real_pool = cli.Pool\n"
        "def pool(processes):\n"
        "    assert 'towercert.tower' in sys.modules\n"
        "    return real_pool(processes)\n"
        "cli.Pool, cli.os.cpu_count = pool, lambda: 2\n"
        "argv = ['search', '--m-max', '30', '--certify', '--jobs', '2', '--out', os.devnull]\n"
        "assert cli.main(argv) == 0"
    )
    added = {"hlsearch", "cubic", "tower", "multiprocessing"}
    assert _loaded_in_fresh_process(code) == _with(added)


def test_readme_library_snippet_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md#library", "exec"), {})


def test_readme_commands_exit_0(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("towercert ")]
    commands = [shlex.split(line)[1:] for line in lines]
    assert commands
    monkeypatch.chdir(tmp_path)  # the sweep writes the registry file a later command reads
    for argv in commands:
        assert main(argv) == 0, argv
