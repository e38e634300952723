"""The documentation and source gates, run as tests.

Two layers: (a) the gates pass on the repository as committed — broken
doc links, undocumented ``repro.verify`` / flow API or an unused import
in ``src/repro`` fail the tier-1 suite; (b) the gate tools themselves
detect seeded violations, so a silently broken checker is caught too.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS_DIR = REPO_ROOT / "tools"

#: The scope of the docstring-coverage gate: the verification subsystem,
#: the public flow API and the mapping, placement, routing and timing
#: packages.
DOCSTRING_SCOPE = [
    "src/repro/verify",
    "src/repro/serve",
    "src/repro/obs",
    "src/repro/flow/pipeline.py",
    "src/repro/flow/tables.py",
    "src/repro/flow/__main__.py",
    "src/repro/perf",
    "src/repro/timing",
    "src/repro/circuits/synth.py",
    "src/repro/route",
    "src/repro/map",
    "src/repro/core",
    "src/repro/match",
    "src/repro/library/patterns.py",
    "src/repro/place",
]

DOC_FILES = ["README.md"] + sorted(
    str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "docs").glob("*.md")
)


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_docstrings():
    return _load_tool("check_docstrings")


@pytest.fixture(scope="module")
def check_links():
    return _load_tool("check_links")


@pytest.fixture(scope="module")
def check_imports():
    return _load_tool("check_imports")


class TestRepositoryPasses:
    def test_docstring_coverage(self, check_docstrings, capsys):
        paths = [str(REPO_ROOT / p) for p in DOCSTRING_SCOPE]
        code = check_docstrings.main(paths)
        assert code == 0, capsys.readouterr().out

    def test_docs_exist(self):
        assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").is_file()
        assert (REPO_ROOT / "docs" / "VERIFYING.md").is_file()
        assert (REPO_ROOT / "docs" / "FORMATS.md").is_file()
        assert (REPO_ROOT / "docs" / "SERVING.md").is_file()
        assert (REPO_ROOT / "docs" / "OBSERVING.md").is_file()
        assert (REPO_ROOT / "docs" / "OPERATIONS.md").is_file()
        assert (REPO_ROOT / "docs" / "SCALING.md").is_file()

    def test_readme_and_docs_links(self, check_links, capsys):
        files = [str(REPO_ROOT / f) for f in DOC_FILES]
        code = check_links.main(files + ["--root", str(REPO_ROOT)])
        assert code == 0, capsys.readouterr().out

    def test_no_unused_imports(self, check_imports, capsys):
        code = check_imports.main([str(REPO_ROOT / "src" / "repro")])
        assert code == 0, capsys.readouterr().out


class TestGatesDetect:
    def test_missing_docstring_detected(self, check_docstrings, tmp_path,
                                        capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('"""Module doc."""\n\ndef public_fn():\n    pass\n')
        assert check_docstrings.main([str(bad)]) == 1
        assert "public_fn" in capsys.readouterr().out

    def test_private_names_exempt(self, check_docstrings, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text('"""Module doc."""\n\ndef _helper():\n    pass\n')
        assert check_docstrings.main([str(ok)]) == 0

    def test_broken_relative_link_detected(self, check_links, tmp_path,
                                           capsys):
        md = tmp_path / "page.md"
        md.write_text("see [other](missing.md) for more\n")
        assert check_links.main([str(md), "--root", str(tmp_path)]) == 1
        assert "missing.md" in capsys.readouterr().out

    def test_stale_line_pointer_detected(self, check_links, tmp_path, capsys):
        src = tmp_path / "src" / "mod.py"
        src.parent.mkdir()
        src.write_text("x = 1\n")
        md = tmp_path / "page.md"
        md.write_text("defined at src/mod.py:99\n")
        assert check_links.main([str(md), "--root", str(tmp_path)]) == 1
        assert "src/mod.py:99" in capsys.readouterr().out

    def test_pointer_off_its_def_detected(self, check_links, tmp_path,
                                          capsys):
        src = tmp_path / "src" / "mod.py"
        src.parent.mkdir()
        src.write_text('"""Doc."""\n\n\ndef helper():\n    return 1\n')
        md = tmp_path / "page.md"
        md.write_text("`helper` is at src/mod.py:4\n")
        assert check_links.main([str(md), "--root", str(tmp_path)]) == 0
        md.write_text("`helper` is at src/mod.py:5\n")
        assert check_links.main([str(md), "--root", str(tmp_path)]) == 1
        assert "src/mod.py:5" in capsys.readouterr().out

    def test_pointer_without_named_symbol_detected(self, check_links,
                                                   tmp_path, capsys):
        src = tmp_path / "src" / "mod.py"
        src.parent.mkdir()
        src.write_text("class Thing:\n    pass\n")
        md = tmp_path / "page.md"
        md.write_text("`Thing` is named here.\n\n"
                      "The class is at src/mod.py:1\n")
        assert check_links.main([str(md), "--root", str(tmp_path)]) == 1
        assert "names: none" in capsys.readouterr().out

    def test_line_fragment_checked(self, check_links, tmp_path, capsys):
        target = tmp_path / "code.py"
        target.write_text("a = 1\nb = 2\n")
        md = tmp_path / "page.md"
        md.write_text("[code](code.py#L50)\n")
        assert check_links.main([str(md), "--root", str(tmp_path)]) == 1
        assert "#L50" in capsys.readouterr().out

    def test_external_links_skipped(self, check_links, tmp_path):
        md = tmp_path / "page.md"
        md.write_text("[x](https://example.com/nope) [y](#anchor)\n")
        assert check_links.main([str(md), "--root", str(tmp_path)]) == 0


class TestImportGate:
    def _package(self, root, files):
        pkg = root / "pkg"
        pkg.mkdir()
        for name, text in files.items():
            (pkg / name).write_text(text)
        return pkg

    def test_seeded_unused_import_detected(self, check_imports, tmp_path,
                                           capsys):
        pkg = self._package(tmp_path, {
            "__init__.py": "",
            "mod.py": "from typing import Dict, List\n\n"
                      "def f() -> List[int]:\n    return []\n",
        })
        assert check_imports.main([str(pkg)]) == 1
        out = capsys.readouterr().out
        assert "mod.py:1: unused import: Dict" in out
        assert "List" not in out.splitlines()[0]

    def test_uses_that_keep_an_import(self, check_imports, tmp_path):
        pkg = self._package(tmp_path, {
            # Package re-exports are exempt.
            "__init__.py": "from typing import Dict\n",
            "a.py": "import os\nimport os.path as osp\n"
                    "from pkg.b import Rect, Point, Shape\n"
                    "__all__ = ['Rect']\n"
                    "def f(p: 'Point') -> int:\n"
                    "    return len(os.sep + osp.sep)\n",
            # ``Shape`` is unused in a.py but imported from there here.
            "b.py": "Rect = Point = Shape = object\n",
            "c.py": "from pkg.a import Shape\nprint(Shape)\n",
        })
        assert check_imports.main([str(pkg)]) == 0
