"""Every module-level import in ``src/ccdae`` is used, every exported name
exists, and ``requests`` is imported only where a session is built.

No linter is bundled, so this walks each module's syntax tree: a name a
module-level import binds must be read somewhere in the module, or be
listed in the module's ``__all__`` (a re-export). And each name in a
module's ``__all__`` must resolve on the imported module, so that a removal
cannot leave a stale export behind.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ccdae"


def _bound_names(node) -> list[str]:
    """The names an import statement binds (``import a.b`` binds ``a``)."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0]
            for alias in node.names if alias.name != "*"]


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read | _exported(tree)]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import csv\nimport io as aliased\nimport os.path\nimport json\n"
              "from math import inf, pi\n__all__ = ['pi']\n"
              "def f():\n    return json.dumps(os.path.sep)\n")
    assert unused_imports(source) == ["csv", "aliased", "inf"]


def unresolved_exports(module) -> list[str]:
    return [name for name in module.__all__ if not hasattr(module, name)]


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_exported_name_resolves(module):
    name = "ccdae" if module == "__init__" else f"ccdae.{module}"
    assert unresolved_exports(importlib.import_module(name)) == []


def test_a_stale_export_is_found():
    module = types.ModuleType("made_up")
    exec("__all__ = ['kept', 'gone', 'also_gone']\nkept = 1\n", module.__dict__)
    assert unresolved_exports(module) == ["gone", "also_gone"]


# ---------------------------------------------------------------------------
# requests: imported only by a RemoteBackend that builds its own session

#: A session that answers every request of the remote protocol at once.
_SESSION = """\
from ccdae.backends import RemoteBackend

class Reply:
    status_code, text = 200, ""

    def __init__(self, doc):
        self.doc = doc

    def json(self):
        return self.doc

class Session:
    def post(self, url, json=None, timeout=None):
        if url.endswith("/v1/logprob"):
            return Reply({"per_token_logprobs": [-0.5, -0.25]})
        return Reply({"samples": [{"text": "wet sky",
                                   "per_token_logprobs": [-0.5, -0.25]}]})
"""

_CALLS = """\
remote.sample_many([("rain", 0), ("iron", 1)], 1, max_tokens=5,
                   temperature=1.0, prompt=None)
remote.score_many([("rain", "wet sky", True)], prompt=None)
assert remote.score_many([("iron", "wet sky", True)], prompt=None)[0].total == -0.75
"""


def imports_requests(script: str, *argv: str) -> bool:
    """Whether ``script``, run with ``argv`` in a fresh interpreter (so that
    this process's own imports cannot hide the answer), leaves ``requests``
    in ``sys.modules``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{script}\nprint('requests' in sys.modules)",
         *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


def test_the_package_does_not_import_requests():
    assert not imports_requests("import ccdae")


def test_an_ngram_compare_does_not_import_requests(tmp_path):
    model = PACKAGE / "data" / "toy_ngram.json"
    assert not imports_requests(
        "from ccdae import cli\nassert cli.main(sys.argv[1:]) == 0",
        "--model", str(model), "--out", str(tmp_path / "curve.csv"),
        "compare", "rain", "iron")


def test_a_remote_backend_given_a_session_does_not_import_requests():
    assert not imports_requests(
        _SESSION + 'remote = RemoteBackend("http://stub", session=Session())\n'
        + _CALLS)


def test_a_remote_backend_that_builds_its_session_imports_requests():
    # built only: its requests would leave this host
    assert imports_requests(_SESSION + 'remote = RemoteBackend("http://stub")\n')
