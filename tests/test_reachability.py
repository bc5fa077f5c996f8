"""Every ``src/repro`` module is reached from an entry point, or is an orphan.

The gate walks the static import graph with stdlib :mod:`ast` (nothing is
imported or run) from the program's entry points: ``python -m repro``, the
CLI, the engine adapters the registry builds, the daemon, the fleet router,
every benchmark and every example.  Rules of the walk:

* importing a package reaches its ``__init__`` only; the names an
  ``__init__`` re-exports are not edges of their own;
* ``from pkg import X`` and an attribute use ``pkg.X`` reach the submodule
  ``pkg.X``, or the module that defines ``X``, followed through the
  package's re-exports;
* reaching a module reaches the ``__init__`` of every package above it;
* ``from pkg.mod import *`` reaches ``pkg.mod`` itself;
* imports inside functions count: a lazy import is still a run path.

A module nothing reaches must be listed in :data:`ORPHANS` with the reason
it stays.  The table can only shrink: a listed module that is now reached, or
that no longer exists, fails the gate too.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: module -> why it stays although no entry point reaches it.
ORPHANS = {
    "repro.nn.inference": "BlockedInference (paper Sec. V.B.9): ROADMAP item "
                          "15 measures block inference at scale with it",
    "repro.analysis.conservation": "energy/norm drift helpers that only "
                                   "tests use; ROADMAP item 14",
}


def entry_points(root: Path = ROOT) -> List[Path]:
    package = root / "src" / "repro"
    fixed = [package / "__main__.py", package / "api" / "cli.py",
             package / "api" / "adapters.py", package / "api" / "server.py",
             package / "fleet" / "router.py"]
    return (fixed + sorted((root / "benchmarks").rglob("*.py"))
            + sorted((root / "examples").glob("*.py")))


@dataclass
class _Module:
    name: str
    is_package: bool
    tree: ast.Module
    #: re-exported name -> (module it was imported from, name there)
    exports: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def _module_name(path: Path, src: Path) -> Tuple[str, bool]:
    parts = list(path.relative_to(src).with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts.pop()
    return ".".join(parts), is_package


class ImportGraph:
    """The static import graph of the modules under ``src``."""

    def __init__(self, src: Path = SRC) -> None:
        self.src = src
        self.modules: Dict[str, _Module] = {}
        for path in sorted(src.rglob("*.py")):
            name, is_package = _module_name(path, src)
            self.modules[name] = _Module(name, is_package, _parse(path))
        for module in self.modules.values():
            if module.is_package:
                module.exports = _top_level_imports(module)
        self.roots = {name.split(".")[0] for name in self.modules}

    # -- resolution ---------------------------------------------------
    def resolve(self, module: str, attr: str,
                seen: Optional[Set[Tuple[str, str]]] = None) -> Tuple[str, bool]:
        """The module that ``module.attr`` lives in, and whether it *is* it."""
        submodule = f"{module}.{attr}"
        if submodule in self.modules:
            return submodule, True
        info = self.modules.get(module)
        seen = set() if seen is None else seen
        if info is not None and attr in info.exports and (module, attr) not in seen:
            seen.add((module, attr))
            return self.resolve(*info.exports[attr], seen=seen)
        return module, False

    def edges(self, tree: ast.Module, name: Optional[str] = None,
              is_package: bool = False) -> Set[str]:
        """Modules that the code of ``tree`` (module ``name``) reaches."""
        loads = _loaded_names(tree)
        bindings: Dict[str, str] = {}
        reached: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if is_package and bound not in loads:
                        continue
                    reached.add(alias.name)
                    bindings[bound] = alias.name if alias.asname else bound
            elif isinstance(node, ast.ImportFrom):
                base = _absolute(node, name, is_package)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "*":
                        # Which names a star import uses is not known, so it
                        # reaches the whole module it reads from.
                        reached.add(base)
                        continue
                    if is_package and bound not in loads:
                        continue
                    target, is_module = self.resolve(base, alias.name)
                    reached.add(target)
                    if is_module:
                        bindings[bound] = target
        for chain in _attribute_chains(tree):
            module = bindings.get(chain[0])
            if module is None:
                continue
            for attr in chain[1:]:
                module, is_module = self.resolve(module, attr)
                reached.add(module)
                if not is_module:
                    break
        return {m for m in reached if m.split(".")[0] in self.roots}

    # -- the walk -----------------------------------------------------
    def reachable(self, entries: Iterable[Path]) -> Set[str]:
        frontier: List[str] = []
        for path in entries:
            if _inside(path, self.src):
                frontier.append(_module_name(path, self.src)[0])
            else:
                frontier.extend(self.edges(_parse(path)))
        reached: Set[str] = set()
        while frontier:
            name = frontier.pop()
            for candidate in _with_parents(name):
                if candidate in reached or candidate not in self.modules:
                    continue
                reached.add(candidate)
                module = self.modules[candidate]
                frontier.extend(self.edges(module.tree, candidate,
                                           module.is_package))
        return reached


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _inside(path: Path, directory: Path) -> bool:
    try:
        path.resolve().relative_to(directory.resolve())
    except ValueError:
        return False
    return True


def _with_parents(name: str) -> List[str]:
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _absolute(node: ast.ImportFrom, name: Optional[str], is_package: bool) -> str:
    if not node.level:
        return node.module or ""
    parts = (name or "").split(".")
    keep = len(parts) - node.level + (1 if is_package else 0)
    base = parts[:keep]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _top_level_imports(module: _Module) -> Dict[str, Tuple[str, str]]:
    exports = {}
    for node in module.tree.body:
        if isinstance(node, ast.ImportFrom):
            base = _absolute(node, module.name, True)
            for alias in node.names:
                exports[alias.asname or alias.name] = (base, alias.name)
    return exports


def _loaded_names(tree: ast.Module) -> Set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _attribute_chains(tree: ast.Module) -> List[List[str]]:
    chains = []
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name):
            chains.append([node.id] + attrs[::-1])
    return chains


@functools.lru_cache(maxsize=None)
def unreached_modules(root: Path = ROOT) -> Tuple[Set[str], Set[str]]:
    """All ``repro`` modules under ``root/src``, and those no entry point reaches."""
    graph = ImportGraph(root / "src")
    modules = {name for name in graph.modules if name.split(".")[0] == "repro"}
    return modules, modules - graph.reachable(entry_points(root))


def test_every_unreached_module_is_an_orphan():
    unlisted = sorted(unreached_modules()[1] - set(ORPHANS))
    assert not unlisted, (
        f"no entry point reaches {unlisted}: wire each into a run path, "
        f"delete it, or list it in ORPHANS with the reason it stays")


def test_orphans_table_only_shrinks():
    modules, unreached = unreached_modules()
    gone = sorted(set(ORPHANS) - modules)
    reached = sorted((set(ORPHANS) & modules) - unreached)
    assert not gone, f"ORPHANS lists modules that no longer exist: {gone}"
    assert not reached, f"ORPHANS lists modules an entry point reaches: {reached}"


def _write(root: Path, files: Dict[str, str]) -> None:
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_walk_rules_on_a_synthetic_tree(tmp_path):
    _write(tmp_path, {
        "src/pkg/__init__.py": "from pkg.used import helper\n"
                               "from pkg.unused import Orphan\n",
        "src/pkg/used.py": "def helper():\n    pass\n",
        "src/pkg/unused.py": "class Orphan:\n    pass\n",
        "src/pkg/sub/__init__.py": "from .deep import value\n",
        "src/pkg/sub/deep.py": "value = 1\n",
        "src/pkg/sub/other.py": "",
        "src/pkg/lazy.py": "",
        "src/pkg/main.py": "import pkg\nimport pkg.sub\n"
                           "from pkg import helper\n"
                           "def run():\n"
                           "    from . import lazy\n"
                           "    return pkg.sub.value\n",
    })
    graph = ImportGraph(tmp_path / "src")
    reached = graph.reachable([tmp_path / "src/pkg/main.py"])
    # A re-export is followed only where it is used; a package import
    # reaches its __init__ only; attribute chains and lazy imports count.
    assert reached == {"pkg", "pkg.main", "pkg.used", "pkg.sub",
                       "pkg.sub.deep", "pkg.lazy"}


def _reached(tmp_path: Path, files: Dict[str, str], entry: str) -> Set[str]:
    _write(tmp_path, files)
    return ImportGraph(tmp_path / "src").reachable([tmp_path / "src" / entry])


def test_package_import_reaches_only_its_init(tmp_path):
    reached = _reached(tmp_path, {
        "src/pkg/__init__.py": "from pkg.a import f\n",
        "src/pkg/a.py": "def f():\n    pass\n",
        "src/pkg/main.py": "import pkg\n",
    }, "pkg/main.py")
    assert reached == {"pkg", "pkg.main"}


def test_a_package_reaches_what_its_own_body_uses(tmp_path):
    reached = _reached(tmp_path, {
        "src/pkg/__init__.py": "from pkg.a import f\nDEFAULT = f()\n",
        "src/pkg/a.py": "def f():\n    return 1\n",
        "src/pkg/main.py": "import pkg\n",
    }, "pkg/main.py")
    assert reached == {"pkg", "pkg.main", "pkg.a"}


def test_from_import_follows_a_chain_of_re_exports(tmp_path):
    reached = _reached(tmp_path, {
        "src/pkg/__init__.py": "from pkg.sub import Thing\n",
        "src/pkg/sub/__init__.py": "from .impl import Thing\n",
        "src/pkg/sub/impl.py": "class Thing:\n    pass\n",
        "src/pkg/sub/spare.py": "",
        "src/pkg/main.py": "from pkg import Thing\n",
    }, "pkg/main.py")
    assert reached == {"pkg", "pkg.main", "pkg.sub", "pkg.sub.impl"}


def test_attribute_chain_reaches_submodules_and_stops_at_a_value(tmp_path):
    reached = _reached(tmp_path, {
        "src/pkg/__init__.py": "from pkg.a import f\n",
        "src/pkg/a.py": "def f():\n    pass\n",
        "src/pkg/b/__init__.py": "",
        "src/pkg/b/c.py": "value = 2\n",
        "src/pkg/b/value.py": "",
        "src/pkg/main.py": "import pkg\nimport pkg.b\n"
                           "pkg.f.value\npkg.b.c.value\n",
    }, "pkg/main.py")
    # ``pkg.f`` is a function, so ``.value`` after it is not a module even
    # though ``pkg.b.value`` exists; ``pkg.b.c`` is a submodule.
    assert reached == {"pkg", "pkg.main", "pkg.a", "pkg.b", "pkg.b.c"}


def test_import_as_binds_the_alias_to_the_submodule(tmp_path):
    reached = _reached(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/sub/__init__.py": "",
        "src/pkg/sub/leaf.py": "",
        "src/pkg/sub/other.py": "",
        "src/pkg/main.py": "import pkg.sub as s\ns.leaf\n",
    }, "pkg/main.py")
    assert reached == {"pkg", "pkg.main", "pkg.sub", "pkg.sub.leaf"}


def test_dotted_import_reaches_every_package_above(tmp_path):
    reached = _reached(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/a/__init__.py": "",
        "src/pkg/a/b/__init__.py": "",
        "src/pkg/a/b/leaf.py": "",
        "src/pkg/main.py": "import pkg.a.b.leaf\n",
    }, "pkg/main.py")
    assert reached == {"pkg", "pkg.main", "pkg.a", "pkg.a.b", "pkg.a.b.leaf"}


def test_lazy_import_inside_a_function_counts(tmp_path):
    reached = _reached(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/heavy.py": "",
        "src/pkg/main.py": "def run():\n"
                           "    from pkg import heavy\n"
                           "    return heavy\n",
    }, "pkg/main.py")
    assert "pkg.heavy" in reached


def test_star_import_reaches_its_module(tmp_path):
    reached = _reached(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/names.py": "X = 1\n",
        "src/pkg/main.py": "from pkg.names import *\n",
    }, "pkg/main.py")
    assert reached == {"pkg", "pkg.main", "pkg.names"}


def test_relative_imports_resolve_against_module_and_package():
    def base(code: str, name: str, is_package: bool) -> str:
        return _absolute(ast.parse(code).body[0], name, is_package)

    assert base("from . import x", "pkg.mod", False) == "pkg"
    assert base("from .sib import x", "pkg.mod", False) == "pkg.sib"
    assert base("from ..up import x", "pkg.sub.mod", False) == "pkg.up"
    assert base("from . import x", "pkg.sub", True) == "pkg.sub"
    assert base("from .. import x", "pkg.sub", True) == "pkg"
    assert base("from pkg.abs import x", "other.mod", False) == "pkg.abs"


def test_cyclic_re_exports_terminate(tmp_path):
    _write(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/a/__init__.py": "from pkg.b import X\n",
        "src/pkg/b/__init__.py": "from pkg.a import X\n",
    })
    graph = ImportGraph(tmp_path / "src")
    module, is_module = graph.resolve("pkg.a", "X")
    assert not is_module
    assert module in {"pkg.a", "pkg.b"}


def test_modules_outside_src_are_not_edges(tmp_path):
    _write(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/used.py": "",
        "scripts/run.py": "import json\nimport numpy as np\n"
                          "from pkg import used\nnp.linalg.norm\n",
    })
    graph = ImportGraph(tmp_path / "src")
    assert graph.edges(_parse(tmp_path / "scripts/run.py")) == {"pkg.used"}
    assert graph.reachable([tmp_path / "scripts/run.py"]) == {"pkg", "pkg.used"}


def test_entry_points_take_nested_benchmarks_and_top_level_examples(tmp_path):
    _write(tmp_path, {
        "benchmarks/bench_a.py": "",
        "benchmarks/e2e/run.py": "",
        "examples/demo.py": "",
        "examples/data/helper.py": "",
    })
    names = {path.relative_to(tmp_path).as_posix()
             for path in entry_points(tmp_path)}
    assert {"benchmarks/bench_a.py", "benchmarks/e2e/run.py",
            "examples/demo.py"} <= names
    assert "examples/data/helper.py" not in names
    assert "src/repro/api/cli.py" in names


def test_gate_reports_an_unreached_module_of_a_repro_tree(tmp_path):
    empty = ["__init__.py", "__main__.py", "api/__init__.py",
             "api/adapters.py", "api/server.py", "fleet/__init__.py",
             "fleet/router.py", "tools/__init__.py", "tools/live.py",
             "tools/dead.py"]
    files = {f"src/repro/{path}": "" for path in empty}
    files["src/repro/api/cli.py"] = "from repro.tools import live\n"
    files["src/other/__init__.py"] = ""
    _write(tmp_path, files)
    modules, unreached = unreached_modules(tmp_path)
    assert "other" not in modules
    assert "repro.tools.live" in modules - unreached
    assert unreached == {"repro.tools.dead"}
