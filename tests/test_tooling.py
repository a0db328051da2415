"""Tooling checks: the benchmark's tracer still finds every target it wraps
and reads blocks as it expects, no module of the package imports numpy, `cotorsion`
keeps no plain Cone/CoCone enumeration, the package
imports nothing it does not use (no linter is installed), no
module but the fixtures draws random numbers, no module keeps a memo of
its own, every workspace table is documented, only `algebra` binds maps to
stored blocks, every public function, class, method and property is used
somewhere, every definition is reached by the CLI, the benchmark or the
scripts (a short list waits for ROADMAP items), and the CLI's output does
not depend on the hash seed."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from test_acceptance import DETERMINISM_COMMANDS

ROOT = Path(__file__).resolve().parents[1]


def run_child(code: str, **env: str) -> str:
    """Run `code` in a fresh interpreter with src/ and perfbench/ first on
    the path, and `env` over this process's environment; its standard
    output."""
    run = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n" + code,
         str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **env},
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_benchmark_tracer_installs():
    # In a child process: installing the tracer rebinds the package's functions.
    run_child("from tracer import Tracer\nTracer().install()\n")


def test_the_package_imports_no_numpy():
    # Every module, the CLI and the Ext^1 oracle included, imports without numpy.
    out = run_child(
        "import importlib, pkgutil, quiverhearts\n"
        "for m in pkgutil.iter_modules(quiverhearts.__path__):\n"
        "    importlib.import_module('quiverhearts.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    assert out == "[]\n"


def test_cotorsion_keeps_only_the_complete_search():
    # The plain enumeration of sums and maps is the tests' reference in
    # `tests/lemmas.py`; `cotorsion` neither defines nor calls it.
    source = (ROOT / "src" / "quiverhearts" / "cotorsion.py").read_text(encoding="utf-8")
    assert "candidate_sums" not in source and "all_maps" not in source


def test_benchmark_tracer_reads_blocks():
    # The tracer keys each module by `.tobytes()` of its arrow maps (the
    # distinct-pair ratio of hom_space) and takes `np.shape` of the operand
    # of `linalg.rref` (the share of trivial ones).
    out = run_child(
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "from quiverhearts import algebra, fixtures, linalg\n"
        "atlas = fixtures.ex61().atlas\n"
        "tracer.op = 0\n"
        "algebra.hom_space(atlas['2/34/5'], atlas['2/34'])\n"
        "algebra.hom_space(atlas['2/34/5'].renamed('copy'), atlas['2/34'])\n"
        "linalg.rref(linalg.eye(1), 101)\n"
        "linalg.rref(linalg.eye(2), 101)\n"
        "tracer.op = -1\n"
        "s = tracer.summary()\n"
        "print(s['algebra.hom_space.calls'], s['algebra.hom_space.distinct_ratio'],"
        " s['linalg.rref.calls'], s['linalg.rref.trivial_share'])\n"
    )
    assert out.split() == ["2", "0.5", "2", "0.5"]


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (`__all__` counts as a read)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted((ROOT / "src" / "quiverhearts").glob("*.py"))
    unused = [u for path in modules for u in unused_imports(path)]
    assert not unused, unused


def deferred_imports(path: Path) -> list[str]:
    """Imports inside functions from a module the file also imports at top
    level: that module is loaded already, so no import cycle needs them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def modules(node) -> set[str]:
        if isinstance(node, ast.Import):
            return {alias.name for alias in node.names}
        if isinstance(node, ast.ImportFrom):
            return {"." * node.level + (node.module or "")}
        return set()

    top = set().union(*(modules(node) for node in tree.body))
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                found |= {f"{path.name}:{node.lineno} {m}" for m in modules(node) & top}
    return sorted(found)


def test_no_deferred_imports_of_loaded_modules():
    modules = sorted((ROOT / "src" / "quiverhearts").glob("*.py"))
    deferred = [d for path in modules for d in deferred_imports(path)]
    assert not deferred, deferred


def named(path: Path) -> set[str]:
    """Every identifier a module reads, binds, passes as a keyword or
    takes as a parameter."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
    return found


def test_certificates_draw_no_random_numbers():
    # Every decision is exact: isomorphism, indecomposability and the
    # localization and round-trip checks run over whole hom spaces, so a
    # generator anywhere but in the fixtures (which draw from one their
    # caller passes in) would bring sampling back.
    banned = {"rng", "default_rng", "naturality_samples", "trials"}
    for path in sorted((ROOT / "src" / "quiverhearts").glob("*.py")):
        if path.name != "fixtures.py":
            found = named(path) & banned
            assert not found, (path.name, sorted(found))


def last_name(node) -> str | None:
    """The name a call, attribute or name ends in: `f`, `m.f`, `f()`, `m.f()`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def is_empty_table(node) -> bool:
    """`{}`, `[]`, `dict()`, `set()`, or an empty weakref dictionary or set."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and last_name(node)
        in ("dict", "set", "WeakValueDictionary", "WeakKeyDictionary", "WeakSet")
        and not node.args
        and not node.keywords
    )


def is_dict_field(node) -> bool:
    """`field(default_factory=dict)`."""
    return (
        isinstance(node, ast.Call)
        and last_name(node) == "field"
        and any(
            kw.arg == "default_factory" and last_name(kw.value) == "dict" for kw in node.keywords
        )
    )


def per_object_memos(tree) -> list[tuple[int, str]]:
    """(line, name) of every `self.<name> = {}` (or another empty table) and
    every dataclass field `<name>: ... = field(default_factory=dict)` whose
    name ends in `cache`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for t in targets:
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name):
                name = t.attr if t.value.id == "self" and is_empty_table(value) else None
            elif isinstance(t, ast.Name):
                name = t.id if is_dict_field(value) else None
            else:
                name = None
            if name and name.endswith("cache"):
                found.append((node.lineno, name))
    return found


TABLE_WRITES = ("setdefault", "update", "add", "append", "extend")


def module_table_writes(tree) -> list[tuple[int, str]]:
    """(line, name) of every write, inside a function, to a name that the
    module binds at its top level: an assignment to or deletion of one of
    its items, or a call of one of `TABLE_WRITES` on it.  A table filled
    while the module is imported is a constant; one filled by a call is a
    memo, whatever it held when it was bound."""
    names = {
        t.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(t, ast.Name)
    }
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                table = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                table = node.func.value if node.func.attr in TABLE_WRITES else None
            else:
                continue
            if isinstance(table, ast.Name) and table.id in names:
                found.add((node.lineno, table.id))
    return sorted(found)


def memo_rule_breaks(path: Path) -> list[str]:
    """Calls to the builtin `id`, module-level names bound to an empty table
    (weak ones too) or written inside a function, `functools.cache` or
    `lru_cache` decorators and per-object memo dicts: the shapes of an
    id-keyed cache and of a second memo beside the Workspace."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"{path.name}:{node.lineno} id()"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    found += [
        f"{path.name}:{node.lineno} module-level table"
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and is_empty_table(node.value)
    ]
    found += [
        f"{path.name}:{node.lineno} {last_name(dec)} decorator"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
        if last_name(dec) in ("cache", "lru_cache")
    ]
    found += [f"{path.name}:{line} per-object memo {name}" for line, name in per_object_memos(tree)]
    found += [f"{path.name}:{line} write to module-level {name}"
              for line, name in module_table_writes(tree)]
    return found


def test_one_memo_rule():
    # Results that depend only on content live in the Workspace, certificate
    # values (R(X), H(X), Phi, (co)reflections, quotient Hom data) included:
    # a second certificate of the same instance hits them.  Data derived from
    # one object is held by its owner as a cached_property; no object keeps a
    # memo dict of its own.
    modules = sorted((ROOT / "src" / "quiverhearts").glob("*.py"))
    breaks = [b for path in modules for b in memo_rule_breaks(path)]
    assert not breaks, breaks


def workspace_tables(path: Path) -> set[str]:
    """The table names of the `WORKSPACE.memo("<name>", ...)` calls in a module."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "memo"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "WORKSPACE"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def test_every_workspace_table_is_documented():
    package = ROOT / "src" / "quiverhearts"
    tables = set().union(*(workspace_tables(path) for path in sorted(package.glob("*.py"))))
    doc = ast.get_docstring(ast.parse((package / "workspace.py").read_text(encoding="utf-8")))
    assert len(tables) >= 14, sorted(tables)
    missing = sorted(t for t in tables if f"`{t}`" not in doc)
    assert not missing, missing


def binding_names(path: Path) -> list[str]:
    """Every name, attribute, definition or import of a binding layer
    (`stored_maps`, `bound_maps`, `_bound`, `__copy__`) or of `_hom_basis`,
    the one table of bare blocks."""
    banned = {"stored_maps", "bound_maps", "_bound", "__copy__", "_hom_basis"}
    return [
        f"{path.name}:{getattr(node, 'lineno', 0)} {getattr(node, field)}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for field in ("id", "attr", "name")
        if getattr(node, field, None) in banned
    ]


def test_only_algebra_binds_stored_blocks():
    # Modules compare by content, so a memo hit returns the value its miss
    # stored, modules and maps as they were built.  The one exception is
    # `hom_space`, whose entries are bare blocks that `algebra.hom_space`
    # binds to the caller's two modules: nothing outside `algebra` reads
    # them, and no module keeps a layer that copies or rebinds modules.
    modules = sorted((ROOT / "src" / "quiverhearts").glob("*.py"))
    found = [u for path in modules for u in binding_names(path)]
    assert all(u.startswith("algebra.py:") and u.endswith(" _hom_basis") for u in found), found
    assert found


def package_imports(tree) -> dict[str, str]:
    """Local name -> `module` or `module.name` for each `from .module import
    name`, `from quiverhearts import module` and the like in a file."""
    bound = {}
    for node in ast.walk(tree):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and (node.level or module.startswith("quiverhearts")):
            base = module.removeprefix("quiverhearts").lstrip(".")
            bound.update({a.asname or a.name: f"{base}.{a.name}".lstrip(".") for a in node.names})
    return bound


def unreached_definitions(root: Path, allowed=()) -> list[str]:
    """The functions, classes, methods and properties in `src/` that no CLI
    command, benchmark workload or script reaches, nor an `allowed` one,
    each marked as read by tests only or by nothing.  A read resolves
    through the reader's imports: a bare name only if the file imports or
    defines it, `m.f` and `C.f` through the module or class bound as m or
    C; any other `.f` reads every method named f, and a string spelling a
    definition (the benchmark's span names) reads it.  A class reads its
    dunder methods and its body outside its methods, where a bare name may
    be a method; the package's module-level code is reached."""
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((root / "src" / "quiverhearts").glob("*.py"))}
    defs, methods = {}, {}
    for module, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
            for f in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(f, ast.FunctionDef):
                    defs[f"{module}.{node.name}.{f.name}"] = f
                    methods.setdefault(f.name, set()).add(f"{module}.{node.name}.{f.name}")

    def reads(nodes, bound: dict) -> set[str]:
        found = set()
        for node in (n for top in nodes for n in ast.walk(top)):
            if isinstance(node, ast.Name):
                found.add(bound.get(node.id))
            elif isinstance(node, ast.Attribute):
                name = f"{bound.get(getattr(node.value, 'id', None))}.{node.attr}"
                found |= {name} if name in defs else methods.get(node.attr, set())
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
        return found & defs.keys()

    edges, module_level = {}, set()
    for module, tree in package.items():
        mine = [name for name in defs if name.startswith(module + ".")]
        bound = {**package_imports(tree), **{n.split(".")[1]: n for n in mine if n.count(".") == 1}}
        top = [n for n in tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        module_level |= reads(top, bound)
        for name in mine:
            node = defs[name]
            if isinstance(node, ast.ClassDef):
                own = {n.rsplit(".", 1)[1]: n for n in mine if n.startswith(name + ".")}
                rest = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
                edges[name] = reads(node.bases + node.keywords + node.decorator_list + rest,
                                    {**bound, **own}) | {own[f] for f in own if f.startswith("__")}
            else:
                edges[name] = reads([node], bound)

    def reached(where: list[str], extra=()) -> set[str]:
        todo = [*module_level, *extra]
        for path in (p for w in where for p in sorted((root / w).rglob("*.py"))):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            todo += reads([tree], package_imports(tree))
        seen = set()
        while todo:
            if (name := todo.pop()) not in seen:
                seen.add(name)
                todo += edges.get(name, ())
        return seen

    live, tested = reached(["perfbench", "scripts"], allowed), reached(["tests"])
    return [f"{name} ({'only tests read it' if name in tested else 'nothing reads it'})"
            for name in sorted(defs.keys() - live)]


def test_no_dead_public_names():
    # Every function, class, method and property, public or not, is read by
    # a command, the benchmark, a script or a test.
    dead = [line for line in unreached_definitions(ROOT) if line.endswith("(nothing reads it)")]
    assert not dead, dead


# Definitions only tests reach, kept until the ROADMAP item named above
# them or as an API; an entry is a root, so what it calls needs no entry.
TEST_ONLY_ALLOWED = (
    # item 16: the bridges between H/U and mod Gamma
    "heart.HeartModel.validate_equivalence", "heart.PhiModel.module_map", "heart.heart_mono",
    "heart.heart_kernel_dim", "heart.heart_kernel_module", "heart.heart_cokernel_module",
    "heart.CohomologicalH.is_zero_h", "heart.CohomologicalH.h_map",
    # item 14: module names
    "algebra.Rep.renamed",
    # the public memo API
    "workspace.Workspace.stats", "workspace.Workspace.clear",
)


def test_no_test_only_definitions():
    # The package ships what the CLI, the benchmark and the scripts run; a
    # check only tests call lives beside them, in `tests/lemmas.py`.
    unreached = unreached_definitions(ROOT, TEST_ONLY_ALLOWED)
    assert not unreached, unreached
    # every entry is a definition the engine does not reach
    flagged = {line.split()[0] for line in unreached_definitions(ROOT)}
    assert set(TEST_ONLY_ALLOWED) <= flagged


def test_test_only_rule_flags_what_only_a_test_reaches(tmp_path):
    files = """
    == src/quiverhearts/shapes.py
    def area(x): return x
    def image(x): return x
    == src/quiverhearts/core.py
    from .shapes import area
    def engine(x):
        image = area(x)  # a local name, not shapes.image
        return image
    def lemma(x): return engine(x)
    def traced(x): return x
    def unused(): return lemma(1)
    class Box:
        def size(self): return 1
        def checked(self): return self.size()
    == perfbench/run.py
    from quiverhearts import core
    SPANS = ["core.traced"]
    core.engine(core.Box().size())
    == tests/test_core.py
    from quiverhearts import core, shapes
    assert core.lemma(1) and core.Box().checked() and shapes.image(1)
    """
    for part in textwrap.dedent(files).split("== ")[1:]:
        name, _, text = part.partition("\n")
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    tested = ["core.Box.checked (only tests read it)", "shapes.image (only tests read it)"]
    assert unreached_definitions(tmp_path) == [
        tested[0], "core.lemma (only tests read it)", "core.unused (nothing reads it)", tested[1]
    ]
    assert unreached_definitions(tmp_path, ["core.unused"]) == tested


def test_memo_rule_flags_a_per_object_memo(tmp_path):
    path = tmp_path / "shapes.py"
    path.write_text(
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    _r_cache: dict = field(default_factory=dict)\n"
        "    witnesses: dict = field(default_factory=dict)\n"
        "    def __init__(self):\n"
        "        self._hom_cache: dict = {}\n"
        "        self._cache = {}\n"
        "        self._standard_names = {}\n"
        "        self.cache = self.other_cache = 0\n",
        encoding="utf-8",
    )
    assert memo_rule_breaks(path) == [
        "shapes.py:4 per-object memo _r_cache",
        "shapes.py:7 per-object memo _hom_cache",
        "shapes.py:8 per-object memo _cache",
    ]


def test_memo_rule_flags_a_write_to_a_module_level_table(tmp_path):
    path = tmp_path / "writes.py"
    path.write_text(
        "TABLE = {'seed': 1}\n"
        "ORDER = [1]\n"
        "SEEN = {0}\n"
        "TABLE['import'] = 2\n"
        "def f(k, v):\n"
        "    TABLE[k] = v\n"
        "    TABLE.setdefault(k, v)\n"
        "    ORDER.append(v)\n"
        "    local = {}\n"
        "    local[k] = TABLE[k]\n"
        "    local.update(TABLE)\n"
        "    return TABLE.get(k)\n"
        "class A:\n"
        "    def g(self, k):\n"
        "        SEEN.add(k)\n"
        "        ORDER.extend([k])\n"
        "        TABLE.update({k: k})\n"
        "        del TABLE[k]\n",
        encoding="utf-8",
    )
    assert memo_rule_breaks(path) == [
        f"writes.py:{line} write to module-level {name}"
        for line, name in [(6, "TABLE"), (7, "TABLE"), (8, "ORDER"), (15, "SEEN"),
                           (16, "ORDER"), (17, "TABLE"), (18, "TABLE")]
    ]


def test_output_does_not_depend_on_the_hash_seed():
    # Modules hash by content, so a set or dict of modules iterates in an
    # order that may change with the hash seed; the benchmark's workers pin
    # PYTHONHASHSEED=0, and `test_10` compares two runs in one process.
    code = (
        "import contextlib, io, json\n"
        "from quiverhearts import cli\n"
        "runs = []\n"
        f"for argv in {DETERMINISM_COMMANDS!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(list(argv))\n"
        "    runs.append((code, out.getvalue()))\n"
        "print(json.dumps(runs))\n"
    )
    first, second = (json.loads(run_child(code, PYTHONHASHSEED=seed)) for seed in ("0", "1"))
    assert len(first) == len(DETERMINISM_COMMANDS) == 11
    for argv, (code0, out0), (code1, out1) in zip(DETERMINISM_COMMANDS, first, second):
        assert code0 == code1, argv
        assert out0.encode() == out1.encode(), argv
