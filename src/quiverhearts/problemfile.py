"""Plain-text problem files: a field, a bound quiver, named modules,
named subcategories, and named task invocations.

The grammar is line oriented.  `#` starts a comment; blank lines are
skipped.  Top-level section headers are::

    field <p>
    quiver
      vertices <v> ...
      arrow <id> <source> <target>
    relations
      <coeff> <arrow> <arrow> ... [, <coeff> <arrow> ...]
    module <name>
      dims <d1> ... <dn>          # in vertex declaration order
      map <arrow> <entries...>    # row-major, rows = dim(target)
    subcat <name>
      members <module-name> ...
    task <name>
      command <command-name>
      param <key> <value>

Parsing is round-trip stable: parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BoundQuiverAlgebra, IndecSet, Quiver, Rep


class ProblemFileError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line is not None else msg)


@dataclass(frozen=True)
class TaskSpec:
    name: str
    command: str
    params: tuple[tuple[str, str], ...] = ()

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass
class ProblemFile:
    p: int
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]
    relations: tuple  # algebra.Relation list
    modules: dict  # name -> (dims tuple, {arrow: matrix rows tuple})
    subcats: dict  # name -> tuple of module names
    tasks: dict  # name -> TaskSpec

    def algebra(self) -> BoundQuiverAlgebra:
        return BoundQuiverAlgebra(Quiver(self.vertices, self.arrows), self.p, self.relations)

    def atlas(self) -> IndecSet:
        """The declared modules, unvalidated as an atlas: `cli` validates
        it once it has refused an empty one, which cannot be validated."""
        alg = self.algebra()
        members = []
        for name in sorted(self.modules):
            dims, maps = self.modules[name]
            arrow_maps = {a: [list(r) for r in rows] for a, rows in maps}
            members.append(Rep(alg, name, dims, arrow_maps).validate())
        return IndecSet(members, validate=False)


_SECTIONS = ("field", "quiver", "relations", "module", "subcat", "task")


def _tokens(line: str) -> list[str]:
    return line.split("#", 1)[0].split()


def parse(text: str) -> ProblemFile:
    p = None
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations: list = []
    modules: dict = {}
    subcats: dict = {}
    tasks: dict = {}
    section = None  # (kind, name)
    cur_dims = None
    cur_maps: list = []
    cur_task: dict = {}

    def close_section(ln):
        nonlocal cur_dims, cur_maps, cur_task
        if section is None:
            return
        kind, name = section
        if kind == "module":
            if cur_dims is None:
                raise ProblemFileError(f"module {name} has no dims line", ln)
            modules[name] = (cur_dims, tuple(sorted(cur_maps)))
        elif kind == "task":
            if "command" not in cur_task:
                raise ProblemFileError(f"task {name} has no command", ln)
            tasks[name] = TaskSpec(
                name, cur_task["command"], tuple(sorted(cur_task.get("params", [])))
            )
        cur_dims, cur_maps, cur_task = None, [], {}

    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        head = toks[0]
        if head in _SECTIONS:
            close_section(ln)
            if head == "field":
                if len(toks) != 2 or not toks[1].isdigit():
                    raise ProblemFileError("expected: field <prime>", ln)
                p = int(toks[1])
                section = None
            elif head in ("quiver", "relations"):
                if len(toks) != 1:
                    raise ProblemFileError(f"unexpected tokens after `{head}`", ln)
                section = (head, None)
            else:
                if len(toks) != 2:
                    raise ProblemFileError(f"expected: {head} <name>", ln)
                name = toks[1]
                store = {"module": modules, "subcat": subcats, "task": tasks}[head]
                if name in store:
                    raise ProblemFileError(f"duplicate {head} {name}", ln)
                if head == "subcat":
                    store[name] = ()
                section = (head, name)
            continue
        if section is None:
            raise ProblemFileError(f"unexpected token `{head}` outside any section", ln)
        kind, name = section
        if kind == "quiver":
            if head == "vertices":
                vertices.extend(toks[1:])
            elif head == "arrow":
                if len(toks) != 4:
                    raise ProblemFileError("expected: arrow <id> <source> <target>", ln)
                arrows.append((toks[1], toks[2], toks[3]))
            else:
                raise ProblemFileError(f"unknown quiver line `{head}`", ln)
        elif kind == "relations":
            rel = []
            for term in " ".join(toks).split(","):
                bits = term.split()
                if len(bits) < 2:
                    raise ProblemFileError("relation term needs a coefficient and a path", ln)
                try:
                    coeff = int(bits[0])
                except ValueError:
                    raise ProblemFileError(f"bad coefficient `{bits[0]}`", ln)
                rel.append((coeff, tuple(bits[1:])))
            relations.append(tuple(rel))
        elif kind == "module":
            if head == "dims":
                try:
                    cur_dims = tuple(int(t) for t in toks[1:])
                except ValueError:
                    raise ProblemFileError("dims entries must be integers", ln)
                if len(cur_dims) != len(vertices):
                    raise ProblemFileError(
                        f"dims has {len(cur_dims)} entries, expected {len(vertices)}", ln
                    )
            elif head == "map":
                if cur_dims is None:
                    raise ProblemFileError("map line before dims", ln)
                if len(toks) < 2:
                    raise ProblemFileError("expected: map <arrow> <entries...>", ln)
                aid = toks[1]
                match = [a for a in arrows if a[0] == aid]
                if not match:
                    raise ProblemFileError(f"undeclared arrow `{aid}`", ln)
                _, s, t = match[0]
                if s not in vertices or t not in vertices:
                    raise ProblemFileError(f"arrow {aid} has undeclared endpoint", ln)
                rows = cur_dims[vertices.index(t)]
                cols = cur_dims[vertices.index(s)]
                try:
                    flat = [int(x) for x in toks[2:]]
                except ValueError:
                    raise ProblemFileError("matrix entries must be integers", ln)
                if len(flat) != rows * cols:
                    raise ProblemFileError(
                        f"map {aid} needs {rows * cols} entries, got {len(flat)}", ln
                    )
                mat = tuple(
                    tuple(flat[r * cols + c] for c in range(cols)) for r in range(rows)
                )
                # zero matrices are the default; omitting them keeps files canonical
                if any(any(row) for row in mat):
                    cur_maps.append((aid, mat))
            else:
                raise ProblemFileError(f"unknown module line `{head}`", ln)
        elif kind == "subcat":
            if head != "members":
                raise ProblemFileError(f"unknown subcat line `{head}`", ln)
            subcats[name] = subcats[name] + tuple(toks[1:])
        elif kind == "task":
            if head == "command":
                if len(toks) != 2:
                    raise ProblemFileError("expected: command <name>", ln)
                cur_task["command"] = toks[1]
            elif head == "param":
                if len(toks) != 3:
                    raise ProblemFileError("expected: param <key> <value>", ln)
                cur_task.setdefault("params", []).append((toks[1], toks[2]))
            else:
                raise ProblemFileError(f"unknown task line `{head}`", ln)
    close_section(None)

    if p is None:
        raise ProblemFileError("missing `field` section")
    pf = ProblemFile(
        p, tuple(vertices), tuple(arrows), tuple(relations), modules, subcats, tasks
    )
    _validate_references(pf)
    pf.algebra()  # raises on non-prime field / inadmissible relations
    return pf


_MODULE_KEYS = ("source", "target", "module", "x", "y")
_SUBCAT_KEYS = ("subcat", "c", "d")


def _validate_references(pf: ProblemFile) -> None:
    for name, members in pf.subcats.items():
        for m in members:
            if m not in pf.modules:
                raise ProblemFileError(f"subcat {name} references undeclared module {m}")
    for tname, task in pf.tasks.items():
        for key, value in task.params:
            if key in _SUBCAT_KEYS and value not in pf.subcats:
                raise ProblemFileError(
                    f"task {tname} references undeclared subcat {value}"
                )
            if key in _MODULE_KEYS and value not in pf.modules:
                raise ProblemFileError(
                    f"task {tname} references undeclared module {value}"
                )


def serialize(pf: ProblemFile) -> str:
    out = [f"field {pf.p}", ""]
    out.append("quiver")
    if pf.vertices:
        out.append("  vertices " + " ".join(pf.vertices))
    for aid, s, t in pf.arrows:
        out.append(f"  arrow {aid} {s} {t}")
    if pf.relations:
        out.append("")
        out.append("relations")
        for rel in pf.relations:
            out.append(
                "  " + ", ".join(f"{c} " + " ".join(path) for c, path in rel)
            )
    for name in sorted(pf.modules):
        dims, maps = pf.modules[name]
        out.append("")
        out.append(f"module {name}")
        out.append("  dims " + " ".join(str(d) for d in dims))
        for aid, mat in maps:
            flat = " ".join(str(x) for row in mat for x in row)
            out.append(f"  map {aid} {flat}")
    for name in sorted(pf.subcats):
        out.append("")
        out.append(f"subcat {name}")
        out.append("  members " + " ".join(pf.subcats[name]))
    for name in sorted(pf.tasks):
        task = pf.tasks[name]
        out.append("")
        out.append(f"task {name}")
        out.append(f"  command {task.command}")
        for k, v in task.params:
            out.append(f"  param {k} {v}")
    return "\n".join(out) + "\n"


def parse_path(path: str) -> ProblemFile:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def problem_from_fixture(fixture, tasks: dict | None = None) -> ProblemFile:
    """Render a built-in fixture as a ProblemFile (used by the demo commands)."""
    alg = fixture.algebra
    modules = {}
    for m in fixture.atlas:
        maps = tuple(
            sorted(
                (aid, tuple(tuple(row) for row in mat.tolist()))
                for aid, mat in m.arrow_maps.items()
                if mat.any()
            )
        )
        modules[m.name] = (tuple(int(d) for d in m.dims), maps)
    return ProblemFile(
        alg.p,
        alg.quiver.vertices,
        alg.quiver.arrows,
        alg.relations,
        modules,
        {k: tuple(v) for k, v in fixture.subcats.items()},
        dict(tasks or {}),
    )
