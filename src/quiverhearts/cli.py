"""Command-line front end.

Usage::

    quiverhearts <command> <problem-file> [names...] [flags]
    quiverhearts demo ex61|ex62 <command> [names...] [flags]

Commands: check, perp, rigid, cotorsion, heart, mutate, localize,
verify-main-theorem, classify-morphism, export-dot.

Exit codes: 0 success / claim verified, 1 claim falsified, 2 usage or
input error, 3 a capped search was inconclusive.

All output is deterministic: collections are sorted before printing and
no check draws on --seed, which is still accepted and has no effect.
"""

from __future__ import annotations

import argparse
import sys

from . import fixtures
from .algebra import AlgebraError, hom_dim
from .cotorsion import (
    Inconclusive,
    Subcategory,
    cotorsion_pair_from_rigid,
    is_rigid,
    perp_right,
    satisfies_rcp,
    verify_cotorsion_pair,
)
from .heart import GabrielQuiver, HeartModel, gabriel_quiver
from .homology import homs
from .mutation import (
    LocalizationModel,
    MutationInput,
    TwinData,
    classify_r,
    dual_localization_model,
    ext2_rigidity_criterion,
    reversed_quiver,
    right_mutation,
    verify_localization,
    verify_main_theorem,
)
from .problemfile import ProblemFileError, parse_path

R_FLAGS = ("R0", "R1", "R1_tilde", "R2")


class UsageError(ValueError):
    pass


def _bool(v) -> str:
    return "true" if v else "false"


def export_dot(qv: GabrielQuiver, title: str = "quiver") -> str:
    """DOT rendering with sorted vertices and multiplicities as edge labels."""
    lines = [f'digraph "{title}" {{']
    for n in sorted(qv.nodes):
        lines.append(f'  "{n}";')
    for (s, t), k in sorted(qv.arrows.items()):
        lines.append(f'  "{s}" -> "{t}" [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def panel_grid(atlas_names, panels: dict) -> list[str]:
    """Membership grid: one row per atlas object, one column per panel."""
    cols = sorted(panels)
    width = max(len(n) for n in atlas_names)
    lines = [" " * (width + 2) + "  ".join(f"{c:>12}" for c in cols)]
    for name in sorted(atlas_names):
        cells = ["o" if name in panels[c] else "." for c in cols]
        lines.append(f"{name:<{width}}  " + "  ".join(f"{c:>12}" for c in cells))
    return lines


class Context:
    def __init__(self, fixture, args, task=None):
        self.fixture = fixture
        self.atlas = fixture.atlas
        self.args = args
        self.task = task
        self.out: list[str] = []

    def say(self, line: str = ""):
        self.out.append(line)

    def _param(self, key: str) -> str | None:
        return self.task.get(key) if self.task else None

    def subcat(self, name: str) -> Subcategory:
        if name not in self.fixture.subcats:
            raise UsageError(f"unknown subcategory `{name}`")
        return self.fixture.subcat_obj(name)

    def names(self, k: int) -> list[str]:
        """The positional names, refusing any past the k the command reads."""
        names = self.args.names
        if len(names) > k:
            raise UsageError(f"unexpected name `{names[k]}`")
        return names

    def pick_subcat(self, default: str | None = None) -> Subcategory:
        names = self.names(1)
        if names:
            return self.subcat(names[0])
        fallback = self._param("subcat") or self._param("c")
        if fallback:
            return self.subcat(fallback)
        if default and default in self.fixture.subcats:
            return self.subcat(default)
        raise UsageError("no subcategory given and no default available")

    def pick_pair(self) -> tuple[Subcategory, Subcategory]:
        names = self.names(2)
        if len(names) >= 2:
            return self.subcat(names[0]), self.subcat(names[1])
        if len(names) == 1:
            raise UsageError("expected two subcategory names (outer, inner)")
        c = self._param("c") or ("C" if "C" in self.fixture.subcats else None)
        d = self._param("d") or ("D" if "D" in self.fixture.subcats else None)
        if c is None or d is None:
            raise UsageError("expected two subcategory names (outer, inner)")
        return self.subcat(c), self.subcat(d)

    def emit_dot(self, text: str):
        if self.args.dot:
            with open(self.args.dot, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.say(f"wrote {self.args.dot}")
        else:
            self.say(text.rstrip("\n"))


# ---------------------------------------------------------------------------
# Command handlers.  Each returns an exit code.


def cmd_check(ctx: Context) -> int:
    ctx.names(0)  # refuses any name: check reads none
    alg = self_validate(ctx)
    ctx.say(f"field {alg.p}")
    ctx.say(f"vertices {len(alg.quiver.vertices)}")
    ctx.say(f"arrows {len(alg.quiver.arrows)}")
    ctx.say(f"relations {len(alg.relations)}")
    ctx.say(f"indecomposables {len(ctx.atlas.members)}")
    for name in sorted(ctx.fixture.subcats):
        ctx.say(f"subcat {name}: " + " ".join(sorted(ctx.fixture.subcats[name])))
    ctx.say("atlas heuristics: ok")
    return 0


def self_validate(ctx: Context):
    """Atlas completeness heuristics: every standard module (projective,
    injective, simple) is present, and every member has a nonzero End."""
    alg = ctx.atlas.members[0].algebra
    for kind in ("projective", "injective", "simple"):
        ctx.atlas.standard_names(kind)
    for m in ctx.atlas:
        if hom_dim(m, m) < 1:
            raise AlgebraError(f"endomorphism space of {m.name} is empty")
    return alg


def cmd_perp(ctx: Context) -> int:
    sub = ctx.pick_subcat(default="C")
    res = perp_right(sub)
    ctx.say("perp: " + " ".join(sorted(res.names)))
    return 0


def cmd_rigid(ctx: Context) -> int:
    sub = ctx.pick_subcat(default="C")
    ok, report = satisfies_rcp(sub)
    ctx.say(f"rigid: {_bool(report['rigid'])}")
    for key in sorted(report):
        if key != "rigid":
            ctx.say(f"{key}: {_bool(report[key])}")
    ctx.say(f"admissible: {_bool(ok)}")
    return 0


def cmd_cotorsion(ctx: Context) -> int:
    sub = ctx.pick_subcat(default="C")
    pair = cotorsion_pair_from_rigid(sub)  # AlgebraError -> exit 2
    ctx.say("first class: " + " ".join(sorted(pair.u.names)))
    ctx.say("second class: " + " ".join(sorted(pair.v.names)))
    ok, report = verify_cotorsion_pair(pair.u, pair.v)
    for key in sorted(report):
        if isinstance(report[key], bool):
            ctx.say(f"{key}: {_bool(report[key])}")
    ctx.say(f"verified: {_bool(ok)}")
    return 0 if ok else 1


def cmd_heart(ctx: Context) -> int:
    sub = ctx.pick_subcat(default="C")
    pair = cotorsion_pair_from_rigid(sub)
    model = HeartModel.build(pair, ctx.atlas)
    names = model.heart_object_names()
    ctx.say("heart objects: " + " ".join(sorted(names)))
    qv = gabriel_quiver(model.quotient)
    for (s, t), k in sorted(qv.arrows.items()):
        ctx.say(f"arrow: {s} -> {t} x{k}")
    if ctx.args.dot:
        ctx.emit_dot(export_dot(qv, title="heart"))
    return 0


def cmd_mutate(ctx: Context) -> int:
    c, d = ctx.pick_pair()
    inp = MutationInput(ctx.atlas, c, d).validate()
    cmut = right_mutation(inp)
    ctx.say("mutation: " + " ".join(sorted(cmut.names)))
    ctx.say(f"rigid: {_bool(is_rigid(cmut))}")
    ctx.say(f"rcp: {_bool(satisfies_rcp(cmut)[0])}")
    ctx.say(f"ext2_vanishing: {_bool(ext2_rigidity_criterion(inp))}")
    return 0


def cmd_localize(ctx: Context) -> int:
    c, d = ctx.pick_pair()
    inp = MutationInput(ctx.atlas, c, d).validate()
    cmut = right_mutation(inp)
    if not (is_rigid(cmut) and satisfies_rcp(cmut)[0]):
        raise AlgebraError("the mutated class does not satisfy the rigidity hypotheses")
    model = LocalizationModel.build(inp)
    ctx.say("heart objects: " + " ".join(sorted(model.heart.heart_object_names())))
    ctx.say("localized objects: " + " ".join(sorted(model.object_names())))
    qv = model.localized_quiver()
    for (s, t), k in sorted(qv.arrows.items()):
        ctx.say(f"arrow: {s} -> {t} x{k}")
    report = verify_localization(model)
    for key in ("density", "fullness", "faithfulness", "inversion"):
        ctx.say(f"{key}: {_bool(report[key])}")
    ctx.say(f"verified: {_bool(report['ok'])}")
    if ctx.args.dot:
        ctx.emit_dot(export_dot(qv, title="localized"))
    return 0 if report["ok"] else 1


def cmd_verify_main_theorem(ctx: Context) -> int:
    c, d = ctx.pick_pair()
    report = verify_main_theorem(ctx.atlas, c, d)
    for key in sorted(report["panels"]):
        ctx.say(f"panel {key}: " + " ".join(sorted(report["panels"][key])))
    for key in sorted(report["checks"]):
        ctx.say(f"check {key}: {_bool(report['checks'][key])}")
    if "error" in report:
        ctx.say(f"error: {report['error']}")
    if ctx.args.print_panels and report["panels"]:
        ctx.say()
        for line in panel_grid(ctx.atlas.names, report["panels"]):
            ctx.say(line)
    ctx.say(f"ok: {_bool(report['ok'])}")
    if ctx.args.dot and "quiver" in report:
        ctx.emit_dot(export_dot(report["quiver"], title="localized"))
    return 0 if report["ok"] else 1


def cmd_classify_morphism(ctx: Context) -> int:
    names = ctx.args.names
    src = names[0] if len(names) > 0 else ctx.task and ctx.task.get("source")
    tgt = names[1] if len(names) > 1 else ctx.task and ctx.task.get("target")
    if not src or not tgt:
        raise UsageError("expected: classify-morphism <source> <target> [c d]")
    if src not in ctx.atlas.by_name or tgt not in ctx.atlas.by_name:
        raise UsageError("source and target must name atlas modules")
    saved = ctx.args.names
    ctx.args.names = saved[2:]
    c, d = ctx.pick_pair()
    ctx.args.names = saved
    inp = MutationInput(ctx.atlas, c, d).validate()
    twin = TwinData.build(inp)
    basis = homs(ctx.atlas[src], ctx.atlas[tgt])
    if not basis:
        ctx.say(f"hom({src}, {tgt}) = 0")
        return 0
    for i, f in enumerate(basis):
        flags = classify_r(twin, f)
        cells = " ".join(f"{k}={_bool(flags[k])}" for k in R_FLAGS)
        ctx.say(f"basis[{i}]: {cells}")
    return 0


def cmd_export_dot(ctx: Context) -> int:
    names = ctx.args.names
    what = names[0] if names else "heart"
    ctx.args.names = names[1:]
    if what == "heart":
        sub = ctx.pick_subcat(default="C")
        pair = cotorsion_pair_from_rigid(sub)
        qv = gabriel_quiver(HeartModel.build(pair, ctx.atlas).quotient)
    elif what in ("localized", "localized-dual"):
        c, d = ctx.pick_pair()
        inp = MutationInput(ctx.atlas, c, d).validate()
        if what == "localized":
            qv = LocalizationModel.build(inp).localized_quiver()
        else:
            twin = TwinData.build(inp)
            qv = reversed_quiver(
                dual_localization_model(ctx.atlas, twin.m_mut, twin.n).localized_quiver()
            )
    else:
        raise UsageError(
            f"unknown target `{what}` (expected heart, localized or localized-dual)"
        )
    ctx.args.names = names
    ctx.emit_dot(export_dot(qv, title=what))
    return 0


HANDLERS = {
    "check": cmd_check,
    "perp": cmd_perp,
    "rigid": cmd_rigid,
    "cotorsion": cmd_cotorsion,
    "heart": cmd_heart,
    "mutate": cmd_mutate,
    "localize": cmd_localize,
    "verify-main-theorem": cmd_verify_main_theorem,
    "classify-morphism": cmd_classify_morphism,
    "export-dot": cmd_export_dot,
}
COMMANDS = tuple(HANDLERS)


def _flag_parser(prog: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog=prog, add_help=False)
    ap.add_argument("names", nargs="*")
    ap.add_argument("--field", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--print-panels", action="store_true")
    ap.add_argument("--dot", default=None)
    return ap


def _load_file(path: str, field_override: int | None):
    pf = parse_path(path)
    if field_override is not None and field_override != pf.p:
        pf.p = field_override
        pf.algebra()  # re-check primality
    atlas = pf.atlas()
    if not atlas.members:
        raise ProblemFileError("no module declared: the atlas is empty")
    atlas.validate()  # indecomposable, pairwise non-isomorphic members
    fx = fixtures.Fixture(atlas.members[0].algebra, atlas, dict(pf.subcats))
    return fx, pf.tasks


def _run(argv: list[str]) -> tuple[int, list[str]]:
    if not argv or argv[0] in ("-h", "--help"):
        return (0 if argv else 2), _usage_lines()
    if argv[0] == "demo":
        if len(argv) < 3 or argv[1] not in ("ex61", "ex62") or argv[2] not in HANDLERS:
            raise UsageError("expected: demo ex61|ex62 <command> [args]")
        which, command, rest = argv[1], argv[2], argv[3:]
        ns = _flag_parser(f"quiverhearts demo {which} {command}").parse_args(rest)
        p = ns.field if ns.field is not None else fixtures.DEFAULT_P
        fx = fixtures.ex61(p) if which == "ex61" else fixtures.ex62(p)
        ctx = Context(fx, ns)
        self_validate(ctx)
        code = HANDLERS[command](ctx)
        return code, ctx.out
    command = argv[0]
    if command not in HANDLERS:
        raise UsageError(f"unknown command `{command}`")
    if len(argv) < 2:
        raise UsageError(f"expected: {command} <problem-file> [args]")
    ns = _flag_parser(f"quiverhearts {command}").parse_args(argv[2:])
    fx, tasks = _load_file(argv[1], ns.field)
    task = next(
        (tasks[n] for n in sorted(tasks) if tasks[n].command == command), None
    )
    ctx = Context(fx, ns, task=task)
    code = HANDLERS[command](ctx)
    return code, ctx.out


def _usage_lines() -> list[str]:
    return [
        "usage: quiverhearts <command> <problem-file> [names...] [flags]",
        "       quiverhearts demo ex61|ex62 <command> [names...] [flags]",
        "commands: " + " ".join(COMMANDS),
        "flags: --field <p> --seed <n> --print-panels --dot <path>",
    ]


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        code, out = _run(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Inconclusive as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return 3
    except (ProblemFileError, AlgebraError, OSError, UnicodeDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except SystemExit:
        return 2
    if out:
        print("\n".join(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
