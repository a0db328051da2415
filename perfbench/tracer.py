"""Outside-in tracer: wraps the package's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules,
in every `quiverhearts` module namespace that binds it (so `hom_space` is
wrapped where `homology` imported it, and `homs` where `cotorsion`,
`heart` and `mutation` did), plus a fixed list of methods and
classmethods.  Each call records a span (name, start, end, parent span,
operation id) in flat arrays; `summary()` turns the spans of the timed
operations into the per-layer metrics and `dump()` writes all spans out.  Nothing in the package is
edited, and an untraced process never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "algebra", "homology", "cotorsion", "heart", "mutation",
          "duality", "oracles", "problemfile", "cli")

# Methods wrapped on their classes, as (module, class, method).
METHODS = (
    ("algebra", "RepMap", "__init__"),
    ("homology", "Ext1", "__init__"),
    ("cotorsion", "Subcategory", "contains"),
    ("heart", "PhiModel", "phi_map"),
    ("heart", "CohomologicalH", "h_object"),
    ("heart", "HeartModel", "build"),
    ("mutation", "MutationInput", "validate"),
    ("mutation", "TwinData", "build"),
    ("mutation", "LocalizationModel", "build"),
    ("mutation", "PseudoMoritaData", "build"),
)
# Every public method of this class counts towards `heart.quotient.s`.
QUOTIENT_CLASS = ("heart", "QuotientCategory")

# Stages of `verify_main_theorem`, each starting where the first call of
# its span begins inside the certificate; the stages partition the
# certificate's own span.
STAGES = (
    ("validate", "mutation.MutationInput.validate"),
    ("right_mutation", "mutation.right_mutation"),
    ("twin", "mutation.TwinData.build"),
    ("localization_build", "mutation.LocalizationModel.build"),
    ("verify_localization", "mutation.verify_localization"),
    ("dual_localization", "mutation.dual_localization_model"),
    ("quivers_isomorphic", "heart.quivers_isomorphic"),
    ("pseudo_morita", "mutation.PseudoMoritaData.build"),
)
CERTIFICATE = "mutation.verify_main_theorem"

SELF_TIME_LAYERS = ("linalg", "algebra", "homology", "cotorsion", "heart")

# metric -> (kind, span names); kinds: calls, s (inclusive time of the
# outermost spans of the group), self_s, distinct_ratio, trivial_share.
GROUPS = {
    "linalg.rref.calls": ("calls", ["linalg.rref"]),
    "linalg.rref.trivial_share": ("trivial_share", ["linalg.rref"]),
    "linalg.solve.calls": ("calls", ["linalg.solve"]),
    "linalg.matmul.calls": ("calls", ["linalg.matmul"]),
    "linalg.nullspace.calls": ("calls", ["linalg.nullspace"]),
    "algebra.RepMap.calls": ("calls", ["algebra.RepMap.__init__"]),
    "algebra.hom_space.calls": ("calls", ["algebra.hom_space"]),
    "algebra.hom_space.distinct_ratio": ("distinct_ratio", ["algebra.hom_space"]),
    "algebra.decompose_with_maps.calls": ("calls", ["algebra.decompose_with_maps"]),
    "algebra.decompose_with_maps.s": ("s", ["algebra.decompose_with_maps"]),
    "algebra.is_isomorphic.calls": ("calls", ["algebra.is_isomorphic"]),
    "algebra.direct_sum.s": ("s", ["algebra.direct_sum"]),
    "homology.homs.calls": ("calls", ["homology.homs"]),
    "homology.syzygy.calls": ("calls", ["homology.syzygy"]),
    "homology.syzygy.distinct_ratio": ("distinct_ratio", ["homology.syzygy"]),
    "homology.ext1.calls": ("calls", ["homology.ext1_dim", "homology.Ext1.__init__"]),
    "homology.ext1.s": ("s", ["homology.ext1_dim", "homology.Ext1.__init__"]),
    "homology.approx.calls": ("calls", ["homology.minimal_left_approximation",
                                        "homology.minimal_right_approximation"]),
    "homology.approx.s": ("s", ["homology.minimal_left_approximation",
                                "homology.minimal_right_approximation"]),
    "homology.kernel.calls": ("calls", ["homology.kernel"]),
    "homology.cokernel.calls": ("calls", ["homology.cokernel"]),
    "cotorsion.membership.s": ("s", ["cotorsion.cone_membership",
                                     "cotorsion.cocone_membership"]),
    "cotorsion.bruteforce.s": ("s", ["cotorsion.cone_membership_bruteforce",
                                     "cotorsion.cocone_membership_bruteforce"]),
    "cotorsion.contains.calls": ("calls", ["cotorsion.Subcategory.contains"]),
    "cotorsion.perp.s": ("s", ["cotorsion.perp_right", "cotorsion.perp_left"]),
    "cotorsion.rcp.s": ("s", ["cotorsion.satisfies_rcp", "cotorsion.satisfies_rcp_dual"]),
    "heart.quotient.s": ("s", ["heart.QuotientCategory.*"]),
    "heart.phi_map.calls": ("calls", ["heart.PhiModel.phi_map"]),
    "heart.phi_map.s": ("s", ["heart.PhiModel.phi_map"]),
    "heart.h_object.calls": ("calls", ["heart.CohomologicalH.h_object"]),
    "heart.gabriel_quiver.s": ("s", ["heart.gabriel_quiver"]),
    "heart.quivers_isomorphic.s": ("s", ["heart.quivers_isomorphic"]),
    "mutation.right_hd_approximation.calls": ("calls", ["mutation.right_hd_approximation"]),
    "duality.context.s": ("s", ["duality.dual_context"]),
    "oracles.ext1.s": ("s", ["oracles.ext1_dim_bruteforce"]),
    "problemfile.parse.s": ("s", ["problemfile.parse", "problemfile.parse_path"]),
    "cli.self_validate.s": ("s", ["cli.self_validate"]),
}

UNITS = {"calls": "count", "s": "s", "self_s": "s", "distinct_ratio": "ratio",
         "trivial_share": "share"}


def metric_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS}
    units.update({name: UNITS[kind] for name, (kind, _) in GROUPS.items()})
    units.update({f"mutation.stage.{stage}.s": "s" for stage, _ in STAGES})
    units["trace.spans"] = "count"
    return units


def _rep_key(m) -> tuple:
    return (m.algebra, m.dims, tuple(a.tobytes() for a in m.arrow_maps.values()))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.sname = array("i")
        self.parent = array("i")
        self.opid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1  # -1 while the worker builds its inputs
        self.distinct: dict[str, set] = {"algebra.hom_space": set(), "homology.syzygy": set()}
        self.trivial_rref = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, key=None):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        sname, parent, opid, start, end = self.sname, self.parent, self.opid, self.start, self.end
        stack, clock, tracer = self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                key(args)
            i = len(start)
            sname.append(nid)
            parent.append(stack[-1])
            opid.append(tracer.op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _key(self, name: str):
        # Like the metrics, these see only calls made by the operations.
        if name == "algebra.hom_space":
            seen = self.distinct[name]

            def add_pair(args):
                if self.op >= 0:
                    seen.add((_rep_key(args[0]), _rep_key(args[1])))
            return add_pair
        if name == "homology.syzygy":
            seen = self.distinct[name]

            def add_rep(args):
                if self.op >= 0:
                    seen.add(_rep_key(args[0]))
            return add_rep
        if name == "linalg.rref":
            def count(args):
                shape = np.shape(args[0])
                if self.op >= 0 and len(shape) == 2 and shape[0] <= 1 and shape[1] <= 1:
                    self.trivial_rref += 1
            return count
        return None

    def install(self) -> None:
        """Wrap every target; raise if a target the metrics need is missing."""
        mods = {layer: importlib.import_module(f"quiverhearts.{layer}") for layer in LAYERS}
        wrapped = {}  # original function -> wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[obj] = self._wrap(name, obj, self._key(name))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "quiverhearts" or n.startswith("quiverhearts.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

        for layer, cls_name, meth in METHODS:
            self._wrap_method(getattr(mods[layer], cls_name), f"{layer}.{cls_name}.{meth}", meth)
        layer, cls_name = QUOTIENT_CLASS
        cls = getattr(mods[layer], cls_name)
        for meth, obj in list(vars(cls).items()):
            if not meth.startswith("_") and inspect.isfunction(obj):
                self._wrap_method(cls, f"{layer}.{cls_name}.*", meth)

        needed = {n for _, names in GROUPS.values() for n in names}
        needed |= {n for _, n in STAGES} | {CERTIFICATE}
        missing = sorted(needed - set(self.name_id))
        if missing:
            raise RuntimeError(f"tracer targets not found in the package: {missing}")

    def _wrap_method(self, cls, name: str, meth: str) -> None:
        raw = cls.__dict__.get(meth)
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(cls, meth, self._wrap(name, raw))
        else:
            raise RuntimeError(f"tracer target {cls.__name__}.{meth} is not a method")

    # -- results ----------------------------------------------------------

    def arrays(self):
        n = len(self.end)
        return (np.frombuffer(self.sname, dtype=np.int32, count=n),
                np.frombuffer(self.parent, dtype=np.int32, count=n),
                np.frombuffer(self.opid, dtype=np.int32, count=n),
                np.frombuffer(self.start, dtype=np.float64, count=n),
                np.frombuffer(self.end, dtype=np.float64, count=n))

    def counts(self) -> dict[str, int]:
        """Calls per wrapped name, made by the operations."""
        sname, _, opid, _, _ = self.arrays()
        per = np.bincount(sname[opid >= 0], minlength=len(self.names))
        return {name: int(per[i]) for i, name in enumerate(self.names)}

    def summary(self) -> dict[str, float]:
        """Per-layer metrics over the spans of the operations.  Set-up
        spans are left out: their time is in `setup_s`, not `wall_s`."""
        sname, parent, opid, start, end = self.arrays()
        dur = end - start
        layer_of = np.array([n.split(".", 1)[0] for n in self.names])
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        in_op = opid >= 0
        counts = np.bincount(sname[in_op], minlength=len(self.names))

        out: dict[str, float] = {}
        span_layer = layer_of[sname]
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = float(self_time[in_op & (span_layer == layer)].sum())
        for metric, (kind, group) in GROUPS.items():
            ids = [i for i, n in enumerate(self.names) if n in group]
            calls = int(counts[ids].sum())
            if kind == "calls":
                out[metric] = calls
            elif kind == "s":
                out[metric] = self._union_time(in_op & np.isin(sname, ids), start, end)
            elif kind == "distinct_ratio":
                out[metric] = len(self.distinct[group[0]]) / calls if calls else 0.0
            elif kind == "trivial_share":
                out[metric] = self.trivial_rref / calls if calls else 0.0
        out.update(self._stage_times(sname, parent, start, end, in_op))
        out["trace.spans"] = int(in_op.sum())
        return out

    @staticmethod
    def _union_time(mask, start, end) -> float:
        """Inclusive time of a group: the spans of one thread nest or are
        disjoint, and span order is start order, so a span lies inside an
        earlier one of the group exactly when it starts before the latest
        end seen so far; the outermost spans' durations then add up."""
        s, e = start[mask], end[mask]
        if not len(s):
            return 0.0
        latest = np.maximum.accumulate(e)
        outer = np.ones(len(s), dtype=bool)
        outer[1:] = s[1:] >= latest[:-1]
        return float((e[outer] - s[outer]).sum())

    def _stage_times(self, sname, parent, start, end, in_op) -> dict[str, float]:
        out = {f"mutation.stage.{stage}.s": 0.0 for stage, _ in STAGES}
        cert = self.name_id[CERTIFICATE]
        marks = {self.name_id[n]: stage for stage, n in STAGES}
        for span in np.flatnonzero(in_op & (sname == cert)):
            first: dict[str, float] = {}
            for kid in np.flatnonzero(parent == span):
                stage = marks.get(int(sname[kid]))
                if stage is not None and stage not in first:
                    first[stage] = float(start[kid])
            first["validate"] = float(start[span])
            bounds = sorted((t, s) for s, t in first.items()) + [(float(end[span]), None)]
            for (t0, stage), (t1, _) in zip(bounds, bounds[1:]):
                out[f"mutation.stage.{stage}.s"] += t1 - t0
        return out

    def dump(self, path) -> None:
        sname, parent, opid, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=sname, parent=parent,
                            op=opid, start=start, end=end)
