"""External tracer for weilbc: spans around public functions, counters on hot primitives.

The tracer patches the library from outside, at every binding site: a
function imported by name into another module (``from .grouplib import
mat_mul``) is replaced there too, and so are the check functions held in
``checks.CHECK_FUNCS``.  Coarse calls get spans (name, start, end, parent);
hot primitives get counters only, because a span per field multiplication
would cost more than the multiplication.

Self time of a span is its duration minus the time covered by its child
spans, so the self times of all spans add up to the traced wall time.  Time
in an uninstrumented helper lands in the self time of the nearest enclosing
span: ``Tower.mul`` inside ``lang_solve`` counts as ``normmap``, the
induced-character loops of ``checks`` count as ``checks``.

Spans are kept in memory (up to ``MAX_SPANS``; aggregates stay exact beyond
that) and written to JSON by ``write_json``.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

MAX_SPANS = 250_000

MODULES = ("fieldtower", "modp", "cyclotomic", "grouplib", "schrodinger",
           "normmap", "characters", "checks", "cli")
CHECKS = ("star", "homomorphism", "sl2-torus", "gyoja-bijection")

# (name, unit, better, which end-to-end metric it should move, on which workload)
LAYER_METRICS = (
    ("fieldtower.mul.calls", "count", "lower", "verify_s on star-sl2 (tuple path), torus-sl2 and classes-q7 (table path)"),
    ("fieldtower.add.calls", "count", "lower", "verify_s on star-sl2, torus-sl2 and classes-q7"),
    ("fieldtower.frobenius.calls", "count", "lower", "verify_s on star-sl2, torus-sl2 and classes-q7"),
    ("fieldtower.mul.tuple_share", "ratio", "lower", "verify_s on star-sl2: share of mul calls on towers above TABLE_CAP"),
    ("fieldtower.build_tower.calls", "count", "lower", "setup_s everywhere; verify_s on star-sl2"),
    ("fieldtower.build_tower.new", "count", "lower", "setup_s everywhere; verify_s on star-sl2 (Lang towers built on demand)"),
    ("fieldtower.build_tower.s", "s", "lower", "setup_s everywhere; verify_s on star-sl2"),
    ("fieldtower.self_s", "s", "lower", "verify_s on star-sl2"),
    ("modp.kernel_basis.calls", "count", "lower", "verify_s on star-sl2"),
    ("modp.kernel_basis.s", "s", "lower", "verify_s on star-sl2"),
    ("modp.solve.calls", "count", "lower", "verify_s on star-sl2"),
    ("modp.solve.s", "s", "lower", "verify_s on star-sl2"),
    ("modp.self_s", "s", "lower", "verify_s on star-sl2"),
    ("cyclotomic.mul.calls", "count", "lower", "verify_s on torus-sl2"),
    ("cyclotomic.add.calls", "count", "lower", "verify_s on torus-sl2"),
    ("cyclotomic.gauss_sum.s", "s", "lower", "verify_s on torus-sl2"),
    ("cyclotomic.self_s", "s", "lower", "verify_s on torus-sl2"),
    ("grouplib.mat_mul.calls", "count", "lower", "verify_s on torus-sl2 and classes-q7"),
    ("grouplib.sph_mul.calls", "count", "lower", "verify_s on torus-sl2 and classes-q7"),
    ("grouplib.elements.s", "s", "lower", "verify_s and peak_rss_mb on classes-q7"),
    ("grouplib.conjugacy_classes.s", "s", "lower", "verify_s and peak_rss_mb on classes-q7"),
    ("grouplib.twisted_classes.s", "s", "lower", "verify_s and peak_rss_mb on classes-q7"),
    ("grouplib.classes.elements", "count", "lower", "verify_s and peak_rss_mb on classes-q7"),
    ("grouplib.self_s", "s", "lower", "verify_s on classes-q7 and torus-sl2"),
    ("schrodinger.build_rho.calls", "count", "lower", "verify_s on weil-sp4; flat on star-sl2"),
    ("schrodinger.build_rho.distinct", "count", "lower", "verify_s on weil-sp4; calls / distinct is the reuse ratio"),
    ("schrodinger.build_rho.self_s", "s", "lower", "verify_s on weil-sp4; flat on star-sl2"),
    ("schrodinger.matmul.calls", "count", "lower", "verify_s on weil-sp4; flat on star-sl2"),
    ("schrodinger.matmul.s", "s", "lower", "verify_s on weil-sp4; flat on star-sl2"),
    ("schrodinger.matmul.dim_max", "count", "lower", "verify_s on weil-sp4"),
    ("schrodinger.matmul.madds_computed", "count", "lower", "verify_s on weil-sp4; computed from array shapes, not measured"),
    ("schrodinger.matmul.bytes_computed", "bytes", "lower", "verify_s on weil-sp4; computed from array shapes, not measured"),
    ("schrodinger.op_weyl.calls", "count", "lower", "verify_s on weil-sp4; flat on star-sl2"),
    ("schrodinger.op_weyl.s", "s", "lower", "verify_s on weil-sp4; flat on star-sl2"),
    ("schrodinger.siegel_factor.calls", "count", "lower", "verify_s on weil-sp4; flat on star-sl2"),
    ("schrodinger.siegel_factor.s", "s", "lower", "verify_s on weil-sp4; flat on star-sl2"),
    ("schrodinger.extended_trace.calls", "count", "lower", "verify_s on torus-sl2 (monomial path) and weil-sp4 (dense path)"),
    ("schrodinger.extended_trace.self_s", "s", "lower", "verify_s on torus-sl2 and weil-sp4"),
    ("schrodinger.self_s", "s", "lower", "verify_s on weil-sp4 and torus-sl2"),
    ("normmap.gyoja_norm.calls", "count", "lower", "verify_s on star-sl2"),
    ("normmap.lang_solve.calls", "count", "lower", "verify_s on star-sl2"),
    ("normmap.lang_solve.self_s", "s", "lower", "verify_s on star-sl2"),
    ("normmap.norm_reuse", "ratio", "higher", "verify_s on star-sl2: 1 - lang_solve calls / gyoja_norm calls with i != 0"),
    ("normmap.lang_solve.ambient_max", "count", "lower", "verify_s on star-sl2: largest LangWitness.ambient_degree"),
    ("normmap.self_s", "s", "lower", "verify_s on star-sl2"),
    ("characters.s", "s", "lower", "verify_s on torus-sl2"),
    ("characters.self_s", "s", "lower", "verify_s on torus-sl2"),
    ("checks.star.s", "s", "lower", "verify_s on star-sl2 and weil-sp4"),
    ("checks.homomorphism.s", "s", "lower", "verify_s on weil-sp4"),
    ("checks.sl2-torus.s", "s", "lower", "verify_s on torus-sl2"),
    ("checks.gyoja-bijection.s", "s", "lower", "verify_s on classes-q7"),
    ("checks.self_s", "s", "lower", "verify_s on torus-sl2: check time outside every library span"),
    ("checks.cases", "count", "higher", "none: the number of cases the checks produced"),
    ("cli.report_s", "s", "lower", "verify_s on every workload"),
    ("cli.self_s", "s", "lower", "verify_s on every workload"),
    ("trace.verify_s", "s", "lower", "none: traced wall time, the base of the self-time shares"),
    ("trace.self_share", "ratio", "higher", "none: sum of self times / traced verify_s, near 1 when spans cover the run"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced verify_s / untraced verify_s"),
)


class Tracer:
    """Spans and counters for one process; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_total = 0
        self._stack: list[list] = []  # [span id or -1, start, child time]
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.outer_s: list[float] = []  # inclusive time of spans with no same-name ancestor
        self._depth: list[int] = []
        self.module_outer_s = dict.fromkeys(MODULES, 0.0)
        self._module_depth = dict.fromkeys(MODULES, 0)
        self.counts = dict.fromkeys((
            "fieldtower.build_tower.new", "grouplib.classes.elements",
            "schrodinger.matmul.madds_computed", "schrodinger.matmul.bytes_computed",
            "normmap.gyoja_norm.twisted_calls",
        ), 0)
        # hot-primitive counters: one-element lists, the cheapest counter a wrapper can bump
        self.cells = {key: [0] for key in (
            "fieldtower.mul.calls", "fieldtower.mul.tuple", "fieldtower.add.calls",
            "fieldtower.frobenius.calls", "cyclotomic.mul.calls", "cyclotomic.add.calls",
            "grouplib.mat_mul.calls", "grouplib.sph_mul.calls",
        )}
        self.maxima = {"schrodinger.matmul.dim_max": 0, "normmap.lang_solve.ambient_max": 0}
        self._rho_seen: set = set()
        self._keep: dict = {}  # objects whose id() keys a set above; kept alive so ids stay unique
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.outer_s.append(0.0)
            self._depth.append(0)
        return nid

    def _enter(self, nid: int, module: str) -> None:
        stack = self._stack
        self._depth[nid] += 1
        self._module_depth[module] += 1
        sid = -1
        if self.spans_total < MAX_SPANS:
            sid = self.spans_total
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
        self.spans_total += 1
        frame = [sid, 0.0, 0.0]
        stack.append(frame)
        frame[1] = t = perf_counter()
        if sid >= 0:
            self.span_start.append(t)

    def _leave(self, nid: int, module: str) -> None:
        t = perf_counter()
        sid, start, child = self._stack.pop()
        dur = t - start
        if sid >= 0:
            self.span_end[sid] = t
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.outer_s[nid] += dur
        self._module_depth[module] -= 1
        if self._module_depth[module] == 0:
            self.module_outer_s[module] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def span(self, fn, name: str, hook=None):
        """Wrap fn in a span; hook(args, result) runs inside it after the call."""
        nid = self._name_id(name)
        module = name.split(".", 1)[0]
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            enter(nid, module)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                leave(nid, module)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def _rebind(self, modules, old, new) -> None:
        """Replace every module-level binding of old (a function) by new."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._set(mod, attr, new)

    def install(self) -> None:
        from weilbc import (characters, checks, cyclotomic, fieldtower, grouplib, modp,
                            normmap, schrodinger)
        import weilbc

        modules = [weilbc, fieldtower, modp, cyclotomic, grouplib, schrodinger, normmap,
                   characters, checks]
        counts, maxima = self.counts, self.maxima

        def fn_span(mod, attr, name=None, hook=None):
            old = getattr(mod, attr)
            self._rebind(modules, old, self.span(old, name or f"{mod.__name__.split('.')[-1]}.{attr}", hook))

        def method_span(cls, attr, name, hook=None):
            self._set(cls, attr, self.span(cls.__dict__[attr], name, hook))

        # fieldtower
        registry = fieldtower._REGISTRY
        orig_build = fieldtower.build_tower

        def build_tower(p, base_degree, m):
            if (p, base_degree, m) not in registry:
                counts["fieldtower.build_tower.new"] += 1
            return orig_build(p, base_degree, m)

        self._rebind(modules, orig_build, self.span(build_tower, "fieldtower.build_tower"))
        fn_span(fieldtower, "enlarge_tower")
        fn_span(fieldtower, "get_embedding")
        # Counter wrappers have fixed arity: *args packing would double their cost.
        cells = self.cells
        tower = fieldtower.Tower
        orig_mul, orig_add, orig_frob = tower.mul, tower.add, tower.frobenius
        mul_n, tuple_n, add_n, frob_n = (cells[k] for k in (
            "fieldtower.mul.calls", "fieldtower.mul.tuple", "fieldtower.add.calls",
            "fieldtower.frobenius.calls"))

        def mul(self_, a, b):
            mul_n[0] += 1
            if not self_.tabulated:
                tuple_n[0] += 1
            return orig_mul(self_, a, b)

        def add(self_, a, b):
            add_n[0] += 1
            return orig_add(self_, a, b)

        def frobenius(self_, x, j=1):
            frob_n[0] += 1
            return orig_frob(self_, x, j)

        self._set(tower, "mul", mul)
        self._set(tower, "add", add)
        self._set(tower, "frobenius", frobenius)

        # modp
        for attr in ("kernel_basis", "solve", "left_inverse", "mat_pow", "poly_xgcd_inverse"):
            fn_span(modp, attr)

        # cyclotomic
        fn_span(cyclotomic, "gauss_sum")
        cyc = cyclotomic.CycNum
        orig_cadd, orig_cmul = cyc.__add__, cyc.__mul__
        cadd_n, cmul_n = cells["cyclotomic.add.calls"], cells["cyclotomic.mul.calls"]

        def cyc_add(self_, other):
            cadd_n[0] += 1
            return orig_cadd(self_, other)

        def cyc_mul(self_, other):
            cmul_n[0] += 1
            return orig_cmul(self_, other)

        self._set(cyc, "__add__", cyc_add)
        self._set(cyc, "__mul__", cyc_mul)

        # grouplib
        def partitioned(args, part):
            if id(part) not in self._keep:
                self._keep[id(part)] = part
                counts["grouplib.classes.elements"] += len(part.class_of)

        fn_span(grouplib, "conjugacy_classes", hook=partitioned)
        fn_span(grouplib, "twisted_classes", hook=partitioned)
        for cls in vars(grouplib).values():
            if (isinstance(cls, type) and issubclass(cls, grouplib.GroupSpec)
                    and cls is not grouplib.GroupSpec and "elements" in cls.__dict__):
                method_span(cls, "elements", "grouplib.elements")
        orig_mat_mul, orig_sph_mul = grouplib.mat_mul, grouplib.SpHGroup.mul
        mat_n, sph_n = cells["grouplib.mat_mul.calls"], cells["grouplib.sph_mul.calls"]

        def mat_mul(tower_, a, b, size):
            mat_n[0] += 1
            return orig_mat_mul(tower_, a, b, size)

        def sph_mul(self_, a, b):
            sph_n[0] += 1
            return orig_sph_mul(self_, a, b)

        self._rebind(modules, orig_mat_mul, mat_mul)
        self._set(grouplib.SpHGroup, "mul", sph_mul)

        # schrodinger
        def rho_seen(args, result):
            ctx, g = args[0], args[1]
            self._keep.setdefault(id(ctx), ctx)
            self._rho_seen.add((id(ctx), g))

        def matmul_sizes(args, result):
            a, b = args[0].arr, args[1].arr
            rows, inner, r = a.shape
            cols, s = b.shape[1], b.shape[2]
            counts["schrodinger.matmul.madds_computed"] += rows * inner * cols * r * s
            counts["schrodinger.matmul.bytes_computed"] += 8 * (a.size + b.size + result.arr.size)
            maxima["schrodinger.matmul.dim_max"] = max(maxima["schrodinger.matmul.dim_max"], rows, cols)

        ctx_cls = schrodinger.RepContext
        method_span(ctx_cls, "build_rho", "schrodinger.build_rho", rho_seen)
        method_span(ctx_cls, "op_weyl", "schrodinger.op_weyl")
        method_span(ctx_cls, "extended_trace", "schrodinger.extended_trace")
        method_span(schrodinger.WeilOperator, "__matmul__", "schrodinger.matmul", matmul_sizes)
        for attr in ("siegel_factor", "gsp_character_values", "extended_gsp_trace"):
            fn_span(schrodinger, attr)

        # normmap
        orig_norm = normmap.gyoja_norm

        def gyoja_norm(cfg, *args, **kwargs):
            if cfg.i != 0:
                counts["normmap.gyoja_norm.twisted_calls"] += 1
            return orig_norm(cfg, *args, **kwargs)

        def ambient(args, witness):
            maxima["normmap.lang_solve.ambient_max"] = max(
                maxima["normmap.lang_solve.ambient_max"], witness.ambient_degree)

        self._rebind(modules, orig_norm, self.span(gyoja_norm, "normmap.gyoja_norm"))
        fn_span(normmap, "lang_solve", hook=ambient)
        fn_span(normmap, "verify_bijection")

        # characters: every public function, once even where it has two names
        for attr, value in list(vars(characters).items()):
            if (callable(value) and not isinstance(value, type) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == characters.__name__
                    and getattr(characters, attr) is value):
                fn_span(characters, attr)

        # checks and the report serializer
        fn_span(checks, "run_check")
        for name, fn in list(checks.CHECK_FUNCS.items()):
            self._set(checks.CHECK_FUNCS, name, self.span(fn, f"checks.{name}"))
        method_span(checks.Report, "to_tsv", "cli.report")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- results -----------------------------------------------------------------

    def _get(self, table: list, name: str):
        nid = self._ids.get(name)
        return table[nid] if nid is not None else 0

    def counter_values(self) -> dict:
        return dict(self.counts, **{key: cell[0] for key, cell in self.cells.items()})

    def module_self_s(self) -> dict:
        out = dict.fromkeys(MODULES, 0.0)
        for nid, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_s[nid]
        return out

    def metrics(self, traced_s: float, untraced_s: float, cases: int) -> dict:
        """Every LAYER_METRICS value, from this tracer's spans and counters."""
        c = self.counter_values()
        calls, outer, own = self.calls, self.outer_s, self.self_s
        mods = self.module_self_s()
        twisted = c["normmap.gyoja_norm.twisted_calls"]
        lang = self._get(calls, "normmap.lang_solve")
        values = {
            "fieldtower.mul.calls": c["fieldtower.mul.calls"],
            "fieldtower.add.calls": c["fieldtower.add.calls"],
            "fieldtower.frobenius.calls": c["fieldtower.frobenius.calls"],
            "fieldtower.mul.tuple_share": c["fieldtower.mul.tuple"] / max(c["fieldtower.mul.calls"], 1),
            "fieldtower.build_tower.calls": self._get(calls, "fieldtower.build_tower"),
            "fieldtower.build_tower.new": c["fieldtower.build_tower.new"],
            "fieldtower.build_tower.s": self._get(outer, "fieldtower.build_tower"),
            "modp.kernel_basis.calls": self._get(calls, "modp.kernel_basis"),
            "modp.kernel_basis.s": self._get(outer, "modp.kernel_basis"),
            "modp.solve.calls": self._get(calls, "modp.solve"),
            "modp.solve.s": self._get(outer, "modp.solve"),
            "cyclotomic.mul.calls": c["cyclotomic.mul.calls"],
            "cyclotomic.add.calls": c["cyclotomic.add.calls"],
            "cyclotomic.gauss_sum.s": self._get(outer, "cyclotomic.gauss_sum"),
            "grouplib.mat_mul.calls": c["grouplib.mat_mul.calls"],
            "grouplib.sph_mul.calls": c["grouplib.sph_mul.calls"],
            "grouplib.elements.s": self._get(outer, "grouplib.elements"),
            "grouplib.conjugacy_classes.s": self._get(outer, "grouplib.conjugacy_classes"),
            "grouplib.twisted_classes.s": self._get(outer, "grouplib.twisted_classes"),
            "grouplib.classes.elements": c["grouplib.classes.elements"],
            "schrodinger.build_rho.calls": self._get(calls, "schrodinger.build_rho"),
            "schrodinger.build_rho.distinct": len(self._rho_seen),
            "schrodinger.build_rho.self_s": self._get(own, "schrodinger.build_rho"),
            "schrodinger.matmul.calls": self._get(calls, "schrodinger.matmul"),
            "schrodinger.matmul.s": self._get(outer, "schrodinger.matmul"),
            "schrodinger.matmul.dim_max": self.maxima["schrodinger.matmul.dim_max"],
            "schrodinger.matmul.madds_computed": c["schrodinger.matmul.madds_computed"],
            "schrodinger.matmul.bytes_computed": c["schrodinger.matmul.bytes_computed"],
            "schrodinger.op_weyl.calls": self._get(calls, "schrodinger.op_weyl"),
            "schrodinger.op_weyl.s": self._get(outer, "schrodinger.op_weyl"),
            "schrodinger.siegel_factor.calls": self._get(calls, "schrodinger.siegel_factor"),
            "schrodinger.siegel_factor.s": self._get(outer, "schrodinger.siegel_factor"),
            "schrodinger.extended_trace.calls": self._get(calls, "schrodinger.extended_trace"),
            "schrodinger.extended_trace.self_s": self._get(own, "schrodinger.extended_trace"),
            "normmap.gyoja_norm.calls": self._get(calls, "normmap.gyoja_norm"),
            "normmap.lang_solve.calls": lang,
            "normmap.lang_solve.self_s": self._get(own, "normmap.lang_solve"),
            "normmap.norm_reuse": 1 - lang / twisted if twisted else 0.0,
            "normmap.lang_solve.ambient_max": self.maxima["normmap.lang_solve.ambient_max"],
            "characters.s": self.module_outer_s["characters"],
            "checks.cases": cases,
            "cli.report_s": self._get(outer, "cli.report"),
            "trace.verify_s": traced_s,
            "trace.self_share": sum(mods.values()) / traced_s if traced_s else 0.0,
            "trace.overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
        }
        for check in CHECKS:
            values[f"checks.{check}.s"] = self._get(outer, f"checks.{check}")
        for module, seconds in mods.items():
            values[f"{module}.self_s"] = seconds
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def write_json(self, path: str, extra: dict | None = None) -> None:
        """Write the kept spans (columns) and the per-name aggregates."""
        data = {
            "names": self.names,
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
            "spans_total": self.spans_total,
            "spans_kept": len(self.span_name),
            "per_name": {
                name: {"calls": self.calls[k], "self_s": self.self_s[k], "outer_s": self.outer_s[k]}
                for k, name in enumerate(self.names)
            },
            "counters": self.counter_values(),
            "maxima": self.maxima,
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)

