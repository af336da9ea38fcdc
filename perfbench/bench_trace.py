"""Outside-in tracing of modmax for the traced benchmark run.

modmax has no stats channel of its own, so the traced run wraps the
public functions of each module from here.  A span records a name, its
start and end on ``time.perf_counter``, the index of the span that was open
when it started, and a few attributes.  Spans stay in memory and are
written out once the run ends; :meth:`Tracer.metrics` folds them into the
per-layer metrics.

Wiring rules the install step follows:

- a function imported by name into other modules (``quotient``,
  ``lattice_of``, ``all_chief_factors``, ...) is rebound in every
  ``modmax.*`` module (and the ``modmax`` package) that holds it, and
  :func:`install` fails if a function it wraps has no binding at all;
- ``modmax.classify`` as a package attribute is the ``classify`` function,
  so modules are reached through ``importlib.import_module``;
- checks run through ``verify._NMAX_RUNNERS`` and ``verify._SINGLE_RUNNERS``,
  whose entries are wrapped in place;
- ``enumerate_lattice`` builds ``SubgroupLattice`` through its module
  global, which is replaced by a timing subclass so that building the
  tables (inclusion, covers, join/meet, normality, depth sets) is a child
  span of enumeration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

from bench_inputs import LATTICE_GROUPS

MODULES = ("groups", "lattice", "classify", "verify", "catalog", "cli")

PREDICATES = ("modular", "quasinormal", "s_quasinormal", "subnormal")

# the 18 standard-suite groups and 17 check ids, fixed by the report schema
SUITE_GROUPS = ("1", "C2", "C4", "C6", "C12", "V4", "E9", "S3", "D8", "Q8",
                "C3:C4", "A4", "S4", "SL23", "hol_C7", "hol_C13", "A4xC2",
                "pq2_2_3")
CHECK_IDS = ("ThmA", "Thm2.12", "ThmB", "Thm3.4", "Prop2.9", "Prop2.11",
             "Prop3.2", "Lem2.1", "Lem2.2", "Lem2.3", "Lem2.10", "Cor4.1",
             "Cor4.2", "Cor4.3", "Cor4.4", "SharpnessA", "SharpnessB")

CONSTRUCT_SPANS = ("groups.Group", "groups.load_group", "groups.group_from_json",
                   "groups.group_from_cayley_table", "groups.group_from_permutations")
ENTRY_SPANS = ("groups.load_group", "groups.group_from_json", "catalog.construct")


def metric_name(name: str) -> str:
    """Group names carry ':' and '^', which metric names do not allow."""
    return name.replace(":", "-").replace("^", "-")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    out = [("lattice.enumerate_s", "s"), ("lattice.tables_s", "s"),
           ("lattice.builds", "count"), ("lattice.subgroups", "count"),
           ("lattice.builds_derived", "count"), ("lattice.build_derived_s", "s"),
           ("lattice.build_share", "ratio"), ("lattice.largest_build_s", "s")]
    for p in PREDICATES:
        out += [(f"lattice.{p}_s", "s"), (f"lattice.{p}_calls", "count")]
    out.append(("lattice.predicate_repeat_ratio", "ratio"))
    out += [(f"lattice.group_s.{metric_name(g)}", "s") for g in LATTICE_GROUPS]
    out += [("groups.quotient_s", "s"), ("groups.quotient_calls", "count"),
            ("groups.subgroup_as_group_s", "s"),
            ("groups.subgroup_as_group_calls", "count"),
            ("groups.construct_s", "s"), ("groups.validate_s", "s"),
            ("groups.reject_s", "s"), ("groups.rejects", "count"),
            ("catalog.construct_s", "s"),
            ("classify.chief_factors_s", "s"), ("classify.chief_factors_calls", "count"),
            ("classify.residual_s", "s"), ("classify.residual_calls", "count"),
            ("classify.series_s", "s")]
    out += [(f"verify.check_s.{metric_name(c)}", "s") for c in CHECK_IDS]
    out += [(f"verify.group_s.{metric_name(g)}", "s") for g in SUITE_GROUPS]
    out += [("verify.critical_path_share", "ratio"), ("verify.warm_rerun_s", "s"),
            ("verify.reports", "count"), ("verify.vacuous", "count"),
            ("verify.nonvacuous_holds", "count"),
            ("cli.self_s", "s"), ("cli.stdout_bytes", "bytes"),
            ("trace.spans", "count"), ("trace.untraced_wall_s", "s"),
            ("trace.traced_wall_s", "s"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        # quotient/subgroup groups and asked-about lattices by id; holding
        # them keeps an id from being reused by a later object
        self._derived: dict[int, object] = {}
        self._lattices: dict[int, object] = {}
        self._asks: set = set()
        self.repeat_asks = 0

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    attrs(args) if attrs else None]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = dict(span[4] or {}, error=type(exc).__name__)
                raise
            finally:
                stack.pop()
                span[2] = clock()
        return traced

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself."""
        stack = self._stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, attrs]
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            stack.pop()
            span[2] = time.perf_counter()

    def _mark_derived(self, fn):
        derived = self._derived

        @functools.wraps(fn)
        def marking(*args, **kwargs):
            result = fn(*args, **kwargs)
            derived[id(result[0])] = result[0]
            return result
        return marking

    def _predicate_attrs(self, pred: str):
        asks, lattices = self._asks, self._lattices

        def attrs(args):
            lat, h = args[0], args[1]
            key = (pred, id(lat), lat.index(h))
            if key in asks:
                self.repeat_asks += 1
            else:
                asks.add(key)
                lattices[id(lat)] = lat
            return None
        return attrs

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Fold the spans into per-layer metrics.

        Times of ``*.check_s``, ``enumerate_s``, ``construct_s`` and
        ``cli.self_s`` are self times: the span's duration minus its child
        spans.  Other times are inclusive durations of the outermost span of
        that name, so recursion is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def outermost(i, names):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return False
                p = spans[p][3]
            return True

        m: dict[str, float] = defaultdict(float)
        built = 0.0
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            layer, _, op = name.partition(".")
            if name == "lattice.enumerate":
                m["lattice.enumerate_s"] += own
                m["lattice.builds"] += 1
                built += dur
                m["lattice.largest_build_s"] = max(m["lattice.largest_build_s"], dur)
                if attrs["derived"]:
                    m["lattice.builds_derived"] += 1
                    m["lattice.build_derived_s"] += dur
            elif name == "lattice.tables":
                m["lattice.tables_s"] += dur
                m["lattice.subgroups"] += attrs["subgroups"]
            elif layer == "lattice" and op in PREDICATES:
                m[f"lattice.{op}_s"] += dur
                m[f"lattice.{op}_calls"] += 1
            elif name == "bench.group":
                m[f"lattice.group_s.{metric_name(attrs['group'])}"] += dur
            elif name == "verify.check":
                m[f"verify.check_s.{metric_name(attrs['check'])}"] += own
            elif name == "verify.group":
                m[f"verify.group_s.{metric_name(attrs['group'])}"] += dur
            elif name == "cli.main":
                m["cli.self_s"] += own
            elif name == "groups.validate":
                m["groups.validate_s"] += dur
            if name in CONSTRUCT_SPANS:
                m["groups.construct_s"] += own
            if (name in ENTRY_SPANS and attrs and "error" in attrs
                    and outermost(i, ENTRY_SPANS)):
                m["groups.rejects"] += 1
                m["groups.reject_s"] += dur
            if name in ("groups.quotient", "groups.subgroup_as_group",
                        "classify.chief_factors", "classify.residual",
                        "classify.series", "catalog.construct") \
                    and outermost(i, (name,)):
                m[f"{name}_s"] += dur
                m[f"{name}_calls"] += 1
        asks = sum(m[f"lattice.{p}_calls"] for p in PREDICATES)
        m["lattice.predicate_repeat_ratio"] = self.repeat_asks / asks if asks else 0.0
        m["lattice.build_share"] = built / wall_s if wall_s else 0.0
        groups = [v for k, v in m.items() if k.startswith("verify.group_s.")]
        m["verify.critical_path_share"] = max(groups) / sum(groups) if groups else 0.0
        m["trace.spans"] = len(spans)
        return m

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")


def _rebind(modules: dict, original, wrapper) -> int:
    """Replace every module-level binding of ``original``; return how many."""
    count = 0
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    """Wrap modmax's public functions in every module that binds them."""
    mods = {m: importlib.import_module(f"modmax.{m}") for m in MODULES}
    everywhere = dict(mods, package=importlib.import_module("modmax"))
    groups, lattice, classify, verify = (mods[m] for m in
                                         ("groups", "lattice", "classify", "verify"))

    def patch(module, attr: str, span: str, attrs=None, inner=None):
        original = getattr(module, attr)
        fn = inner(original) if inner else original
        if _rebind(everywhere, original, tracer.wrap(span, fn, attrs)) == 0:
            raise RuntimeError(f"no binding of {module.__name__}.{attr}")

    patch(groups, "quotient", "groups.quotient", inner=tracer._mark_derived)
    patch(groups, "subgroup_as_group", "groups.subgroup_as_group",
          inner=tracer._mark_derived)
    for attr in ("load_group", "group_from_json", "group_from_cayley_table",
                 "group_from_permutations"):
        patch(groups, attr, f"groups.{attr}")
    patch(mods["catalog"], "construct", "catalog.construct")
    Group = groups.Group
    Group.__init__ = tracer.wrap("groups.Group", Group.__init__)
    Group.validate = tracer.wrap("groups.validate", Group.validate)

    patch(lattice, "lattice_of", "lattice.lattice_of")
    derived = tracer._derived
    patch(lattice, "enumerate_lattice", "lattice.enumerate",
          attrs=lambda args: {"derived": id(args[0]) in derived})
    base = lattice.SubgroupLattice

    class TimedSubgroupLattice(base):
        def __init__(self, group, masks, joins):
            with tracer.span("lattice.tables", subgroups=len(masks)):
                base.__init__(self, group, masks, joins)

    lattice.SubgroupLattice = TimedSubgroupLattice
    for pred in PREDICATES:
        method = getattr(base, f"is_{pred}")
        setattr(base, f"is_{pred}", tracer.wrap(
            f"lattice.{pred}", method, tracer._predicate_attrs(pred)))

    for attr, span in (("all_chief_factors", "classify.chief_factors"),
                       ("residual", "classify.residual"),
                       ("is_soluble", "classify.series"),
                       ("is_nilpotent", "classify.series")):
        patch(classify, attr, span)

    patch(verify, "reports_for_group", "verify.group",
          attrs=lambda args: {"group": args[0]})
    for table in (verify._NMAX_RUNNERS, verify._SINGLE_RUNNERS):
        for check, runner in table.items():
            table[check] = tracer.wrap("verify.check", runner,
                                       lambda args, c=check: {"check": c})
    mods["cli"].main = tracer.wrap("cli.main", mods["cli"].main)
