"""Outside-in span recorder for the traced benchmark run.

The recorder wraps polyface functions from outside: for each target it
replaces the function at *every* polyface module that binds it (so both
``polytope.rank`` and ``lattice.rank`` are timed), records one span per
call, and puts the originals back on ``uninstall``.  Spans are kept in
memory as (name, start, end, parent, op) and written as JSON lines on
request.  Counters are taken at the same call boundaries from arguments
and results, never from the program's private state.

A span's self time is its duration minus the time its child spans cover.
The recorder keeps one span stack, so it assumes the program runs on one
thread (POLYFACE_THREADS at its default of 1).
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from math import comb

OP_SPAN = "cli.main"

CHECK_FUNCS = ("upper_lower", "gap_check", "shadow_boundary_check")
# A span's layer is the first dotted part of its name ("hull" is _hull,
# "rng" is _rng: metric names may not start with an underscore).
LAYERS = ("exact", "hull", "lattice", "polytope", "generators", "bounds",
          "projection", "angles", "rng", "cli")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._gp_seen: set[int] = set()
        self._gp_keep: list = []

    # -- spans ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so that each call records a span named ``name``
        and then feeds (recorder, args, result) to ``after``."""
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._gp_seen.clear()
        self._gp_keep.clear()

    # -- installing ------------------------------------------------------
    def install(self, package: str = "polyface") -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        owners = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module_name, attr, span_name, after in TARGETS:
            original = getattr(owners.get(module_name), attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.span(span_name, original, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._installed.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._installed):
            setattr(m, key, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (nid, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[nid],
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def totals(self, factors: list[float] | None = None
               ) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name; the
        seconds of op ``i`` are multiplied by ``factors[i]`` if given."""
        dur = [(end - start) * (factors[op] if factors else 1.0)
               for _, start, end, _, op in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (nid, _, _, _, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
        return calls, total, own


# -- counters taken at call boundaries ----------------------------------------

def _count_hull(rec, args, result):
    rec.counters["hull.incremental_facets.points_in"] += len(args[0])
    rec.counters["hull.incremental_facets.facets_out"] += len(result)


def _count_build(rec, args, result):
    rec.counters["polytope.build.points_in"] += len(set(args[0]))
    rec.counters["polytope.build.vertices_out"] += result.n_vertices


def _count_lattice(rec, args, result):
    rec.counters["lattice.build_face_lattice.faces_out"] += len(result)


def _count_gp(rec, args, result):
    q = args[0]
    if id(q) in rec._gp_seen:
        rec.counters["projection.spanned_hyperplane_normals.hits"] += 1
        return
    rec._gp_seen.add(id(q))
    rec._gp_keep.append(q)  # keeps id(q) unique for the rest of the op
    rec.counters["projection.spanned_hyperplane_normals.subsets"] += comb(
        q.n_vertices, q.dim)
    rec.counters["projection.spanned_hyperplane_normals.normals_out"] += len(result)


def _count_diagram(rec, args, result):
    rec.counters["projection.diagram_vertices.vertices_out"] += len(result)


def _count_solid_angle(rec, args, result):
    if result.samples == 0:
        rec.counters["angles.solid_angle.exact"] += 1
    rec.counters["angles.solid_angle.samples"] += result.samples


# (module, function, span name, counter hook).  Every module that binds the
# same function object gets the same wrapper.
TARGETS = [
    ("exact", "rank", "exact.rank", None),
    ("exact", "affine_dim", "exact.affine_dim", None),
    ("exact", "null_space", "exact.null_space", None),
    ("exact", "span_basis", "exact.span_basis", None),
    ("_hull", "det_int", "hull.det_int", None),
    ("_hull", "cross_normal", "hull.cross_normal", None),
    ("_hull", "incremental_facets", "hull.incremental_facets", _count_hull),
    ("polytope", "_build", "polytope.build", _count_build),
    ("lattice", "build_face_lattice", "lattice.build_face_lattice", _count_lattice),
    ("bounds", "verify_main_bounds", "bounds.verify_main_bounds", None),
    ("bounds", "min_face_check", "bounds.min_face_check", None),
    ("bounds", "few_vertex_check", "bounds.few_vertex_check", None),
    ("bounds", "unimodality_check", "bounds.unimodality_check", None),
    ("bounds", "ratio_bound", "bounds.ratio_bound", None),
    ("generators", "generate", "generators.generate", None),
    ("projection", "spanned_hyperplane_normals",
     "projection.spanned_hyperplane_normals", _count_gp),
    ("projection", "diagram_vertices", "projection.diagram_vertices", _count_diagram),
    ("projection", "shadow", "projection.shadow", None),
    ("projection", "sample_direction", "projection.sample_direction", None),
    ("projection", "build_shadow_diagram", "projection.build_shadow_diagram", None),
] + [
    ("projection", f, f"projection.checks.{f}", None) for f in CHECK_FUNCS
] + [
    ("angles", "solid_angle", "angles.solid_angle", _count_solid_angle),
    ("angles", "facet_angle", "angles.facet_angle", None),
    ("angles", "angle_sum", "angles.angle_sum", None),
    ("angles", "curvature_check", "angles.curvature_check", None),
    ("angles", "angle_sum_lower_check", "angles.angle_sum_lower_check", None),
    ("angles", "projection_angle_check", "angles.projection_angle_check", None),
    ("_rng", "chunk_generator", "rng.chunk_generator", None),
    ("_rng", "derive_seed", "rng.derive_seed", None),
    ("cli", "_emit", "cli._emit", None),
]


# -- per-layer metrics ----------------------------------------------------------
# (name, unit, better).  Counts and times are per pass of the op mix, so
# they do not depend on how many passes a run fits in.
_SPAN_METRICS = [
    ("exact.rank", True), ("exact.affine_dim", True),
    ("exact.null_space", True), ("exact.span_basis", True),
    ("hull.det_int", True), ("hull.cross_normal", True),
    ("hull.incremental_facets", True), ("polytope.build", True),
    ("lattice.build_face_lattice", True),
    ("projection.spanned_hyperplane_normals", True),
    ("projection.diagram_vertices", True), ("projection.shadow", True),
    ("projection.sample_direction", True), ("angles.solid_angle", True),
    ("angles.facet_angle", False), ("rng.chunk_generator", True),
    ("rng.derive_seed", False), ("cli._emit", True),
]
PER_LAYER: list[tuple[str, str, str]] = []
for _name, _timed in _SPAN_METRICS:
    PER_LAYER.append((f"{_name}.calls", "count/pass", "lower"))
    if _timed:
        PER_LAYER.append((f"{_name}.self_s", "s/pass", "lower"))
PER_LAYER += [
    ("hull.incremental_facets.points_in", "count/pass", "lower"),
    ("hull.incremental_facets.facets_out", "count/pass", "lower"),
    ("polytope.build.vertex_ratio", "ratio", "higher"),
    ("lattice.build_face_lattice.faces_out", "count/pass", "lower"),
    ("bounds.self_s", "s/pass", "lower"),
    ("generators.generate.self_s", "s/pass", "lower"),
    ("projection.spanned_hyperplane_normals.subsets", "count/pass", "lower"),
    ("projection.spanned_hyperplane_normals.normals_out", "count/pass", "lower"),
    ("projection.spanned_hyperplane_normals.cache_hit_ratio", "ratio", "higher"),
    ("projection.diagram_vertices.vertices_out", "count/pass", "lower"),
    ("projection.checks.self_s", "s/pass", "lower"),
    ("angles.solid_angle.samples", "count/pass", "lower"),
    ("angles.solid_angle.samples_per_s", "1/s", "higher"),
    ("angles.solid_angle.exact_ratio", "ratio", "higher"),
    ("angles.stderr_rms", "ratio", "lower"),
    ("cli._emit.bytes_out", "bytes/pass", "lower"),
    ("cli.self_s", "s/pass", "lower"),
    ("cli.cpu_per_wall", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
] + [(f"share.{layer}", "ratio", "lower") for layer in LAYERS]

# Which end-to-end metric a change to each layer should move, on which
# workload (written down before any layer is optimised).
MOVES = {
    "exact.rank, exact.affine_dim":
        "lattice grading and vertex tests: ops_per_s and op_tail_s on bounds",
    "exact.null_space, exact.span_basis": "ops_per_s on shadows",
    "hull.det_int, hull.cross_normal":
        "ops_per_s on bounds and shadows; no change on angles",
    "hull.incremental_facets": "ops_per_s on bounds",
    "polytope.build": "vertex_ratio separates shadows (interior points) from bounds",
    "lattice.build_face_lattice":
        "op_tail_s and ops_per_s on bounds; about 0 on shadows and angles",
    "bounds.self_s, generators.generate.self_s": "no target; expected flat",
    "projection.spanned_hyperplane_normals": "op_tail_s and ops_per_s on shadows",
    "projection.diagram_vertices": "op_p50_s and ops_per_s on shadows",
    "projection.shadow, projection.sample_direction, projection.checks":
        "ops_per_s on shadows",
    "angles.solid_angle, angles.facet_angle":
        "ops_per_s and angles.stderr_rms on angles",
    "rng.chunk_generator, rng.derive_seed":
        "op_p50_s on angles, through the per-call seeding cost",
    "cli._emit": "ops_per_s on shadows (MB-sized JSON output)",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, passes: int, factors: list[float],
                  runner: dict[str, float]) -> dict:
    """Every PER_LAYER metric from the recorded spans and counters, with
    each op's seconds rescaled by its calibration factor.

    ``runner`` supplies what only the runner measures: ``cli.cpu_per_wall``,
    ``cli._emit.bytes_out`` (per pass), ``angles.stderr_rms`` and
    ``trace.overhead_ratio``.
    """
    calls, total, own = rec.totals(factors)
    c = rec.counters
    values: dict[str, float] = dict(runner)
    for name, timed in _SPAN_METRICS:
        values[f"{name}.calls"] = calls[name] / passes
        if timed:
            values[f"{name}.self_s"] = own[name] / passes
    for key in ("hull.incremental_facets.points_in",
                "hull.incremental_facets.facets_out",
                "lattice.build_face_lattice.faces_out",
                "projection.spanned_hyperplane_normals.subsets",
                "projection.spanned_hyperplane_normals.normals_out",
                "projection.diagram_vertices.vertices_out",
                "angles.solid_angle.samples"):
        values[key] = c[key] / passes
    values["polytope.build.vertex_ratio"] = _ratio(
        c["polytope.build.vertices_out"], c["polytope.build.points_in"])
    values["bounds.self_s"] = sum(
        t for n, t in own.items() if _layer(n) == "bounds") / passes
    values["generators.generate.self_s"] = own["generators.generate"] / passes
    gp = "projection.spanned_hyperplane_normals"
    values[f"{gp}.cache_hit_ratio"] = _ratio(c[f"{gp}.hits"], calls[gp])
    values["projection.checks.self_s"] = sum(
        t for n, t in own.items() if n.startswith("projection.checks.")) / passes
    values["angles.solid_angle.samples_per_s"] = _ratio(
        c["angles.solid_angle.samples"], total["angles.solid_angle"])
    values["angles.solid_angle.exact_ratio"] = _ratio(
        c["angles.solid_angle.exact"], calls["angles.solid_angle"])
    values["cli.self_s"] = own[OP_SPAN] / passes
    op_time = total[OP_SPAN]
    for layer in LAYERS:
        values[f"share.{layer}"] = _ratio(
            sum(t for n, t in own.items() if _layer(n) == layer), op_time)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]
