"""Face-count lower bounds and their equality cases, verified exactly.

The central quantity is ``ratio_bound(d, k)``: half the sum of two
binomial coefficients at split dimensions,

    ratio_bound(d, k) = (C(ceil(d/2), k) + C(floor(d/2), k)) / 2.

For every d-polytope and every 0 <= k <= d-1,

    f_k / f_0     >= ratio_bound(d, k),
    f_k / f_{d-1} >= ratio_bound(d, d-k-1),

with equality in the first family precisely when k = 0, or k = 1 on a
simple polytope; and in the second precisely when k = d-1, or k = d-2 on
a simplicial polytope.  A direct consequence is the minimum rule
f_k >= min(f_0, f_{d-1}).  All comparisons in this module are exact
rational arithmetic; there is no tolerance anywhere.

Violations raise BoundViolationError carrying a JSON dump: these theorems
are proved, so a violation always means a toolkit bug upstream.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb, floor

from .errors import BoundViolationError, OutOfRangeError
from .polytope import Polytope, polytope_to_json


def ratio_bound(d: int, k: int) -> Fraction:
    """Exact value of the ratio lower bound; requires 0 <= k < d."""
    if not 0 <= k < d:
        raise OutOfRangeError(f"ratio_bound needs 0 <= k < d, got d={d} k={k}")
    return Fraction(comb(ceil(d / 2), k) + comb(floor(d / 2), k), 2)


@dataclass(frozen=True)
class BoundRow:
    """One k-slice of the main bound report."""

    k: int
    f_k: int
    ratio_to_vertices: Fraction
    bound_vertices: Fraction
    satisfied_vertices: bool
    equality_vertices: bool
    predicted_equality_vertices: bool
    ratio_to_facets: Fraction
    bound_facets: Fraction
    satisfied_facets: bool
    equality_facets: bool
    predicted_equality_facets: bool

    def ok(self) -> bool:
        return (self.satisfied_vertices and self.satisfied_facets
                and self.equality_vertices == self.predicted_equality_vertices
                and self.equality_facets == self.predicted_equality_facets)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "f_k": self.f_k,
            "ratio_to_vertices": str(self.ratio_to_vertices),
            "bound_vertices": str(self.bound_vertices),
            "satisfied_vertices": self.satisfied_vertices,
            "equality_vertices": self.equality_vertices,
            "predicted_equality_vertices": self.predicted_equality_vertices,
            "ratio_to_facets": str(self.ratio_to_facets),
            "bound_facets": str(self.bound_facets),
            "satisfied_facets": self.satisfied_facets,
            "equality_facets": self.equality_facets,
            "predicted_equality_facets": self.predicted_equality_facets,
        }


@dataclass(frozen=True)
class BoundReport:
    dim: int
    simple: bool
    simplicial: bool
    rows: tuple[BoundRow, ...]

    def all_ok(self) -> bool:
        return all(r.ok() for r in self.rows)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "simple": self.simple,
            "simplicial": self.simplicial,
            "rows": [r.to_json() for r in self.rows],
        }

    def csv_rows(self) -> list[dict]:
        out = []
        for r in self.rows:
            out.append({
                "k": r.k,
                "f_k": r.f_k,
                "ratio_vertices": str(r.ratio_to_vertices),
                "rho_vertices": str(r.bound_vertices),
                "ratio_facets": str(r.ratio_to_facets),
                "rho_facets": str(r.bound_facets),
                "equality_flags": f"v={int(r.equality_vertices)};"
                                  f"f={int(r.equality_facets)}",
                "verdicts": "ok",  # verify_main_bounds raised otherwise
            })
        return out


def verify_main_bounds(p: Polytope) -> BoundReport:
    """Check both ratio families for every k, and that equality happens on
    exactly the predicted set.  Raises BoundViolationError otherwise."""
    d = p.dim
    if d < 1:
        raise OutOfRangeError("bound verification needs dim >= 1")
    fv = p.f_vector()
    simple = p.is_simple()
    simplicial = p.is_simplicial()
    f0 = fv.count(0)
    fd1 = fv.count(d - 1)
    rows = []
    for k in range(d):
        fk = fv.count(k)
        rv = Fraction(fk, f0)
        bv = ratio_bound(d, k)
        rf = Fraction(fk, fd1)
        bf = ratio_bound(d, d - k - 1)
        rows.append(BoundRow(
            k=k, f_k=fk,
            ratio_to_vertices=rv, bound_vertices=bv,
            satisfied_vertices=rv >= bv, equality_vertices=rv == bv,
            predicted_equality_vertices=(k == 0) or (k == 1 and simple),
            ratio_to_facets=rf, bound_facets=bf,
            satisfied_facets=rf >= bf, equality_facets=rf == bf,
            predicted_equality_facets=(k == d - 1) or
                                      (k == d - 2 and simplicial),
        ))
    report = BoundReport(d, simple, simplicial, tuple(rows))
    if not report.all_ok():
        dump = {"polytope": polytope_to_json(p), "report": report.to_json()}
        raise BoundViolationError(
            "ratio bound check failed (toolkit bug, not a counterexample): "
            + json.dumps(dump)
        )
    return report


@dataclass(frozen=True)
class MinFaceReport:
    """The minimum rule f_k >= min(f_0, f_{d-1}) plus the refined ranges
    f_k >= f_0 for k <= floor(d/2) and f_k >= f_{d-1} for k >= ceil(d/2)-1."""

    ok: bool
    rows: tuple[dict, ...] = field(repr=False)

    def to_json(self) -> dict:
        return {"ok": self.ok, "rows": list(self.rows)}


def min_face_check(p: Polytope) -> MinFaceReport:
    d = p.dim
    fv = p.f_vector()
    f0 = fv.count(0)
    fd1 = fv.count(d - 1)
    floor_val = min(f0, fd1)
    rows = []
    ok = True
    for k in range(d):
        fk = fv.count(k)
        above_min = fk >= floor_val
        above_f0 = fk >= f0 if k <= d // 2 else None
        above_fd1 = fk >= fd1 if k >= (d + 1) // 2 - 1 else None
        row_ok = above_min and above_f0 is not False and above_fd1 is not False
        ok = ok and row_ok
        rows.append({
            "k": k, "f_k": fk, "min": floor_val,
            "above_min": above_min,
            "above_vertices": above_f0,
            "above_facets": above_fd1,
        })
    return MinFaceReport(ok, tuple(rows))


def few_vertex_bound(d: int, s: int, k: int) -> int:
    """Lower bound for f_k of a d-polytope with exactly d+s vertices,
    valid when 1 <= s <= d (that is, f_0 <= 2d):

        C(d+1, k+1) + C(d, k+1) - C(d+1-s, k+1).
    """
    if not 1 <= s <= d:
        raise OutOfRangeError(f"few_vertex_bound needs 1 <= s <= d, got s={s}")
    if not 0 <= k <= d - 1:
        raise OutOfRangeError(f"few_vertex_bound needs 0 <= k < d, got k={k}")
    return comb(d + 1, k + 1) + comb(d, k + 1) - comb(d + 1 - s, k + 1)


def few_vertex_check(p: Polytope) -> dict:
    """Apply the few-vertex bound when f_0 <= 2d; otherwise not applicable."""
    d = p.dim
    fv = p.f_vector()
    s = fv.count(0) - d
    if not 1 <= s <= d:
        return {"applicable": False, "reason": f"f_0 = {fv.count(0)} > 2d"}
    rows = []
    ok = True
    for k in range(d):
        bound = few_vertex_bound(d, s, k)
        good = fv.count(k) >= bound
        ok = ok and good
        rows.append({"k": k, "f_k": fv.count(k), "bound": bound, "ok": good})
    return {"applicable": True, "s": s, "ok": ok, "rows": rows}


def unimodality_check(p: Polytope) -> dict:
    """Partial unimodality chains of the f-vector.

    For simplicial polytopes: f_0 < ... < f_{floor(d/2)-1} <= f_{floor(d/2)}
    and f_{floor(3(d-1)/4)} > ... > f_{d-1}.  For simple polytopes the
    reversed (dual) chains.  Not applicable below dimension 3 (the
    decreasing chain is empty-to-false for polygons) or when the polytope
    is neither simple nor simplicial.
    """
    d = p.dim
    if d < 3:
        return {"applicable": False, "reason": "dim < 3"}
    simplicial = p.is_simplicial()
    simple = p.is_simple()
    if not (simplicial or simple):
        return {"applicable": False, "reason": "neither simple nor simplicial"}
    f = [p.f_vector().count(k) for k in range(d)]

    def chains(counts: list[int]) -> tuple[bool, list[str]]:
        notes = []
        ok = True
        mid = d // 2
        for i in range(mid - 1):
            good = counts[i] < counts[i + 1]
            ok = ok and good
            notes.append(f"f_{i} < f_{i + 1}: {good}")
        if mid >= 1:
            good = counts[mid - 1] <= counts[mid]
            ok = ok and good
            notes.append(f"f_{mid - 1} <= f_{mid}: {good}")
        start = (3 * (d - 1)) // 4
        for i in range(start, d - 1):
            good = counts[i] > counts[i + 1]
            ok = ok and good
            notes.append(f"f_{i} > f_{i + 1}: {good}")
        return ok, notes

    result: dict = {"applicable": True, "simple": simple,
                    "simplicial": simplicial}
    ok = True
    if simplicial:
        good, notes = chains(f)
        ok = ok and good
        result["simplicial_chains"] = {"ok": good, "notes": notes}
    if simple:
        good, notes = chains(f[::-1])
        ok = ok and good
        result["simple_chains"] = {"ok": good, "notes": notes}
    result["ok"] = ok
    return result
