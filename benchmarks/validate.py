"""Output checks that do not rely on the program's own oracles.

Each check takes an op and the exact text the CLI printed for it and
returns a list of problems; an empty list means the output is accepted.
The facts used are closed forms and classical relations, recomputed here:

* Euler's relation for every f-vector, and the closed-form f-vectors of
  simplices, cubes, cross-polytopes, prisms over a simplex, pyramids over
  a cube, and the neighbourly part of cyclic polytopes;
* the face-count ratio bounds, recomputed from binomials;
* for shadows: every direction verified, at least one interior diagram
  vertex, boundary homeomorphism, every gap consistent and above its bound,
  and an Eulerian shadow f-vector;
* for angles: Gram's relation sum_{k<d} (-1)^k sum_k + (-1)^d = 0 on every
  reported family of angle sums, within 5 sigma of the combined stderr.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb

GRAM_SIGMAS = 5.0
FLOAT_SLACK = 1e-9


def ratio_bound(d: int, k: int) -> Fraction:
    return Fraction(comb(math.ceil(d / 2), k) + comb(d // 2, k), 2)


def euler_problem(fv: list[int], dim: int) -> str | None:
    if len(fv) != dim:
        return f"f-vector {fv} has {len(fv)} entries for dimension {dim}"
    alt = sum((-1) ** k * f for k, f in enumerate(fv))
    if alt != 1 - (-1) ** dim:
        return f"f-vector {fv} breaks Euler's relation in dimension {dim}"
    return None


def closed_form(family: str, dim: int, n: int | None) -> list[int | None]:
    """Known f_k per k (None where the family fixes no value)."""
    ks = range(dim)
    if family == "simplex":
        return [comb(dim + 1, k + 1) for k in ks]
    if family == "cube":
        return [comb(dim, k) * 2 ** (dim - k) for k in ks]
    if family == "cross":
        return [2 ** (k + 1) * comb(dim, k + 1) for k in ks]
    if family == "prism":  # prism over a (dim-1)-simplex
        base = [comb(dim, k + 1) for k in range(dim - 1)] + [1]
        return [2 * base[k] + (base[k - 1] if k else 0) for k in ks]
    if family == "pyramid":  # pyramid over a (dim-1)-cube
        base = [comb(dim - 1, k) * 2 ** (dim - 1 - k) for k in range(dim - 1)] + [1]
        return [base[k] + (base[k - 1] if k else 1) for k in ks]
    if family == "cyclic":  # neighbourly: every floor(d/2)-subset is a face
        return [comb(n, k + 1) if k < dim // 2 else None for k in ks]
    return [None] * dim


def f_vector_problems(op, fv: list[int]) -> list[str]:
    problems = []
    euler = euler_problem(fv, op.dim)
    if euler:
        return [euler]
    for k, (got, want) in enumerate(zip(fv, closed_form(op.family, op.dim, op.n))):
        if want is not None and got != want:
            problems.append(f"f_{k} = {got}, closed form gives {want}")
    if op.family == "random-sphere" and not op.dim + 1 <= fv[0] <= op.n:
        problems.append(f"f_0 = {fv[0]} outside [{op.dim + 1}, {op.n}]")
    return problems


def check_bounds(op, data: dict) -> list[str]:
    rows = data["bounds"]["rows"]
    d = op.dim
    if data["bounds"]["dim"] != d or [r["k"] for r in rows] != list(range(d)):
        return [f"bound rows do not cover k = 0..{d - 1}"]
    fv = [r["f_k"] for r in rows]
    problems = f_vector_problems(op, fv)
    for k, fk in enumerate(fv):
        if Fraction(fk, fv[0]) < ratio_bound(d, k):
            problems.append(f"f_{k}/f_0 below the ratio bound")
        if Fraction(fk, fv[-1]) < ratio_bound(d, d - 1 - k):
            problems.append(f"f_{k}/f_{d - 1} below the ratio bound")
    return problems


def check_project(op, data: dict) -> list[str]:
    d = op.dim
    diagrams = data["diagrams"]
    if data["directions"] != op.directions or len(diagrams) != op.directions:
        return [f"expected {op.directions} diagrams, got {len(diagrams)}"]
    known = closed_form(op.family, d, op.n)
    problems = []
    for i, dg in enumerate(diagrams):
        where = f"direction {i}"
        if dg["direction"]["verified"] is not True:
            problems.append(f"{where}: direction not verified")
        interior = sum(1 for v in dg["diagram_vertices"] if v["interior"])
        if interior < 1 or dg["interior_count"] != interior:
            problems.append(f"{where}: {interior} interior vertices "
                            f"(reported {dg['interior_count']})")
        if dg["boundary_homeomorphic"] is not True:
            problems.append(f"{where}: shadow boundary not homeomorphic")
        sfv = dg["shadow_f_vector"]
        euler = euler_problem(sfv, d - 1)
        if euler:
            problems.append(f"{where}: shadow {euler}")
            continue
        gaps = dg["gaps"]
        if [g["k"] for g in gaps] != list(range(d)):
            problems.append(f"{where}: gaps do not cover k = 0..{d - 1}")
            continue
        for g in gaps:
            k = g["k"]
            shadow_fk = sfv[k] if k < d - 1 else 0
            if known[k] is not None and g["f_k"] != known[k]:
                problems.append(f"{where}: f_{k} = {g['f_k']}, closed form {known[k]}")
            if g["shadow_f_k"] != shadow_fk or g["gap"] != g["f_k"] - shadow_fk:
                problems.append(f"{where}: gap at k={k} inconsistent")
            if g["ok"] is not True or g["gap"] < 2 * ratio_bound(d + 1, d - k):
                problems.append(f"{where}: gap at k={k} below its bound")
    return problems


def gram_problem(label: str, sums: list[dict], dim: int) -> str | None:
    if [s["k"] for s in sums] != list(range(dim)):
        return f"{label}: angle sums do not cover k = 0..{dim - 1}"
    residual = sum((-1) ** s["k"] * s["total"] for s in sums) + (-1) ** dim
    sigma = math.sqrt(sum(s["stderr"] ** 2 for s in sums))
    if not abs(residual) <= GRAM_SIGMAS * sigma + FLOAT_SLACK:
        return (f"{label}: Gram residual {residual:.3g} exceeds "
                f"{GRAM_SIGMAS:g} sigma ({sigma:.3g})")
    return None


def check_angles(op, data: dict) -> list[str]:
    d = op.dim
    problems = []
    families = [("angle_sums", data["angle_sums"]), ("floors", data["floors"])]
    if isinstance(data["projection_bound"], list):
        families.append(("projection_bound", data["projection_bound"]))
    for label, sums in families:
        gram = gram_problem(label, sums, d)
        if gram:
            problems.append(gram)
    known = closed_form(op.family, d, op.n)
    for s in data["angle_sums"]:
        faces = s["faces"]
        k = s["k"]
        if known[k] is not None and len(faces) != known[k]:
            problems.append(f"{len(faces)} angles at {k}-faces, closed form {known[k]}")
        if any(not 0.0 <= f["mean"] <= 1.0 for f in faces):
            problems.append(f"an angle at a {k}-face lies outside [0, 1]")
        if abs(sum(f["mean"] for f in faces) - s["total"]) > FLOAT_SLACK * len(faces):
            problems.append(f"angle sum at k={k} differs from its faces")
    if not all(c["ok"] for c in data["curvature"]):
        problems.append("a curvature check failed")
    if not all(f["passed"] for f in data["floors"]):
        problems.append("an angle-sum floor failed")
    return problems


CHECKS = {"verify-bounds": check_bounds, "project": check_project,
          "angles": check_angles}


def check_output(op, text: str) -> list[str]:
    """Problems with the CLI output ``text`` of ``op``; [] if accepted."""
    try:
        data = json.loads(text)
        return CHECKS[op.command](op, data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def angle_stderrs(text: str) -> list[float]:
    """Every reported per-face stderr and curvature stderr of an angles op
    (exact values report stderr 0 and count as such)."""
    data = json.loads(text)
    errs = [f["stderr"] for s in data["angle_sums"] for f in s["faces"]]
    errs += [c["stderr"] for c in data["curvature"]]
    return errs
