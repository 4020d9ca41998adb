"""Command line front end.

Subcommands:
  gen            build a family polytope and write its JSON
  describe       f-vector, dimension, simple/simplicial flags, Euler check
  verify-bounds  exact ratio-bound report plus the minimum-count,
                 few-vertex and unimodality checks
  angles         angle sums, then the curvature checks, the angle-sum floors
                 and the projection angle bound, each at 4 standard errors
  project        shadow, facet partition, diagram vertices, interior-vertex
                 and gap checks for seeded directions
  corpus         batch bound verification over families x dimensions (CSV)

The i-th direction of a run has the seed path (--seed, "dir", i) and is
in general position by construction.  `angles --directions N` uses the N
directions that `project` uses at the same --seed, and shares them across
every k.  All angle sums share one stream with the seed path (--seed,
"sum").  The curvature checks of a polytope of dimension 3 or 4 are
closed forms and draw nothing; from dimension 5 they draw one stream per
facet, and facet j's has the seed path (--seed, "curv") and then
("facet", j).  --samples sets the size of every stream, and is checked
even when nothing is drawn.

Exit code 0 means every hard check passed (WARN verdicts do not fail a
run).  Failures (a malformed or unknown option or a missing subcommand,
no polytope named, malformed input, an input coordinate string (counting
its exponent) or integer of more than 1,000 digits, `project` below
dimension 2, an --out path or stdout that cannot be written, --directions
or --samples below 1, --samples above 10^9, a sample or a facet's
closed-form angles that break Gram's relation) print a JSON error line
to stderr and exit 1.  Output is byte-identical for a given seed.

Every JSON report (every subcommand but corpus) is exactly the bytes of
json.dump(obj, fh, indent=2, sort_keys=True), ASCII-escaped, plus a
newline.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from typing import Sequence

from ._rng import derive_seed
from .angles import (
    DEFAULT_SAMPLES,
    angle_sum_lower_check,
    angle_sums,
    curvature_checks,
    projection_angle_check,
)
from .bounds import (
    few_vertex_check,
    min_face_check,
    unimodality_check,
    verify_main_bounds,
)
from .errors import (BadOutputError, BadSpecError, DimensionTooLowError,
                     OutOfRangeError, PolyfaceError)
from .generators import FamilySpec, generate
from .polytope import Polytope, load_polytope, polytope_to_json
from .projection import build_shadow_diagram, sample_direction

DEFAULT_DIRECTIONS = 20

CSV_COLUMNS = ["family", "dim", "n", "k", "f_k", "ratio_vertices",
               "rho_vertices", "ratio_facets", "rho_facets",
               "equality_flags", "verdicts"]


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="simplex|cube|cross|cyclic|pyramid|prism|random-sphere")
    p.add_argument("--dim", type=int)
    p.add_argument("--n", type=int, help="vertex count (cyclic, random-sphere)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="input", help="polytope JSON file")


def _load(args) -> Polytope:
    if args.input:
        return load_polytope(args.input)
    if not args.family or args.dim is None:
        raise BadSpecError("need either --in FILE or --family and --dim")
    return generate(FamilySpec(args.family, args.dim, args.n, args.seed))


def _require_positive(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise OutOfRangeError(f"--{name} must be at least 1, got {value}")


@contextmanager
def _long_int_text():
    """Lift the interpreter's limit on int-to-str conversion (4,300 digits
    by default, on interpreters that have one) for the block, and restore
    it after.  Exact diagram points can carry integers far longer than
    their input's: 300-digit coordinates give points of more than 4,300
    digits.  Input is parsed before the block, under the limit and the
    1,000-digit coordinate guard."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:  # no limit to lift
        yield
        return
    old = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@contextmanager
def _writing(path: str | None, newline: str | None = None):
    """A text sink: stdout when path is None, else the file at path.  An
    OSError from opening, writing or closing the file (a missing
    directory, a directory, no access, a full disk), or from writing or
    flushing stdout, is BadOutputError."""
    if not path:
        try:
            yield sys.stdout
            # Flush here: a short output would otherwise first fail at
            # interpreter shutdown, past the error handling.
            sys.stdout.flush()
        except OSError as exc:
            # Send what stdout still buffers to the null device, or the flush
            # at interpreter shutdown fails on it again and exits with 120.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise BadOutputError(f"cannot write to stdout: {exc}") from exc
        return
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise BadOutputError(f"cannot write {path}: {exc}") from exc


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")
# Pieces held before they are joined and written: diagram output runs to
# megabytes, and is never held whole.
_FLUSH_PIECES = 4096


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


# The JSON text of a scalar of exactly this type.
_SCALARS = {str: _encode_str, int: int.__repr__, float: _float_text,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda o: "null"}


def _subclass_scalar(o) -> str:
    """The JSON text of a str, int or float subclass, the way json writes
    it."""
    if isinstance(o, str):
        return _encode_str(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON "
                    f"serializable")


def _write_json(obj, write) -> None:
    """Write exactly the bytes of json.dump(obj, fh, indent=2,
    sort_keys=True) through write(text), a few thousand pieces at a time.
    Dict keys must be str; any other key, and any value json would not
    write, raises TypeError."""
    pieces: list[str] = []
    newlines = ["\n"]  # "\n" plus two spaces per level, for each depth

    def value(o, depth: int) -> None:
        text = _SCALARS.get(type(o))
        if text is not None:
            pieces.append(text(o))
            return
        if not isinstance(o, (dict, list, tuple)):
            pieces.append(_subclass_scalar(o))
            return
        if not o:
            pieces.append("{}" if isinstance(o, dict) else "[]")
            return
        if len(newlines) <= depth + 1:
            newlines.append(newlines[-1] + "  ")
        inner, outer = newlines[depth + 1], newlines[depth]
        if isinstance(o, dict):
            lead = "{" + inner
            for key, item in sorted(o.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not "
                                    f"{type(key).__name__}")
                pieces.append(lead + _encode_str(key) + ": ")
                lead = "," + inner
                value(item, depth + 1)
            pieces.append(outer + "}")
        else:
            kinds = set(map(type, o))
            text = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
            if text is not None:
                pieces.append("[" + inner + ("," + inner).join(map(text, o))
                              + outer + "]")
                return
            lead = "[" + inner
            for item in o:
                pieces.append(lead)
                value(item, depth + 1)
                lead = "," + inner
            pieces.append(outer + "]")
        if len(pieces) >= _FLUSH_PIECES:
            write("".join(pieces))
            pieces.clear()

    value(obj, 0)
    write("".join(pieces))


def _emit(payload: dict, out: str | None) -> None:
    with _writing(out) as fh:
        _write_json(payload, fh.write)
        fh.write("\n")


def _directions(p: Polytope, seed: int, count: int) -> list:
    """The run's directions: the i-th has the seed path (seed, "dir", i)."""
    return [sample_direction(p, derive_seed(seed, "dir", i))
            for i in range(count)]


def cmd_gen(args) -> int:
    _emit(polytope_to_json(_load(args)), args.out)
    return 0


def cmd_describe(args) -> int:
    p = _load(args)
    fv = p.f_vector()  # raises on an Euler violation
    _emit({
        "dim": p.dim,
        "ambient_dim": p.ambient_dim,
        "n_vertices": p.n_vertices,
        "n_facets": p.n_facets,
        "f_vector": list(fv.counts),
        "simple": p.is_simple(),
        "simplicial": p.is_simplicial(),
        "euler_ok": True,
        "face_total": len(p.face_lattice()),
    }, args.out)
    return 0


def _hard_checks(p: Polytope) -> tuple[dict, list[str]]:
    """The reports of the checks past the main bounds, keyed min_face,
    few_vertex and unimodality, and the names of the violated ones (with
    hyphens); a check that does not apply holds."""
    checks = {"min_face": min_face_check(p).to_json(),
              "few_vertex": few_vertex_check(p),
              "unimodality": unimodality_check(p)}
    return checks, [name.replace("_", "-") for name, check in checks.items()
                    if not check.get("ok", True)]


def cmd_verify_bounds(args) -> int:
    p = _load(args)
    report = verify_main_bounds(p)  # raises BoundViolationError on failure
    checks, violated = _hard_checks(p)
    _emit({"bounds": report.to_json(), **checks}, args.out)
    return 1 if violated else 0


def cmd_angles(args) -> int:
    _require_positive(samples=args.samples, directions=args.directions)
    p = _load(args)
    samples = args.samples
    seed = args.seed
    sums = angle_sums(p, samples, derive_seed(seed, "sum"))
    floors = [angle_sum_lower_check(p, s).to_json() for s in sums]
    curvature = [rep.to_json() for rep in
                 curvature_checks(p, samples, derive_seed(seed, "curv"))]
    # A point has no angle sums to check and no directions to sample.
    directions = _directions(p, seed, args.directions) if sums else []
    projection = [projection_angle_check(p, s, directions).to_json()
                  for s in sums]
    payload = {"angle_sums": [s.to_json() for s in sums], "floors": floors,
               "curvature": curvature, "projection_bound": projection}
    _emit(payload, args.out)
    ok = (all(f["passed"] for f in floors)
          and all(c["ok"] for c in curvature))
    return 0 if ok else 1


def cmd_project(args) -> int:
    _require_positive(directions=args.directions)
    p = _load(args)
    if p.dim < 2:
        raise DimensionTooLowError("projection reports need dim >= 2")
    diagrams = []
    ok = True
    with _long_int_text():
        for d in _directions(p, args.seed, args.directions):
            diagram = build_shadow_diagram(p, d)
            ok = ok and diagram.boundary_ok
            ok = ok and all(g.ok for g in diagram.gap_reports)
            ok = ok and len(diagram.interior_vertices) >= 1
            diagrams.append(diagram.to_json())
        _emit({"directions": args.directions, "diagrams": diagrams},
              args.out)
    return 0 if ok else 1


def _corpus_grid(families: list[str], dims: Sequence[int], seed: int):
    specs = []
    for fam in families:
        for d in dims:
            if fam == "cyclic":
                specs.append(FamilySpec(fam, d, n=d + 2, seed=seed))
            elif fam == "random-sphere":
                n = 2 if d == 1 else min(12, 2 * d + 4)  # 0-sphere: 2 points
                specs.append(FamilySpec(fam, d, n=n, seed=seed))
            else:
                if fam in ("pyramid", "prism") and d < 2:
                    continue
                specs.append(FamilySpec(fam, d))
    return specs


def _corpus_entry_rows(spec: FamilySpec) -> list[dict]:
    p = generate(spec)
    report = verify_main_bounds(p)
    extra = [f"{name}:VIOLATED" for name in _hard_checks(p)[1]]
    rows = []
    for r in report.csv_rows():
        row = {"family": spec.family, "dim": spec.dim,
               "n": p.n_vertices, **r}
        if extra:
            row["verdicts"] = row["verdicts"] + ";" + ";".join(extra)
        rows.append(row)
    return rows


def cmd_corpus(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    dims = _parse_dims(args.dims)
    specs = _corpus_grid(families, dims, args.seed)
    if not specs:
        raise BadSpecError(f"empty corpus grid: families {args.families!r}, "
                           f"dims {args.dims!r}")
    # Serial on purpose: this work holds the interpreter lock, and a thread
    # pool measured slower than one thread.
    rows = [row for spec in specs for row in _corpus_entry_rows(spec)]
    rows.sort(key=lambda r: (r["family"], r["dim"], r["n"], r["k"]))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    with _writing(args.out, newline="") as fh:
        fh.write(text)
    violated = [r for r in rows if "VIOLATED" in r["verdicts"]]
    return 1 if violated else 0


def _parse_dims(text: str) -> Sequence[int]:
    # A lazy range: the dimension guard in FamilySpec stops a huge range
    # before its first out-of-range member is built.
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return range(int(lo), int(hi) + 1)
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise BadSpecError(f"--dims must be LO..HI or a comma list of "
                           f"integers, got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """A usage error is BadSpecError, so it ends in a JSON error line like
    every other failure; subparsers inherit the class.  -h still exits 0."""

    def error(self, message: str):
        raise BadSpecError(f"{self.prog}: {message}")


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing reads it and
    never changes it, so each call starts from the same defaults."""
    ap = _Parser(
        prog="polyface",
        description="Exact polytope analysis: f-vectors, face-count bounds, "
                    "solid angles, projections.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family polytope as JSON")
    _add_family_flags(p)
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("describe", help="f-vector and basic flags")
    _add_family_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("verify-bounds", help="exact face-count bound checks")
    _add_family_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("angles", help="solid-angle checks (Monte Carlo)")
    _add_family_flags(p)
    p.add_argument("--out")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--directions", type=int, default=DEFAULT_DIRECTIONS)
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("project", help="shadows and diagram checks")
    _add_family_flags(p)
    p.add_argument("--out")
    p.add_argument("--directions", type=int, default=DEFAULT_DIRECTIONS)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("corpus", help="batch bound verification (CSV)")
    p.add_argument("--families", default="simplex,cube,cross,cyclic")
    p.add_argument("--dims", default="2..5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_corpus)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except PolyfaceError as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
