"""Shadows and overlay diagrams.

Projecting a polytope along a general-position direction drops the
dimension by one.  The facets split into an upper and a lower half, each
projecting bijectively onto the shadow; overlaying the two projected
subdivisions creates crossing vertices, at least one of which always lies
strictly inside the shadow.  Counting what the projection destroys gives
an exact gap: f_k minus the shadow's k-faces is at least twice the ratio
bound.
"""
from polyface import (
    build_shadow_diagram,
    cube,
    cyclic,
    gap_check,
    sample_direction,
    shadow,
    upper_lower,
)

p = cube(3)
direction = sample_direction(p, seed=1)
print(f"== projecting the 3-cube along {[str(c) for c in direction.v]} ==")
sh = shadow(p, direction)
print(f"  shadow f-vector: {tuple(sh.poly.f_vector().counts)} (a hexagon)")
parts = upper_lower(p, direction)
print(f"  facet split: {len(parts.upper)} upper, {len(parts.lower)} lower;"
      f" {len(parts.boundary_faces)} faces on the shadow boundary")

diagram = build_shadow_diagram(p, direction)
print(f"  boundary maps bijectively onto the shadow's boundary:"
      f" {diagram.boundary_ok}")
print(f"  diagram vertices: {len(diagram.vertices)},"
      f" interior: {len(diagram.interior_vertices)}")
for dv in diagram.interior_vertices:
    print(f"    interior crossing of a dim-{dv.l_plus} upper face with a"
          f" dim-{dv.l_minus} lower face")

print()
print("== the exact projection gap ==")
for k in range(p.dim):
    g = gap_check(p, direction, k)
    print(f"  k={k}: f_k={g.f_k}, proper k-faces of the shadow:"
          f" {g.shadow_f_k}; gap {g.gap} >= {g.bound}: {g.ok}")

print()
print("== the interior crossing exists for every direction ==")
hexa = cyclic(6, 2)
for seed in range(5):
    d = sample_direction(hexa, seed=seed)
    diagram = build_shadow_diagram(hexa, d)
    print(f"  hexagon, seed {seed}: {len(diagram.interior_vertices)}"
          f" interior crossings (gap at k=0:"
          f" {diagram.gap_reports[0].gap} >= {diagram.gap_reports[0].bound})")
