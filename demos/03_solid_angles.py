"""Solid angles: how much of the space around a face belongs to the
polytope.

The angle at a face is estimated by seeded Monte Carlo over the tangent
cone (deterministic and bit-reproducible for a given seed) and, in
dimension <= 3, compared against closed forms.  Two classical facts are
then observable numerically: the facet angles around a face never sum to
more than 1, with equality exactly in codimension 2; and the k-th angle
sum of an m-polytope is at least ratio_bound(m+1, m-k).
"""
from polyface import (
    angle_sum_lower_check,
    angle_sums,
    cube,
    curvature_checks,
    hull_from_points,
    simplex,
    solid_angle,
    solid_angle_exact,
)

SAMPLES = 200_000

print("== sampled angles against closed forms ==")
cases = [
    ("square at a corner", cube(2), frozenset([0]), 0.25),
    ("cube at a corner", cube(3), frozenset([0]), 0.125),
    ("cube at a facet", cube(3), cube(3).facets[0].vertex_set, 0.5),
]
for name, p, face, expect in cases:
    est = solid_angle(p, face, SAMPLES, seed=1)
    print(f"  {name:20s} estimate {est.mean:.4f} +- {est.stderr:.4f}"
          f"  (expected {expect})")

tetra = hull_from_points([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
corner = solid_angle(tetra, frozenset([0]), SAMPLES, seed=1)
oracle = solid_angle_exact(tetra, frozenset([0]))
print(f"  regular tetrahedron corner: estimate {corner.mean:.4f},"
      f" closed form {oracle:.4f}")

print()
print("== angle sums, all from one stream, Gram's relation on every sample ==")
for rep in angle_sums(cube(3), SAMPLES, seed=2):
    print(f"  3-cube angle sum at dim {rep.k}: {rep.total} +- {rep.stderr}"
          f" (the same count on every sample)")
for rep in angle_sums(simplex(3), SAMPLES, seed=2):
    print(f"  tetrahedron angle sum at dim {rep.k}: {rep.total:.4f}"
          f" +- {rep.stderr:.4f}")

print()
print("== facet angles around a face sum to at most 1 ==")
reports = curvature_checks(cube(3), SAMPLES, seed=3)
rep = next(r for r in reports if r.face_dim == 1)
print(f"  cube at an edge (codim 2): sum = {rep.total} exactly")
rep = next(r for r in reports if r.face == (0,))
print(f"  cube at a corner: sum = {rep.total:.4f} +- {rep.stderr:.4f}"
      f" < 1 strictly (expected 0.75)")

print()
print("== angle-sum floors ==")
seg = hull_from_points([(0,), (1,)])
rep = angle_sum_lower_check(seg, angle_sums(seg)[0])
print(f"  segment, k=0: {rep.total} >= {rep.bound} (exact equality)")
tri = simplex(2)
rep = angle_sum_lower_check(tri, angle_sums(tri, SAMPLES, seed=4)[0])
print(f"  triangle, k=0: {rep.total:.4f} >= {rep.bound} "
      f"(equality within noise: {rep.equality})")
c3 = cube(3)
rep = angle_sum_lower_check(c3, angle_sums(c3, SAMPLES, seed=4)[1])
print(f"  3-cube, k=1: {rep.total:.4f} >= {rep.bound}")
