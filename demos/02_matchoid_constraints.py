"""
Matroids, p-matchoids, and the exchange rule
============================================

A p-matchoid is a list of matroids on subsets of the ground set, each
element appearing in at most p of them. Bipartite matching is the
classic example: one capacity-1 matroid per vertex, every edge in
exactly two of them (p = 2).
"""

import matchstream as ms

# Edges 0..3 between left vertices {u0,u1} and right vertices {v0,v1}:
#   0=(u0,v0)  1=(u0,v1)  2=(u1,v0)  3=(u1,v1)
matroids = [
    ms.UniformMatroid({0, 1}, 1),   # at most one edge at u0
    ms.UniformMatroid({2, 3}, 1),   # at most one edge at u1
    ms.UniformMatroid({0, 2}, 1),   # at most one edge at v0
    ms.UniformMatroid({1, 3}, 1),   # at most one edge at v1
]
matching = ms.PMatchoid(range(4), matroids)  # p = 2, read off the matroids

print("is {0,3} a matching?", matching.feasible({0, 3}))
print("is {0,1} a matching?", matching.feasible({0, 1}))
print("rank (max matching size):", matching.rank_k)

# The exchange rule: for an arrival x, each violated matroid nominates
# its cheapest resident (by cached incremental value) to make room. A
# solution state serves one constraint and answers under it.
state = ms.SolutionState(matching, {0: 2.0})
print("to insert edge 1, evict:", ms.exchange_set(1, state))

# Other matroid kinds: forests of a graph and matchable vertex sets.
triangle = ms.GraphicMatroid({0, 1, 2}, {0: (0, 1), 1: (1, 2), 2: (2, 0)})
print("two triangle edges independent?", triangle.independent({0, 1}))
print("all three (a cycle)?           ", triangle.independent({0, 1, 2}))

jobs = ms.TransversalMatroid({0, 1, 2}, {0: {0}, 1: {0, 1}, 2: {1}})
print("can {0,1} be matched to machines?", jobs.independent({0, 1}))
print("can {0,1,2}?                     ", jobs.independent({0, 1, 2}))
