"""
Randomized buffered search for non-monotone objectives
======================================================

Directed-cut objectives can lose value when the solution grows, so
greedy-style immediate acceptance can lock in bad choices. The buffered
variant randomizes: threshold-passing arrivals wait in a bounded pool,
selections are drawn uniformly when the pool fills, and the leftover
pool feeds an offline solver whose best output is kept as a second
candidate answer.
"""

from random import Random

import matchstream as ms

inst = ms.generate_instance("directed-cut+matroid", seed=12, n=10, capacity=3)
oracle = inst.build_oracle()
mp = inst.build_matchoid()
opt = ms.brute_force_opt(inst.build_oracle(), inst.build_matchoid())
print(f"cut instance: n={inst.n}, rank {mp.rank_k}, optimum {opt.opt_value}")

# One buffered pass with a tiny pool, to watch the mechanics.
out = ms.randomized_pass(inst.build_oracle(), mp, ms.stream_order(inst.n),
                         None, alpha=0.5, beta=1.0, m=3, rng=Random(4))
print()
print("single pass with pool size 3:")
print("  selections:", out.accept_count,
      " pool drops:", out.buffer_drops,
      " pool peak:", out.buffer.peak)
print("  streaming solution:", sorted(out.state.members),
      "f =", out.f_final)
print("  offline over leftover pool:", sorted(out.s_prime),
      "f =", out.f_s_prime)

# The full driver guesses the optimum's scale with a one-pass singleton
# scan, runs one copy per guess, and returns the best answer found.
eps = 0.25
run = ms.multipass_randomized(inst.build_oracle(), inst.build_matchoid(),
                              ms.stream_order(inst.n), epsilon=eps, seed=0)
print()
print(f"full driver: guesses {run.grid.lambdas}, {run.d} passes "
      f"(+1 scan), pool capacity {run.m}")
print(f"  best value {run.f_solution} vs optimum {opt.opt_value}"
      f"  (feasible: {mp.feasible(run.solution)})")
print(f"  stored at peak {run.space_peak} elements, bound {run.space_bound}")

lhs = (1 - eps) * opt.opt_value
rhs = (2 + 1 + eps) * run.f_solution
print(f"  guarantee with an exact offline solver: "
      f"{lhs:.2f} <= {rhs:.2f}")
