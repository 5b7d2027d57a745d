"""
Multi-pass convergence with online certificates
===============================================

Chaining passes with shrinking step sizes drives the solution toward the
offline local-search quality. After every pass the driver certifies a
factor gamma such that  f(OPT) <= gamma * f(S_i),  using only measured
progress; no knowledge of the optimum is needed. On small instances we
can compare the certificate against the true optimum.
"""

import matchstream as ms

inst = ms.generate_instance("bipartite-matching", seed=3, left=4, right=4,
                            edges=10)
mp = inst.build_matchoid()
opt = ms.brute_force_opt(inst.build_oracle(), inst.build_matchoid())
print(f"p = {mp.p} matchoid, rank {mp.rank_k}, true optimum {opt.opt_value}")

schedule = ms.Schedule.for_matchoid(mp)
run = ms.multipass_run(inst.build_oracle(), mp, ms.stream_order(inst.n),
                       schedule, passes=10)

print()
print("pass  beta    f(S_i)  certified  closed-form  true ratio")
for res, cert, (_, closed) in zip(run.pass_results, run.certificates,
                                  schedule.steps()):
    ratio = opt.opt_value / res.f_final
    print(f"{cert.pass_index:4d}  {cert.beta:5.3f}  {res.f_final:6.1f}"
          f"  {cert.gamma_certified:9.4f}  {closed:11.4f}  {ratio:10.4f}")

print()
print("the certificate always covers the true ratio, and it never claims")
print("less than the schedule's closed form guarantees")

# With a target factor, the driver can stop as soon as a pass certifies it.
early = ms.multipass_run(inst.build_oracle(), inst.build_matchoid(),
                         ms.stream_order(inst.n), schedule, passes=40,
                         target_gamma=mp.p + 1.5)
print(f"target gamma {mp.p + 1.5}: stopped after {early.passes_run} passes "
      f"with certificate {early.certificates[-1].gamma_certified:.4f}")
