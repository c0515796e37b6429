"""The virtual-queue bookkeeping identities, checked live.

Three facts about the per-edge counters drive the stability analysis, and
all three are integer-exact, so they can be asserted on every slot of a
run rather than argued about:

 1. the Lindley state equals the running-supremum (Skorokhod) expression
    recomputed from the raw arrival/service history,
 2. the companion recursion (arrivals counted after the service clamp)
    stays within [q, q + A_max] of the Lindley state,
 3. any window's arrivals-minus-allocated-service never exceeds the
    running peak queue.

Diagnostics mode re-evaluates all three per slot from independent
arithmetic; this script shows the counts, then unrolls a tiny example.
"""
import numpy as np

from umwsim import SimulationConfig, run
from umwsim.engine import MetricsOptions
from umwsim.traffic import ArrivalProcess
from umwsim.virtual_net import VirtualQueues, reflected_walk

for name, load in (("line3", 0.8), ("twinpath_unicast", 0.7), ("grid3x3_broadcast", 0.36)):
    cfg = SimulationConfig(
        topology=name, horizon=10_000, seed=7,
        arrival=ArrivalProcess("binomial", trials=4), load_factor=load,
        metrics=MetricsOptions(diagnostics=True),
    )
    rep = run(cfg)
    print(f"{name:>20}: 10^4 slots, violations = {rep.violations}")

# Hand-scale example: one edge, arrivals then a service drought.
print("\nslot-by-slot on one edge (A = arrivals, S = allocated service):")
A = np.array([[2], [0], [3], [0], [0], [1]], dtype=np.int64)
S = np.array([[1], [1], [1], [1], [1], [1]], dtype=np.int64)
profile = reflected_walk(A - S, 0)  # row t is the queue after slot t
vq = VirtualQueues(1)
for t in range(len(A)):
    # The slot's deposit puts A[t] arrivals on the route (edge 0), and the
    # served list names edge 0 once per unit of service.
    vq.lindley_update([((0,), int(A[t, 0]))], [0] * int(S[t, 0]))
    recomputed = profile[t, 0]
    print(f"  t={t}: A={A[t,0]} S={S[t,0]}  lindley q={vq.q[0]}  "
          f"windowed-sup form={recomputed}")

print("whole trajectory from history:", profile[:, 0].tolist())
