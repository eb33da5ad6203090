"""Order parameter versus coupling strength: below a threshold, no locking.

Sweeps sigma with injection off.  Weakly coupled oscillators keep their
random initial phases within the measurement window, so the binary order
parameter stays at the random-phase floor of about 1/sqrt(N); above the
threshold the population orders completely.
"""
import numpy as np

import oimsim as oim

spec = oim.SweepSpec(
    parameter="sigma",
    values=(0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 2.0),
    seeds=tuple(range(5)),
    base_dynamics=oim.DynamicsConfig(kappa_s=0.0),
    base_integrator=oim.IntegratorConfig(dt=0.01, t_end=30.0, record_every=10),
    graph=oim.reference_graph(),
)
rows = [r for r in oim.run_sweep(spec) if r.mode == "distributed"]

print(f"random-phase baseline E[R] ~ 1/sqrt(10) = {1/np.sqrt(10):.3f}")
print(f"{'sigma':>7} {'median R':>9} {'lock fraction':>14}")
for v in spec.values:
    sel = [r for r in rows if r.parameter_value == v]
    med_r = np.median([r.final_R for r in sel])
    frac = np.mean([r.lock_time is not None for r in sel])
    bar = "#" * int(round(20 * med_r))
    print(f"{v:>7g} {med_r:>9.3f} {frac:>14.1f}  {bar}")
