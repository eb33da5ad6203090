"""Lock time versus injection strength: big early gains, then saturation.

Sweeps kappa_s on a frustrated instance where binarization is genuinely
injection-limited.  Lock times fall quickly at first and then barely
improve, mirroring the diminishing returns of pumping more injection power.
"""
import numpy as np

import oimsim as oim
from oimsim.cli import data_path

graph = oim.parse_graph(data_path("frustrated10.graph").read_text())
spec = oim.SweepSpec(
    parameter="kappa_s",
    values=(0.5, 1.0, 2.0, 4.0, 6.0, 8.0),
    seeds=tuple(range(8)),
    base_dynamics=oim.DynamicsConfig(sigma=1.0),
    base_integrator=oim.IntegratorConfig(dt=0.01, t_end=30.0, record_every=10),
    graph=graph,
)
rows = [r for r in oim.run_sweep(spec) if r.mode == "distributed"]

print(f"{'kappa_s':>8} {'median lock time':>17}")
medians = []
for v in spec.values:
    locked = [r.lock_time for r in rows if r.parameter_value == v and r.lock_time is not None]
    med = float(np.median(locked))
    medians.append(med)
    print(f"{v:>8g} {med:>17.2f}  " + "#" * int(round(4 * med)))

early = medians[0] - medians[1]
late = medians[-2] - medians[-1]
print()
print(f"improvement from the first grid step: {early:.2f}")
print(f"improvement from the last grid step : {late:.2f} "
      f"({late / early:.0%} of the early gain)")
