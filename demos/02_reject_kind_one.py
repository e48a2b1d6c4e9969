"""Evidence that a process has no |s|-anchored dichotomy.

For processes whose nonuniformity is tied to the observation time, a
bound anchored at the start time cannot hold with any fixed constant:
the minimal feasible ln M must blow up as the observation window
widens.  This script tabulates that blow-up for two such processes and
shows the flat (non-rejecting) profile of a genuine uniform
contraction.
"""
import math

import nedlab as nl
from nedlab import ScalarCoefficientProcess

BOX = ((0.05, 4.0), (0.0, 4.0))


def show(label, process, windows):
    evidence = nl.nedi_rejection_evidence(process, windows, box=BOX, step=0.25)
    print(label)
    for window, ln_m in zip(evidence.windows, evidence.min_ln_m["zero"]):
        print("  window %-12s min ln M = %8.3f" % (window, ln_m))
    for growth in evidence.growth_factors("zero"):
        print("  growth factor between windows: %.3g (threshold e = %.3f)"
              % (growth, math.e))
    print()


show("sign-switch (alternating contraction/expansion):",
     nl.make_entry("sign-switch").process, [(0.0, 10.0), (0.0, 20.0)])

show("factorial steps (expanding blocks [2,6] and [24,120]):",
     nl.make_entry("factorial-steps").process, [(0.0, 6.0), (0.0, 120.0)])

show("uniform contraction x' = -x (control, must stay flat):",
     ScalarCoefficientProcess(lambda t: -1.0, antiderivative=lambda t: -t),
     [(-5.0, 5.0), (-10.0, 10.0)])
