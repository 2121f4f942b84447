"""MAESTRO automatic dynamic concurrency throttling (paper Section IV).

Two cooperating pieces:

* :class:`~repro.throttle.policy.ThrottlePolicy` — the two-metric,
  three-band decision rule: socket power and memory concurrency are each
  classified High / Medium / Low against the paper's thresholds (75 W /
  50 W per socket; 75% / 25% of the socket's maximum outstanding memory
  references).  Both High engages throttling; both Low disengages it;
  the Medium band is a hysteresis dead-band "to avoid hysteresis effects
  that occur when observed values hover near the threshold";
* :class:`~repro.throttle.controller.ThrottleController` — the user-level
  daemon inside the runtime that wakes every 0.1 s, reads the RCR
  blackboard, applies the policy, and flips the scheduler's
  shepherd-local limits.

The workers actuate a throttle themselves, duty-cycling each spinning
core to 1/32 through its clock-modulation MSR.  The chip-wide DVFS
comparator the Section IV claim is tested against lives in
:mod:`repro.throttle.dutycycle`.
"""

from repro.throttle.clamp import PowerClampController
from repro.throttle.controller import ThrottleController
from repro.throttle.dutycycle import DvfsActuator
from repro.throttle.policy import Band, ThrottleDecision, ThrottlePolicy, classify

__all__ = [
    "Band",
    "DvfsActuator",
    "PowerClampController",
    "ThrottleController",
    "ThrottleDecision",
    "ThrottlePolicy",
    "classify",
]
