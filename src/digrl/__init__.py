"""Desk-scale excavation learning workbench.

Synthetic cluttered trays, a top-down depth sensor, a hand-rolled autodiff
stack, a hierarchical point-cloud encoder trained on geometric
self-supervision, and a clipped-surrogate policy optimizer digging with a
four-phase arm trajectory. Everything runs from one CLI (``digrl``) and two
profiles: ``paper`` at published scale, ``desk`` sized for one workstation.
"""

# ``perfbench/selftest.py`` checks that tracing restores these classes' attributes.
from .excavation import ExcavationEnv
from .ppo import PolicyCore
from .repnet import RepNet
