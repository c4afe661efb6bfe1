"""The simulation kernel and its runtime determinism checks.

:mod:`repro.sim.kernel` holds the ``(time, kind, seq)`` event heap every
event loop runs on; :mod:`repro.sim.simsan` is the runtime sim-sanitizer
that watches those loops, derived times and RNG use on a live run.  Every
layer may import this package; it loads nothing beyond :mod:`repro.errors`.
"""

from .kernel import EventKernel
from .simsan import SimSanitizer, installed

__all__ = ["EventKernel", "SimSanitizer", "installed"]
