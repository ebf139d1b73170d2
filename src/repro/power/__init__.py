"""Average power of the three design points (Table IV).

Energy is power x latency on each :class:`~repro.results.InferenceResult`
(``energy_joules``, ``energy_efficiency_over``), as Figure 15(b) computes it.
"""

from repro.power.models import PowerModel

__all__ = ["PowerModel"]
