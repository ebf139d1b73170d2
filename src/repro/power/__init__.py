"""Average power of the three design points (Table IV).

Energy is power x latency on each :class:`~repro.results.InferenceResult`
(``energy_joules``, ``energy_efficiency_over``), as Figure 15(b) computes it.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".models": ("PowerModel",),
    },
)
