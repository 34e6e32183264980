"""The Ultrascalar II: the ring engine with one cluster spanning the window.

"The Ultrascalar II as described is less efficient than the Ultrascalar
I because its datapath does not wrap around.  As a result, stations idle
waiting for everyone to finish before refilling."  With ``cluster_size =
window_size`` the whole window refills as one batch, and the oldest
station is always position 0, so the ring never wraps.
"""

from repro.ultrascalar.ring import RingProcessor


class BatchProcessor(RingProcessor):
    """A :class:`RingProcessor` whose single cluster spans the window."""

    def __init__(self, program, config, predictor, memory, **kwargs):
        super().__init__(
            program, config, predictor, memory, cluster_size=config.window_size, **kwargs
        )

    # An entry of its own, not an override: perfbench/spans.py wraps
    # ``BatchProcessor.__dict__["run"]``, and a ``super().run()`` override
    # would nest two US-II run spans and count each run twice.
    run = RingProcessor.run
