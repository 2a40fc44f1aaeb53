"""Pre-registration of the ``tuning.*`` metrics namespace.

The OpenMetrics renderer and the ``observe --top`` dashboard render
whatever the registry holds, so pre-registering the tuning series makes
the namespace visible (at zero) from process start instead of popping
into existence at the first promotion.  The tuner and bank write these
same names at runtime.
"""

from __future__ import annotations

from repro.tuning.bank import BANK_POLICIES

#: (name, kind) of every tuning metric, for docs and tests.
TUNING_METRICS = (
    ("tuning.promotions", "counter"),
    ("tuning.demotions", "counter"),
    ("tuning.prunes", "counter"),
    ("tuning.active_candidate", "gauge"),
    ("tuning.alive_candidates", "gauge"),
    ("tuning.kpi_delta", "gauge"),
    ("tuning.online_score", "gauge"),
    ("tuning.static_score", "gauge"),
    ("tuning.demotions.window", "counter_series"),
    ("tuning.bank.regret.window", "histogram_series"),
    ("tuning.bank.switches", "counter"),
    ("tuning.bank.regret", "histogram"),
)


def register_tuning_metrics(registry, window_s=None) -> None:
    """Create every ``tuning.*`` metric in ``registry`` (idempotent).

    Per-policy metrics (switches, regret histograms) register one
    labelled child per bank policy; ``window_s`` sizes the windowed
    series feeding the tuning SLOs.
    """
    registry.counter("tuning.promotions")
    registry.counter("tuning.demotions")
    registry.counter("tuning.prunes")
    registry.gauge("tuning.active_candidate")
    registry.gauge("tuning.alive_candidates")
    #: Incumbent-vs-challenger objective delta of the latest window.
    registry.gauge("tuning.kpi_delta")
    registry.gauge("tuning.online_score")
    registry.gauge("tuning.static_score")
    registry.counter_series("tuning.demotions.window", window_s)
    registry.histogram_series("tuning.bank.regret.window", window_s)
    for policy in BANK_POLICIES:
        registry.counter("tuning.bank.switches", labels={"policy": policy})
        registry.histogram("tuning.bank.regret", labels={"policy": policy})
