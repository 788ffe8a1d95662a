"""Monte-Carlo privacy auditing of release mechanisms.

A privacy audit runs a mechanism many times on a fixed pair of neighbouring
inputs and estimates, for a chosen family of output events, the largest
violation of the (epsilon, delta) inequality

    P[M(S) in Z]  <=  e^eps * P[M(S') in Z] + delta.

An audit can only produce *lower bounds* on the true privacy loss, but that is
enough for the purpose it serves here (experiment E10): demonstrating that the
Böhler-Kerschbaum mechanism as published exceeds its claimed budget on the
worst-case input pair from the paper's argument, while Algorithm 2 stays
within budget on the same pair.

Audited events:

* per-key events ``{x is released}`` and ``{x's noisy count >= t}`` for every
  probed key and a grid of thresholds — these expose single-counter leaks;
* global events ``{sum of released counts >= t}`` and
  ``{number of released keys >= j}`` — these expose the "all counters shifted
  together" leak that sensitivity-1 noise cannot hide, which is exactly the
  flaw in the as-published Böhler-Kerschbaum mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from .._validation import check_positive_int
from ..dp.rng import RandomState, ensure_rng
from ..core.results import PrivateHistogram

MechanismRunner = Callable[..., PrivateHistogram]


@dataclass(frozen=True)
class PrivacyAuditResult:
    """Outcome of a Monte-Carlo privacy audit."""

    claimed_epsilon: float
    claimed_delta: float
    estimated_epsilon_lower_bound: float
    worst_event: str
    trials: int
    violated: bool

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for reporting code."""
        return {
            "claimed_epsilon": self.claimed_epsilon,
            "claimed_delta": self.claimed_delta,
            "estimated_epsilon_lower_bound": self.estimated_epsilon_lower_bound,
            "worst_event": self.worst_event,
            "trials": self.trials,
            "violated": self.violated,
        }


def _event_indicators(histograms: Sequence[PrivateHistogram], probe_keys: Sequence[Hashable],
                      key_thresholds: Sequence[float], sum_thresholds: Sequence[float],
                      count_thresholds: Sequence[int]) -> Dict[str, np.ndarray]:
    """Indicator vectors (one entry per trial) for every audited event."""
    events: Dict[str, np.ndarray] = {}
    totals = np.array([sum(hist.counts.values()) for hist in histograms])
    released_counts = np.array([len(hist) for hist in histograms])
    for key in probe_keys:
        estimates = np.array([hist.estimate(key) for hist in histograms])
        released = np.array([key in hist for hist in histograms])
        events[f"released[{key!r}]"] = released
        events[f"not_released[{key!r}]"] = ~released
        for threshold in key_thresholds:
            events[f"key_ge[{key!r},{threshold:.3g}]"] = released & (estimates >= threshold)
    for threshold in sum_thresholds:
        events[f"sum_ge[{threshold:.4g}]"] = totals >= threshold
    for count in count_thresholds:
        events[f"released_count_ge[{count}]"] = released_counts >= count
    return events


def audit_mechanism(run_on_stream: MechanismRunner, stream: Sequence, neighbour: Sequence,
                    claimed_epsilon: float, claimed_delta: float,
                    trials: int = 2000, rng: RandomState = 0,
                    probe_keys: Optional[Sequence[Hashable]] = None,
                    num_thresholds: int = 8) -> PrivacyAuditResult:
    """Estimate a lower bound on the privacy loss of a mechanism.

    Parameters
    ----------
    run_on_stream:
        Callable ``(stream, rng) -> PrivateHistogram`` running the full
        pipeline (sketch + release) on a stream.
    stream, neighbour:
        The neighbouring input pair to audit.
    claimed_epsilon, claimed_delta:
        The guarantee the mechanism claims; ``violated`` is set when the
        estimated loss exceeds the claim beyond the Monte-Carlo margin.
    trials:
        Number of runs per input.
    probe_keys:
        Keys whose per-key events are audited; defaults to (a sample of) the
        keys appearing in the outputs.
    num_thresholds:
        Grid size for the count / sum threshold events.
    """
    count = check_positive_int(trials, "trials")
    generator = ensure_rng(rng)
    outputs_stream = [run_on_stream(stream, rng=generator) for _ in range(count)]
    outputs_neighbour = [run_on_stream(neighbour, rng=generator) for _ in range(count)]
    if probe_keys is None:
        keys: set = set()
        for hist in outputs_stream[:50] + outputs_neighbour[:50]:
            keys.update(hist.keys())
        probe_keys = sorted(keys, key=repr)[:20]
    # Threshold grids from the pooled observations.
    all_estimates: List[float] = []
    all_sums: List[float] = []
    all_counts: List[int] = []
    for hist in outputs_stream + outputs_neighbour:
        all_estimates.extend(hist.counts.values())
        all_sums.append(sum(hist.counts.values()))
        all_counts.append(len(hist))
    if all_estimates:
        key_thresholds = list(np.quantile(all_estimates, np.linspace(0.05, 0.95, num_thresholds)))
    else:
        key_thresholds = []
    sum_thresholds = list(np.quantile(all_sums, np.linspace(0.05, 0.95, 2 * num_thresholds)))
    count_thresholds = sorted(set(int(c) for c in np.quantile(all_counts, [0.25, 0.5, 0.75, 0.9])))
    events_stream = _event_indicators(outputs_stream, probe_keys, key_thresholds,
                                      sum_thresholds, count_thresholds)
    events_neighbour = _event_indicators(outputs_neighbour, probe_keys, key_thresholds,
                                         sum_thresholds, count_thresholds)
    # The Monte-Carlo margin guards against declaring a violation from
    # estimation noise: a 3-sigma binomial confidence radius.
    margin = 3.0 / math.sqrt(count)
    worst_epsilon = 0.0
    worst_event = ""
    for event in events_stream:
        p_stream = float(np.mean(events_stream[event]))
        p_neighbour = float(np.mean(events_neighbour[event]))
        for p, q in ((p_stream, p_neighbour), (p_neighbour, p_stream)):
            p_adjusted = p - margin - claimed_delta
            q_adjusted = q + margin
            if p_adjusted <= 0.0:
                continue
            estimated = math.log(p_adjusted / q_adjusted) if q_adjusted > 0 else math.inf
            if estimated > worst_epsilon:
                worst_epsilon = estimated
                worst_event = event
    return PrivacyAuditResult(
        claimed_epsilon=claimed_epsilon,
        claimed_delta=claimed_delta,
        estimated_epsilon_lower_bound=worst_epsilon,
        worst_event=worst_event,
        trials=count,
        violated=worst_epsilon > claimed_epsilon,
    )
