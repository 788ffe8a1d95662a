"""Privacy accounting: parameters, composition and group privacy.

The paper uses three accounting facts:

* basic composition of (epsilon, delta) guarantees across releases (used when
  merging with an untrusted aggregator, Section 7);
* group privacy (Lemma 19): an (epsilon, delta)-DP mechanism for add/remove
  neighbouring streams is (m*epsilon, m*e^(m*epsilon)*delta)-DP for streams
  differing in up to m elements;
* the inverse direction (Lemma 20): to obtain a target (epsilon', delta') at
  user level with contributions of size m, run the element-level mechanism
  with epsilon = epsilon'/m and delta = delta' / (m * e^(epsilon')).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .._validation import check_delta, check_epsilon, check_positive_int
from ..exceptions import PrivacyParameterError, VacuousGuaranteeError


@dataclass(frozen=True)
class PrivacyParams:
    """A pair of differential-privacy parameters.

    ``delta == 0`` encodes pure epsilon-DP.
    """

    epsilon: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        check_delta(self.delta, allow_zero=True)

    @property
    def is_pure(self) -> bool:
        """True when the guarantee is pure epsilon-DP (delta == 0)."""
        return self.delta == 0.0

    def scaled_for_group(self, group_size: int) -> "PrivacyParams":
        """Parameters satisfied for inputs differing in ``group_size`` elements."""
        return group_privacy(self, group_size)


def compose_basic(params: Iterable[PrivacyParams]) -> PrivacyParams:
    """Basic (sequential) composition: epsilons and deltas add up."""
    total_epsilon = 0.0
    total_delta = 0.0
    count = 0
    for p in params:
        total_epsilon += p.epsilon
        total_delta += p.delta
        count += 1
    if count == 0:
        raise PrivacyParameterError("compose_basic requires at least one guarantee")
    if total_delta >= 1.0:
        raise VacuousGuaranteeError(
            f"basic composition of {count} guarantees gives "
            f"delta={total_delta:.6g} >= 1: a vacuous guarantee",
            epsilon=total_epsilon, delta=total_delta)
    return PrivacyParams(epsilon=total_epsilon, delta=total_delta)


def compose_adaptive(epsilon: float, delta: float, rounds: int,
                     delta_prime: float) -> PrivacyParams:
    """Advanced composition (Dwork & Roth, Theorem 3.20).

    Running ``rounds`` adaptive (epsilon, delta)-DP mechanisms satisfies
    ``(epsilon', rounds*delta + delta_prime)``-DP with
    ``epsilon' = sqrt(2 rounds ln(1/delta')) epsilon + rounds epsilon (e^epsilon - 1)``.

    Raises :class:`VacuousGuaranteeError` when the composed delta reaches 1,
    or when ``e^epsilon`` overflows the float range (an epsilon too large to
    represent is no usable guarantee either).
    """
    eps = check_epsilon(epsilon)
    d = check_delta(delta, allow_zero=True)
    dp = check_delta(delta_prime)
    k = check_positive_int(rounds, "rounds")
    delta_total = k * d + dp
    if delta_total >= 1.0:
        raise VacuousGuaranteeError(
            f"advanced composition over {k} rounds gives "
            f"delta={delta_total:.6g} >= 1: a vacuous guarantee",
            epsilon=math.inf, delta=delta_total)
    try:
        eps_total = (math.sqrt(2.0 * k * math.log(1.0 / dp)) * eps
                     + k * eps * (math.exp(eps) - 1.0))
    except OverflowError:
        raise VacuousGuaranteeError(
            f"advanced composition over {k} rounds at epsilon={eps:.6g} "
            f"overflows the float range: no representable guarantee",
            epsilon=math.inf, delta=delta_total) from None
    return PrivacyParams(epsilon=eps_total, delta=delta_total)


def group_privacy(params: PrivacyParams, group_size: int) -> PrivacyParams:
    """Group privacy (Lemma 19).

    If a mechanism is (epsilon, delta)-DP for streams differing in one
    element, it is (m*epsilon, m*e^(m*epsilon)*delta)-DP for streams differing
    in up to ``m = group_size`` elements.

    Pure DP stays pure (``delta == 0`` maps to exactly ``(m*epsilon, 0)``
    regardless of how large ``m*epsilon`` grows).  For approximate DP the
    group delta blows up as ``e^(m*epsilon)``; once it reaches 1 — including
    when ``e^(m*epsilon)`` overflows the float range — the result is a
    vacuous guarantee and :class:`VacuousGuaranteeError` is raised.
    """
    m = check_positive_int(group_size, "group_size")
    epsilon = m * params.epsilon
    if params.delta == 0.0:
        return PrivacyParams(epsilon=epsilon, delta=0.0)
    try:
        delta = m * math.exp(m * params.epsilon) * params.delta
    except OverflowError:
        delta = math.inf
    if delta >= 1.0:
        raise VacuousGuaranteeError(
            f"group privacy at group_size={m} gives delta={delta:.6g} >= 1: "
            f"a vacuous guarantee",
            epsilon=epsilon, delta=delta)
    return PrivacyParams(epsilon=epsilon, delta=delta)


def user_level_parameters(target_epsilon: float, target_delta: float,
                          max_contribution: int) -> PrivacyParams:
    """Element-level parameters that give a user-level target (Lemma 20).

    To release ``PMG`` over the flattened stream with user-level
    (epsilon', delta')-DP when each user contributes at most
    ``max_contribution`` elements, run it with ``epsilon = epsilon' / m`` and
    ``delta = delta' / (m * e^(epsilon'))``.
    """
    eps_prime = check_epsilon(target_epsilon)
    delta_prime = check_delta(target_delta)
    m = check_positive_int(max_contribution, "max_contribution")
    epsilon = eps_prime / m
    delta = delta_prime / (m * math.exp(eps_prime))
    return PrivacyParams(epsilon=epsilon, delta=delta)


def verify_group_privacy_roundtrip(target_epsilon: float, target_delta: float,
                                   max_contribution: int) -> bool:
    """Check that Lemma 20 parameters recover the target under Lemma 19.

    Mostly useful in tests: applying :func:`group_privacy` with
    ``max_contribution`` to the output of :func:`user_level_parameters`
    must give back guarantees at least as strong as the target.
    """
    element_level = user_level_parameters(target_epsilon, target_delta, max_contribution)
    recovered = group_privacy(element_level, max_contribution)
    eps_ok = recovered.epsilon <= target_epsilon * (1.0 + 1e-12)
    delta_ok = recovered.delta <= target_delta * (1.0 + 1e-9)
    return eps_ok and delta_ok


def total_budget_for_merges(per_sketch: PrivacyParams, num_sketches: int,
                            streams_disjoint: bool = True) -> PrivacyParams:
    """Privacy guarantee when releasing ``num_sketches`` noisy sketches.

    With an untrusted aggregator each stream's sketch is released separately.
    When the streams are disjoint (each user appears in exactly one stream, as
    in Section 7), parallel composition applies and the overall guarantee is
    the per-sketch guarantee.  Otherwise basic composition applies.
    """
    count = check_positive_int(num_sketches, "num_sketches")
    if streams_disjoint:
        return per_sketch
    return compose_basic([per_sketch] * count)
