"""Server-side privacy budget accounting for the aggregation service.

The paper's deployment story (m untrusted clients, one aggregator) only
holds if the aggregator enforces a finite privacy budget *across* releases:
each RELEASE spends the configured per-release ``(epsilon, delta)``, and the
total guarantee degrades under composition (Dwork & Roth).  Without an
accountant a client issuing N releases silently consumes ``N * epsilon``
while STATS still shows the per-release parameters — the free-release bug.

:class:`BudgetAccountant` closes it.  It is deliberately a *gate, not a
mechanism*: charging happens before the release is computed and never
touches the release RNG, so an under-budget release is bit-identical to the
one an unaccounted server would produce (property-tested).

Charge protocol (inside :meth:`repro.net.server.AggregatorServer.
perform_release`)::

    spend = accountant.charge()     # compose, check budget, PERSIST count
    histogram = combined.release()  # compute only after the charge is durable
    reply OK                        # a crash here leaves the charge spent

The charge is persisted *first*, through the same fsync-backed checkpoint
store the WAL commits through, under the reserved ledger row
:data:`repro.net.store.BUDGET_SESSION_ID`.  A ``kill -9`` anywhere in that
window therefore costs at most one unconsumed charge — conservative — and
never a reset or double-charged budget: restart recovery reads the persisted
release count back and WAL replay never re-runs releases.

Composition follows :mod:`repro.dp.accounting` exactly: ``basic`` charges
``compose_basic([per_release] * n)``, ``advanced`` charges
``compose_adaptive(eps, delta, n, delta_slack)``.  A composition that turns
vacuous (``delta >= 1``, :class:`~repro.exceptions.VacuousGuaranteeError`)
is treated as exhausted — a vacuous guarantee is no guarantee, so the
release that would cross the line is refused like an over-budget one.
"""

from __future__ import annotations

import math
import sqlite3
from dataclasses import dataclass
from typing import Optional

from .._validation import check_delta
from ..dp.accounting import PrivacyParams, compose_adaptive, compose_basic
from ..exceptions import (ParameterError, RemoteError, VacuousGuaranteeError)
from ..obs.metrics import NULL_METRICS
from .store import BUDGET_SESSION_ID, CheckpointStore, SessionRecord

__all__ = ["BudgetAccountant", "BudgetSpend", "COMPOSITION_MODES"]

#: The composition rules the accountant can charge under.
COMPOSITION_MODES = ("basic", "advanced")

#: Relative + absolute tolerance for the budget comparison, so a budget of
#: exactly ``N * epsilon`` admits N releases despite float summation error
#: (0.1 + 0.1 + 0.1 > 0.3 in binary floating point).
_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def _fits(spent: float, budget: float) -> bool:
    return spent <= budget * (1.0 + _REL_TOL) + _ABS_TOL


@dataclass(frozen=True)
class BudgetSpend:
    """The composed privacy cost of ``releases`` charged releases.

    ``vacuous`` marks a spend whose composed guarantee crossed ``delta >= 1``
    (or overflowed the float range): no valid ``(epsilon, delta)`` pair
    describes it, and the accountant refuses to reach it.
    """

    releases: int
    epsilon: float
    delta: float
    vacuous: bool = False


class BudgetAccountant:
    """Tracks cumulative privacy spend across RELEASE frames.

    ``budget=None`` runs the accountant in *metering* mode: every release is
    still counted (and persisted when a ``store`` is given) so STATS reports
    the honest cumulative spend, but nothing is refused.  With a budget, the
    first release whose composed spend would exceed it — or turn vacuous —
    raises :class:`~repro.exceptions.RemoteError` with code
    ``budget_exhausted``, which the session layer reports to the client as a
    machine-readable ERROR frame.

    ``store`` is the WAL's checkpoint store; the charged release count lives
    in the reserved :data:`~repro.net.store.BUDGET_SESSION_ID` row
    (``committed_frames`` = releases charged, ``client`` = composition mode)
    and is read back eagerly at construction, so a restarted server resumes
    from the persisted spend.
    """

    def __init__(self, per_release: PrivacyParams, *,
                 budget: Optional[PrivacyParams] = None,
                 composition: str = "basic",
                 delta_slack: Optional[float] = None,
                 store: Optional[CheckpointStore] = None,
                 metrics=None) -> None:
        if not isinstance(per_release, PrivacyParams):
            raise ParameterError(
                f"per_release must be PrivacyParams, got {per_release!r}")
        if budget is not None and not isinstance(budget, PrivacyParams):
            raise ParameterError(
                f"budget must be PrivacyParams or None, got {budget!r}")
        if composition not in COMPOSITION_MODES:
            raise ParameterError(
                f"composition must be one of {COMPOSITION_MODES}, "
                f"got {composition!r}")
        if composition == "advanced":
            if delta_slack is None:
                if budget is None or budget.delta <= 0.0:
                    raise ParameterError(
                        "advanced composition needs a delta' slack: pass "
                        "delta_slack explicitly or a budget with delta > 0 "
                        "(the default slack is half the budget delta)")
                delta_slack = budget.delta / 2.0
            check_delta(delta_slack)
        self.per_release = per_release
        self.budget = budget
        self.composition = composition
        self.delta_slack = delta_slack
        self._store = store
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._releases = self._load_persisted()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _load_persisted(self) -> int:
        if self._store is None:
            return 0
        record = self._store.get(BUDGET_SESSION_ID)
        if record is None:
            return 0
        return max(0, record.committed_frames)

    def _persist(self) -> None:
        if self._store is None:
            return
        self._store.put(SessionRecord(
            session_id=BUDGET_SESSION_ID, ordinal=None,
            client=self.composition, k=None, spool="",
            committed_frames=self._releases))

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def spend_after(self, releases: int) -> BudgetSpend:
        """The composed spend after ``releases`` charged releases."""
        if releases <= 0:
            return BudgetSpend(releases=0, epsilon=0.0, delta=0.0)
        try:
            if self.composition == "basic":
                composed = compose_basic([self.per_release] * releases)
            else:
                composed = compose_adaptive(
                    self.per_release.epsilon, self.per_release.delta,
                    releases, self.delta_slack)
        except VacuousGuaranteeError as error:
            return BudgetSpend(releases=releases, epsilon=error.epsilon,
                               delta=min(error.delta, 1.0), vacuous=True)
        return BudgetSpend(releases=releases, epsilon=composed.epsilon,
                           delta=composed.delta)

    @property
    def releases_charged(self) -> int:
        return self._releases

    @property
    def spent(self) -> BudgetSpend:
        """The composed spend of everything charged so far."""
        return self.spend_after(self._releases)

    @property
    def remaining(self) -> Optional[PrivacyParams]:
        """Budget minus spend (``None`` when no budget is configured)."""
        if self.budget is None:
            return None
        spend = self.spent
        if spend.vacuous:
            return None
        eps_left = max(0.0, self.budget.epsilon - spend.epsilon)
        delta_left = max(0.0, self.budget.delta - spend.delta)
        if eps_left <= 0.0:
            return None
        return PrivacyParams(epsilon=eps_left, delta=delta_left)

    @property
    def exhausted(self) -> bool:
        """True when the *next* release would be refused.

        Without a budget this can still turn True: a composition that goes
        vacuous (delta >= 1) is refused even in metering mode, because no
        guarantee at all is worse than a refused release.
        """
        return not self._admits(self.spend_after(self._releases + 1))

    def _admits(self, spend: BudgetSpend) -> bool:
        if spend.vacuous:
            return False
        if self.budget is None:
            return True
        return (_fits(spend.epsilon, self.budget.epsilon)
                and _fits(spend.delta, self.budget.delta))

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def charge(self) -> BudgetSpend:
        """Charge one release; persist the new count before returning.

        Raises :class:`~repro.exceptions.RemoteError` with code
        ``budget_exhausted`` (leaving the persisted count untouched) when
        the charged spend would exceed the budget or turn vacuous, and with
        code ``wal_commit_failed`` when the store cannot persist the new
        count.  The failed persist keeps the in-memory charge: spend may be
        over-counted, never under-counted.
        """
        spend = self.spend_after(self._releases + 1)
        if not self._admits(spend):
            if spend.vacuous:
                detail = (f"release {spend.releases} makes the composed "
                          f"guarantee vacuous (delta >= 1)")
            else:
                detail = (f"release {spend.releases} would spend "
                          f"epsilon={spend.epsilon:.6g}, "
                          f"delta={spend.delta:.6g} against budget "
                          f"epsilon={self.budget.epsilon:.6g}, "
                          f"delta={self.budget.delta:.6g}")
            raise RemoteError(
                f"privacy budget exhausted after "
                f"{self._releases} release(s): {detail}",
                code="budget_exhausted")
        self._releases += 1
        persist_start = self.metrics.clock()
        try:
            self._persist()
        except (OSError, sqlite3.Error) as error:
            raise RemoteError(
                f"could not persist the privacy budget charge ({error}); "
                "this release is refused and its charge kept",
                code="wal_commit_failed") from error
        self.metrics.observe("budget.persist_seconds",
                             self.metrics.clock() - persist_start)
        self.metrics.inc("budget.releases_total")
        if math.isfinite(spend.epsilon):
            self.metrics.set_gauge("budget.epsilon_spent", spend.epsilon)
        if math.isfinite(spend.delta):
            self.metrics.set_gauge("budget.delta_spent", spend.delta)
        return spend

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def as_stats(self) -> dict:
        """The STATS ``privacy`` stanza (JSON-safe: inf maps to None)."""
        def _finite(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        spend = self.spent
        stanza = {
            "per_release": {"epsilon": self.per_release.epsilon,
                            "delta": self.per_release.delta},
            "composition": self.composition,
            "releases_charged": self._releases,
            "spent": {"epsilon": _finite(spend.epsilon),
                      "delta": _finite(spend.delta),
                      "vacuous": spend.vacuous},
            "budget": None,
            "remaining": None,
            "exhausted": self.exhausted,
        }
        if self.budget is not None:
            stanza["budget"] = {"epsilon": self.budget.epsilon,
                                "delta": self.budget.delta}
            remaining = self.remaining
            if remaining is not None:
                stanza["remaining"] = {"epsilon": remaining.epsilon,
                                       "delta": remaining.delta}
            else:
                stanza["remaining"] = {"epsilon": 0.0, "delta": 0.0}
        return stanza
