"""Runtime invariant auditor: cheap ledgers, loud violations.

Message loss makes state bugs easy to hide — a duplicated claim or a
lost release corrupts slot accounting silently and only shows up as a
hung queue much later. The auditor watches the invariants that must hold
regardless of network weather:

* every submitted job reaches **exactly one** terminal outcome;
* no slot population exceeds the node's slot count, and no job holds
  two claims at once;
* no job runs on two nodes simultaneously;
* lease and claim ledgers reconcile (every open has a close) by the
  end of the cell.

Zero-cost-when-disabled, same pattern as :mod:`repro.sim.profile` and
:mod:`repro.obs.trace`: emission sites in the condor layer pay one
``ACTIVE is not None`` check when auditing is off. A violation raises
:class:`AuditViolation` immediately, carrying the cell label, simulation
time, and the ledger context that was contradicted.

Like the tracer, this module imports nothing from the rest of the
package — emission sites pass primitives — so it can be imported from
any layer without cycles.
"""

from __future__ import annotations

from typing import Optional

#: The auditor emission sites consult (``None`` = auditing off).
ACTIVE: Optional["Auditor"] = None


class AuditViolation(AssertionError):
    """An invariant broke. The message carries full trace context."""


class _CellLedger:
    """Per-cell ledgers (one simulation = one cell)."""

    __slots__ = (
        "label",
        "submitted",
        "terminal",
        "running_on",
        "slot_population",
        "slot_capacity",
        "job_claims",
        "open_leases",
    )

    def __init__(self, label: str) -> None:
        self.label = label
        self.submitted: set[str] = set()
        #: job_id -> terminal status (Completed/Failed result status).
        self.terminal: dict[str, str] = {}
        #: job_id -> node currently running it.
        self.running_on: dict[str, str] = {}
        #: node -> live claim count.
        self.slot_population: dict[str, int] = {}
        #: node -> advertised slot count.
        self.slot_capacity: dict[str, int] = {}
        #: job_id -> claim token (schedd-side open claims).
        self.job_claims: dict[str, object] = {}
        #: (node, job_id) -> lease token (startd-side open leases).
        self.open_leases: dict[tuple[str, str], object] = {}


class Auditor:
    """Checks invariants as emission sites report transitions."""

    def __init__(self) -> None:
        self.checks = 0
        self.violations = 0
        self.cells = 0
        self._cell = _CellLedger("(no cell)")

    # -- cell lifecycle ---------------------------------------------------

    def enter_cell(self, label: str) -> None:
        """Reset ledgers for a new simulation cell."""
        self.cells += 1
        self._cell = _CellLedger(label)

    def finish_cell(self) -> None:
        """Reconcile the ledgers at cell end; raise on any leak."""
        cell = self._cell
        self.checks += 1
        missing = cell.submitted - set(cell.terminal)
        if missing:
            self._violate(
                "job-without-terminal-outcome",
                f"{len(missing)} submitted job(s) never reached a terminal "
                f"outcome: {sorted(missing)[:5]}",
            )
        if cell.running_on:
            self._violate(
                "run-ledger-leak",
                f"jobs still marked running at cell end: "
                f"{sorted(cell.running_on.items())[:5]}",
            )
        busy = {n: c for n, c in cell.slot_population.items() if c != 0}
        if busy:
            self._violate(
                "slot-ledger-leak",
                f"nonzero slot populations at cell end: {sorted(busy.items())[:5]}",
            )
        if cell.job_claims:
            self._violate(
                "claim-ledger-leak",
                f"claims still open at cell end: "
                f"{sorted(cell.job_claims.items())[:5]}",
            )
        if cell.open_leases:
            self._violate(
                "lease-ledger-leak",
                f"leases still open at cell end: "
                f"{sorted(cell.open_leases)[:5]}",
            )

    # -- job lifecycle ----------------------------------------------------

    def job_submitted(self, job_id: str) -> None:
        self.checks += 1
        self._cell.submitted.add(job_id)

    def job_terminal(self, job_id: str, status: str, now: float) -> None:
        cell = self._cell
        self.checks += 1
        previous = cell.terminal.get(job_id)
        if previous is not None:
            self._violate(
                "double-terminal-outcome",
                f"job {job_id!r} reached a second terminal outcome "
                f"{status!r} (already {previous!r})",
                now,
            )
        cell.terminal[job_id] = status

    # -- crash–recovery ---------------------------------------------------

    def schedd_crashed(self, now: float) -> None:
        """The schedd died: its claim state died with it.

        Only the *claim* ledger is wiped — claims live in the schedd and
        are legitimately re-opened by recovery's re-adoption. Every
        other ledger (terminal outcomes, runs, slots, leases) lives
        outside the crashed daemon, so the exactly-one-terminal-outcome
        and no-double-run invariants keep holding *across* the restart:
        a replayed queue that completed a job twice, or re-dispatched a
        job whose run is still alive, still trips the check.
        """
        self.checks += 1
        self._cell.job_claims.clear()

    # -- runs and slots ---------------------------------------------------

    def run_started(self, node: str, job_id: str, now: float) -> None:
        cell = self._cell
        self.checks += 1
        already = cell.running_on.get(job_id)
        if already is not None:
            self._violate(
                "job-on-two-nodes",
                f"job {job_id!r} started on {node!r} while still running "
                f"on {already!r}",
                now,
            )
        cell.running_on[job_id] = node

    def run_ended(self, node: str, job_id: str, now: float) -> None:
        cell = self._cell
        self.checks += 1
        cell.running_on.pop(job_id, None)

    def slot_claimed(self, node: str, job_id: str, capacity: int, now: float) -> None:
        cell = self._cell
        self.checks += 1
        cell.slot_capacity[node] = capacity
        population = cell.slot_population.get(node, 0) + 1
        cell.slot_population[node] = population
        if population > capacity:
            self._violate(
                "slot-oversubscription",
                f"{node!r} holds {population} claims over {capacity} slots "
                f"(latest: job {job_id!r})",
                now,
            )

    def slot_released(self, node: str, job_id: str, now: float) -> None:
        cell = self._cell
        self.checks += 1
        population = cell.slot_population.get(node, 0) - 1
        cell.slot_population[node] = population
        if population < 0:
            self._violate(
                "slot-double-release",
                f"{node!r} released more claims than it opened "
                f"(job {job_id!r})",
                now,
            )

    # -- claims and leases ------------------------------------------------

    def claim_opened(self, job_id: str, token: object, now: float) -> None:
        cell = self._cell
        self.checks += 1
        existing = cell.job_claims.get(job_id)
        if existing is not None:
            self._violate(
                "double-claim",
                f"job {job_id!r} opened claim {token!r} while claim "
                f"{existing!r} is still open",
                now,
            )
        cell.job_claims[job_id] = token

    def claim_closed(self, job_id: str, token: object, now: float) -> None:
        self.checks += 1
        self._cell.job_claims.pop(job_id, None)

    def lease_opened(self, node: str, job_id: str, token: object, now: float) -> None:
        cell = self._cell
        self.checks += 1
        key = (node, job_id)
        if key in cell.open_leases:
            self._violate(
                "double-lease",
                f"lease for job {job_id!r} on {node!r} opened twice "
                f"(token {token!r})",
                now,
            )
        cell.open_leases[key] = token

    def lease_closed(self, node: str, job_id: str, token: object, now: float) -> None:
        self.checks += 1
        self._cell.open_leases.pop((node, job_id), None)

    # -- reporting --------------------------------------------------------

    def _violate(
        self, kind: str, detail: str, now: Optional[float] = None
    ) -> None:
        self.violations += 1
        cell = self._cell
        at = f" at t={now:.3f}" if now is not None else ""
        raise AuditViolation(
            f"[{kind}] cell {cell.label!r}{at}: {detail}\n"
            f"  submitted={len(cell.submitted)} "
            f"terminal={len(cell.terminal)} "
            f"running={len(cell.running_on)} "
            f"open_claims={len(cell.job_claims)} "
            f"open_leases={len(cell.open_leases)}"
        )

    def render(self) -> str:
        """One summary line for the CLI footer."""
        return (
            f"[audit: {self.checks:,} checks across {self.cells} cell(s), "
            f"{self.violations} violation(s)]"
        )

    def __repr__(self) -> str:
        return f"<Auditor checks={self.checks} violations={self.violations}>"


def activate() -> Auditor:
    """Install a fresh auditor; emission sites start reporting to it."""
    global ACTIVE
    ACTIVE = Auditor()
    return ACTIVE


def deactivate() -> Optional[Auditor]:
    """Uninstall the active auditor and return it (``None`` if none)."""
    global ACTIVE
    auditor, ACTIVE = ACTIVE, None
    return auditor
