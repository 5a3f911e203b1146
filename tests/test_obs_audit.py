"""Tests for the runtime invariant auditor: unit triggers + clean runs."""

import pytest

from repro.cluster import ClusterConfig, run_mcc, run_mcck
from repro.net import NetProfile, derive_net_seed
from repro.obs import audit
from repro.obs.audit import Auditor, AuditViolation
from repro.workloads import generate_table1_jobs


@pytest.fixture
def auditor():
    return Auditor()


@pytest.fixture(autouse=True)
def _no_leaked_active():
    yield
    audit.deactivate()


class TestUnitViolations:
    def test_double_terminal_outcome(self, auditor):
        auditor.enter_cell("t")
        auditor.job_submitted("j1")
        auditor.job_terminal("j1", "Completed", 1.0)
        with pytest.raises(AuditViolation, match="double-terminal"):
            auditor.job_terminal("j1", "Failed", 2.0)

    def test_missing_terminal_outcome_caught_at_cell_end(self, auditor):
        auditor.enter_cell("t")
        auditor.job_submitted("j1")
        with pytest.raises(AuditViolation, match="job-without-terminal"):
            auditor.finish_cell()

    def test_job_on_two_nodes(self, auditor):
        auditor.enter_cell("t")
        auditor.run_started("node0", "j1", 1.0)
        with pytest.raises(AuditViolation, match="job-on-two-nodes"):
            auditor.run_started("node1", "j1", 2.0)

    def test_slot_oversubscription(self, auditor):
        auditor.enter_cell("t")
        auditor.slot_claimed("node0", "j1", 2, 1.0)
        auditor.slot_claimed("node0", "j2", 2, 1.0)
        with pytest.raises(AuditViolation, match="slot-oversubscription"):
            auditor.slot_claimed("node0", "j3", 2, 1.0)

    def test_slot_double_release(self, auditor):
        auditor.enter_cell("t")
        auditor.slot_claimed("node0", "j1", 4, 1.0)
        auditor.slot_released("node0", "j1", 2.0)
        with pytest.raises(AuditViolation, match="slot-double-release"):
            auditor.slot_released("node0", "j1", 3.0)

    def test_double_claim(self, auditor):
        auditor.enter_cell("t")
        auditor.claim_opened("j1", 1, 1.0)
        with pytest.raises(AuditViolation, match="double-claim"):
            auditor.claim_opened("j1", 2, 2.0)

    def test_double_lease(self, auditor):
        auditor.enter_cell("t")
        auditor.lease_opened("node0", "j1", 1, 1.0)
        with pytest.raises(AuditViolation, match="double-lease"):
            auditor.lease_opened("node0", "j1", 2, 2.0)

    def test_ledger_leaks_at_cell_end(self, auditor):
        auditor.enter_cell("t")
        auditor.claim_opened("j1", 1, 1.0)
        with pytest.raises(AuditViolation, match="claim-ledger-leak"):
            auditor.finish_cell()

    def test_violation_message_carries_cell_context(self, auditor):
        auditor.enter_cell("my-cell")
        auditor.job_submitted("j9")
        auditor.job_terminal("j9", "Completed", 1.0)
        with pytest.raises(AuditViolation) as exc:
            auditor.job_terminal("j9", "Completed", 7.5)
        text = str(exc.value)
        assert "my-cell" in text
        assert "t=7.500" in text
        assert "submitted=1" in text

    def test_clean_cell_reconciles(self, auditor):
        auditor.enter_cell("t")
        auditor.job_submitted("j1")
        auditor.slot_claimed("node0", "j1", 4, 1.0)
        auditor.run_started("node0", "j1", 1.0)
        auditor.claim_opened("j1", 1, 1.0)
        auditor.lease_opened("node0", "j1", 1, 1.0)
        auditor.lease_closed("node0", "j1", 1, 5.0)
        auditor.claim_closed("j1", 1, 5.0)
        auditor.run_ended("node0", "j1", 5.0)
        auditor.slot_released("node0", "j1", 5.0)
        auditor.job_terminal("j1", "Completed", 5.0)
        auditor.finish_cell()
        assert auditor.violations == 0
        assert "0 violation(s)" in auditor.render()


class TestActivation:
    def test_activate_installs_and_deactivate_returns(self):
        assert audit.ACTIVE is None
        installed = audit.activate()
        assert audit.ACTIVE is installed
        returned = audit.deactivate()
        assert returned is installed
        assert audit.ACTIVE is None


class TestIntegration:
    def test_direct_pool_run_is_clean(self):
        auditor = audit.activate()
        auditor.enter_cell("direct")
        jobs = generate_table1_jobs(12, seed=5)
        result = run_mcc(jobs, ClusterConfig(nodes=2))
        auditor.finish_cell()
        assert result.completed_jobs == 12
        assert auditor.violations == 0
        assert auditor.checks > 0

    def test_fabric_chaos_run_is_clean(self):
        auditor = audit.activate()
        auditor.enter_cell("chaos")
        jobs = generate_table1_jobs(12, seed=5)
        result = run_mcck(
            jobs,
            ClusterConfig(nodes=2),
            net=NetProfile.chaos(0.10),
            net_seed=derive_net_seed(5),
        )
        auditor.finish_cell()
        assert result.completed_jobs == 12
        assert result.net_retransmits > 0
        assert auditor.violations == 0
