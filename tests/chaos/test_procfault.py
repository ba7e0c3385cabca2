"""procfault spec parsing, deterministic schedules, and injection."""

import pytest

from repro.chaos.procfault import (
    ProcFaultPlan,
    activate,
    activated,
    current_plan,
    parse_procfault,
)
from repro.errors import ChaosError, ProcFaultError


class TestParse:
    def test_explicit_target_names_one_shard(self):
        plan = parse_procfault("kill@2")
        assert plan.fault_for(2) == ("kill", 0.0)
        assert plan.fault_for(1) is None

    def test_durations_and_defaults(self):
        plan = parse_procfault("hang@1/20,hang@2/1.5,hang@4")
        assert plan.fault_for(1) == ("hang", 20.0)
        assert plan.fault_for(2) == ("hang", 1.5)
        assert plan.fault_for(4) == ("hang", 60.0)

    def test_multiple_terms_first_match_wins(self):
        plan = parse_procfault("kill@1,raise@1")
        assert plan.fault_for(1) == ("kill", 0.0)

    def test_spec_roundtrips_for_worker_reparse(self):
        spec = "kill@1,hang@2/20,seed=7"
        assert parse_procfault(spec).spec == spec

    @pytest.mark.parametrize("bad", [
        "", "explode@1", "kill@x", "kill@1/-2", "kill%x", "kill%150",
        "seed=x", "justnonsense", "kill@1.1",
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ChaosError):
            parse_procfault(bad)

    def test_unknown_kind_names_the_kinds_there_are(self):
        with pytest.raises(ChaosError, match="kill, hang, raise"):
            parse_procfault("slow@0")


class TestProbabilistic:
    def test_rate_schedule_is_seed_deterministic(self):
        plan_a = parse_procfault("raise%30,seed=7")
        plan_b = parse_procfault("raise%30,seed=7")
        shards = range(200)
        hits_a = [s for s in shards if plan_a.fault_for(s)]
        assert hits_a == [s for s in shards if plan_b.fault_for(s)]
        # ~30% of 200 shards, deterministic margin.
        assert 30 <= len(hits_a) <= 90

    def test_different_seed_different_schedule(self):
        plan_a = parse_procfault("raise%30,seed=7")
        plan_b = parse_procfault("raise%30,seed=8")
        shards = range(200)
        assert [s for s in shards if plan_a.fault_for(s)] != \
            [s for s in shards if plan_b.fault_for(s)]

    def test_full_rate_fires_on_every_shard(self):
        plan = parse_procfault("raise%100")
        assert all(plan.fault_for(s) == ("raise", 0.0) for s in range(50))

    def test_zero_rate_never_fires(self):
        plan = parse_procfault("kill%0")
        assert all(plan.fault_for(s) is None for s in range(50))


class TestInjection:
    def test_raise_fault_raises_procfault_error(self):
        plan = parse_procfault("raise@1")
        with pytest.raises(ProcFaultError):
            plan.inject(1)
        plan.inject(0)  # other shard: no fault

    def test_ambient_activation(self):
        plan = parse_procfault("raise@1")
        assert current_plan() is None
        with activated(plan):
            assert current_plan() is plan
            with pytest.raises(ProcFaultError):
                current_plan().inject(1)
        assert current_plan() is None

    def test_activate_returns_previous(self):
        plan = parse_procfault("raise@1")
        assert activate(plan) is None
        assert activate(None) is plan
        assert current_plan() is None

    def test_plan_describe(self):
        plan = parse_procfault("kill@1,seed=3")
        assert plan.describe() == {"spec": "kill@1,seed=3", "seed": 3,
                                   "terms": 1}
        assert isinstance(plan, ProcFaultPlan)
