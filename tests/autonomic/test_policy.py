"""Unit tests for the policy engine's hysteresis machinery.

The engine is exercised against a minimal fake sampler so each rule
behavior (sustain streaks, streak reset, ``all`` quorum, staleness,
label matching, worst-offender selection) is pinned in isolation from
the simulator.
"""

from __future__ import annotations

from repro.autonomic import DEFAULT_RULES, PolicyEngine, ThresholdRule


class FakeSeries:
    def __init__(self, name, labels=(), samples=()):
        self.name = name
        self.labels = tuple(labels)
        self.samples = list(samples)

    def latest(self):
        return self.samples[-1] if self.samples else None


class FakeSampler:
    interval_ms = 500.0

    def __init__(self, *series):
        self._series = list(series)
        self.scans = []

    def add_scan(self, fn):
        self.scans.append(fn)

    def all_series(self):
        return list(self._series)


class TestSustainHysteresis:
    def _engine(self, sustain=3):
        series = FakeSeries("node.cpu_utilization", (("node", "a"),))
        sampler = FakeSampler(series)
        rule = ThresholdRule(
            name="hot", series="node.cpu_utilization", threshold=0.9,
            action="scale_out", sustain=sustain,
        )
        return PolicyEngine(sampler, rules=[rule]), sampler, series

    def test_fires_only_after_sustained_breach(self):
        engine, sampler, series = self._engine(sustain=3)
        # first two breaches sit below the hysteresis window: no signal
        # until the third consecutive tick
        for i, value in enumerate([0.95, 0.97, 0.96]):
            series.samples.append((i * 500.0, value))
            engine._scan(i * 500.0)
        assert [s.sustained for s in engine.signals] == [3]
        signal = engine.signals[0]
        assert signal.action == "scale_out"
        assert signal.rule == "hot"
        assert signal.value == 0.96
        assert signal.series == "node.cpu_utilization{node=a}"

    def test_keeps_firing_while_breach_persists(self):
        engine, sampler, series = self._engine(sustain=2)
        for i in range(5):
            series.samples.append((i * 500.0, 0.99))
            engine._scan(i * 500.0)
        # cooldown is the manager's job: the engine fires every tick
        # once the streak passes the sustain bar
        assert [s.sustained for s in engine.signals] == [2, 3, 4, 5]

    def test_recovery_resets_the_streak(self):
        engine, sampler, series = self._engine(sustain=3)
        values = [0.95, 0.95, 0.5, 0.95, 0.95]  # dip breaks the streak
        for i, value in enumerate(values):
            series.samples.append((i * 500.0, value))
            engine._scan(i * 500.0)
        assert engine.signals == []

    def test_below_direction(self):
        series = FakeSeries("node.cpu_utilization", (("node", "a"),))
        sampler = FakeSampler(series)
        rule = ThresholdRule(
            name="cold", series="node.cpu_utilization", threshold=0.4,
            action="scale_in", direction="below", sustain=2,
        )
        engine = PolicyEngine(sampler, rules=[rule])
        for i, value in enumerate([0.1, 0.2]):
            series.samples.append((i * 500.0, value))
            engine._scan(i * 500.0)
        assert len(engine.signals) == 1
        assert engine.signals[0].action == "scale_in"
        # worst offender for "below" is the minimum
        assert engine.signals[0].value == 0.2


class TestAggregateAll:
    def _engine(self):
        a = FakeSeries("node.cpu_utilization", (("node", "a"),))
        b = FakeSeries("node.cpu_utilization", (("node", "b"),))
        sampler = FakeSampler(a, b)
        rule = ThresholdRule(
            name="cold", series="node.cpu_utilization", threshold=0.4,
            action="scale_in", direction="below", sustain=2, aggregate="all",
        )
        return PolicyEngine(sampler, rules=[rule]), a, b

    def test_one_busy_series_vetoes(self):
        engine, a, b = self._engine()
        for i in range(4):
            a.samples.append((i * 500.0, 0.1))
            b.samples.append((i * 500.0, 0.9))  # still hot: veto
            engine._scan(i * 500.0)
        assert engine.signals == []

    def test_fires_when_every_series_sustains(self):
        engine, a, b = self._engine()
        for i in range(3):
            a.samples.append((i * 500.0, 0.1))
            b.samples.append((i * 500.0, 0.3))
            engine._scan(i * 500.0)
        assert [s.sustained for s in engine.signals] == [2, 3]

    def test_slowest_streak_gates(self):
        engine, a, b = self._engine()
        # a in breach from tick 0, b only from tick 2: the quorum waits
        # until b's streak reaches the sustain bar (tick 3), even though
        # a has been cold the whole time
        for i in range(4):
            a.samples.append((i * 500.0, 0.1))
            b.samples.append((i * 500.0, 0.1 if i >= 2 else 0.9))
            engine._scan(i * 500.0)
        assert [s.time_ms for s in engine.signals] == [1_500.0]
        # the reported streak is the worst offender's, not the quorum's
        assert engine.signals[0].sustained == 4


class TestMatchingAndStaleness:
    def test_stale_series_ignored(self):
        series = FakeSeries("node.cpu_utilization", (("node", "a"),))
        sampler = FakeSampler(series)
        rule = ThresholdRule(
            name="hot", series="node.cpu_utilization", threshold=0.9,
            action="scale_out", sustain=1, max_age_ticks=2.0,
        )
        engine = PolicyEngine(sampler, rules=[rule])
        series.samples.append((0.0, 0.99))
        engine._scan(0.0)
        assert len(engine.signals) == 1
        # the sample ages out: no further signals, streak not advanced
        engine._scan(5_000.0)
        assert len(engine.signals) == 1

    def test_label_subset_matching(self):
        a = FakeSeries("node.cpu_utilization", (("node", "a"),))
        b = FakeSeries("node.cpu_utilization", (("node", "b"),))
        sampler = FakeSampler(a, b)
        rule = ThresholdRule(
            name="hot-a", series="node.cpu_utilization", threshold=0.9,
            action="scale_out", sustain=1, labels={"node": "a"},
        )
        engine = PolicyEngine(sampler, rules=[rule])
        a.samples.append((0.0, 0.5))
        b.samples.append((0.0, 0.99))  # breaches, but label-filtered out
        engine._scan(0.0)
        assert engine.signals == []

    def test_worst_offender_selected(self):
        a = FakeSeries("node.cpu_utilization", (("node", "a"),))
        b = FakeSeries("node.cpu_utilization", (("node", "b"),))
        sampler = FakeSampler(a, b)
        rule = ThresholdRule(
            name="hot", series="node.cpu_utilization", threshold=0.9,
            action="scale_out", sustain=1,
        )
        engine = PolicyEngine(sampler, rules=[rule])
        a.samples.append((0.0, 0.93))
        b.samples.append((0.0, 0.97))
        engine._scan(0.0)
        assert len(engine.signals) == 1
        assert engine.signals[0].value == 0.97
        assert "node=b" in engine.signals[0].series


class TestDefaultRules:
    def test_stock_rule_set_shape(self):
        by_name = {r.name: r for r in DEFAULT_RULES}
        assert set(by_name) == {
            "node-hot", "queue-deep", "op-p99-slow", "node-cold",
            "dirty-backlog",
        }
        assert by_name["node-cold"].aggregate == "all"
        assert by_name["node-cold"].direction == "below"
        assert {by_name[n].action for n in
                ("node-hot", "queue-deep", "op-p99-slow")} == {"scale_out"}
        assert by_name["dirty-backlog"].action == "flush"
        assert {name: rule.threshold for name, rule in by_name.items()} == {
            "node-hot": 0.90, "queue-deep": 16.0, "op-p99-slow": 1800.0,
            "node-cold": 0.45, "dirty-backlog": 512.0,
        }
