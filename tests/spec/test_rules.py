"""Tests for property-modification rules (paper Figure 4)."""

import pytest

from repro.services.mail import build_mail_spec
from repro.spec import (
    ANY,
    ModificationRule,
    PropertyModificationRule,
    RuleSet,
    SpecError,
)


@pytest.fixture
def conf_rule():
    """Figure 4's rule, as the mail service declares it."""
    return build_mail_spec().rules.rule_for("Confidentiality")


def test_figure4_truth_table(conf_rule):
    # (In: T) x (Env: T) = T
    assert conf_rule.apply(True, True) is True
    # (In: F) x (Env: ANY) = F
    assert conf_rule.apply(False, True) is False
    assert conf_rule.apply(False, False) is False
    assert conf_rule.apply(False, None) is False
    # (In: ANY) x (Env: F) = F
    assert conf_rule.apply(True, False) is False


def test_no_matching_row_yields_none(conf_rule):
    # In: T with Env unknown (None): row 1 needs Env=T, row 2 needs In=F,
    # row 3 needs Env=F -> nothing matches: not vouched for.
    assert conf_rule.apply(True, None) is None


def test_first_match_wins():
    rule = PropertyModificationRule(
        "X",
        rules=(
            ModificationRule(ANY, ANY, "first"),
            ModificationRule(1, 1, "second"),
        ),
    )
    assert rule.apply(1, 1) == "first"


def test_computed_output():
    # QoS-style: delivered frame rate is min(input, env capability)
    rule = PropertyModificationRule(
        "FrameRate",
        rules=(ModificationRule(ANY, ANY, lambda inp, env: min(inp, env)),),
    )
    assert rule.apply(30.0, 12.0) == 12.0
    assert rule.apply(10.0, 24.0) == 10.0


def test_any_input_matches_concrete_pattern(conf_rule):
    # A transparent implementation (ANY) in a secure env delivers T.
    assert conf_rule.apply(ANY, True) is True
    # ...and in an insecure env delivers F (row 2 matches In=ANY first
    # because ANY satisfies any pattern).
    assert conf_rule.apply(ANY, False) is False


def test_empty_rule_list_rejected():
    with pytest.raises(SpecError):
        PropertyModificationRule("X", rules=())


def test_ruleset_passthrough_without_rule():
    rs = RuleSet()
    assert rs.apply("Anything", 42, None) == 42


def test_ruleset_transform_bag(conf_rule):
    rs = RuleSet([conf_rule])
    out = rs.transform(
        {"Confidentiality": True, "TrustLevel": 4},
        {"Confidentiality": False},
    )
    assert out == {"Confidentiality": False, "TrustLevel": 4}


def test_ruleset_duplicate_rejected(conf_rule):
    rs = RuleSet([conf_rule])
    with pytest.raises(SpecError):
        rs.add(conf_rule)


def test_ruleset_queries(conf_rule):
    rs = RuleSet([conf_rule])
    assert rs.rule_for("TrustLevel") is None
    assert rs.rule_for("Confidentiality") is conf_rule
    assert rs.properties() == ["Confidentiality"]
    assert len(rs) == 1


def test_rule_with_range_patterns():
    rule = PropertyModificationRule(
        "TrustLevel",
        rules=(
            # trust is capped by the environment's trust
            ModificationRule(ANY, ANY, lambda inp, env: min(inp, env) if env is not None else None),
        ),
    )
    assert rule.apply(5, 3) == 3
    assert rule.apply(2, 4) == 2
    assert rule.apply(5, None) is None
