"""Config parsing, schema validation, defaults, and cross-field checks."""

import logging
import math
import textwrap
import tomllib

import pytest

from retailsim.agents import SatisfactionEvent
from retailsim.cli import resolve_config_path
from retailsim.config import (
    ConfigError,
    Horizon,
    StaffingPlan,
    build_config,
    load_config,
)
from retailsim.sampling import TriangularParams

MINIMAL = textwrap.dedent(
    """\
    label = "TEST"

    [arrivals]
    rate_per_hour = 30

    [durations.browse]
    min = 1
    mode = 7
    max = 15

    [durations.help]
    min = 3
    mode = 15
    max = 30

    [durations.pay_service]
    min = 1
    mode = 3
    max = 6

    [durations.refund_service]
    min = 2
    mode = 5
    max = 10

    [durations.patience_pay]
    min = 5
    mode = 12
    max = 20

    [probabilities]
    need_help = 0.38
    buy_after_browse = 0.37
    buy_after_help = 0.56

    [staffing]
    cashiers = 3
    normal_sellers = 5
    expert_sellers = 1
    section_managers = 1
    """
)


def load_text(tmp_path, text, name="case.toml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return load_config(path)


# -- file format ----------------------------------------------------------------


def test_parser_handles_sections_scalars_arrays_comments(tmp_path):
    text = MINIMAL.replace('label = "TEST"', 'label = "X"  # trailing comment')
    text += textwrap.dedent(
        """\
        [queues]
        cashier_priority = ["pay", "refund"]
        [horizon]
        trading_day_minutes = 480.5
        days = 7
        """
    )
    cfg = load_text(tmp_path, text)
    assert cfg.label == "X"
    assert cfg.cashier_priority == ("pay", "refund")
    assert cfg.horizon == Horizon(480.5, 7)


def test_inline_table_durations_parse(tmp_path):
    text = MINIMAL.replace(
        "[durations.browse]\nmin = 1\nmode = 7\nmax = 15\n",
        "[durations]\nbrowse = { min = 1, mode = 7, max = 15 }\n",
    )
    assert text != MINIMAL
    assert load_text(tmp_path, text).durations.browse == TriangularParams(1, 7, 15)


# The ids name each malformation. tomllib words the message, which must name
# the file and where in it the error is.
PARSE_ERRORS = [
    ("just some words-expected 'key = value'", "just some words", "line 1"),
    ("a = 1\na = 2-line 2: duplicate key", "a = 1\na = 2\n", "line 2"),
    ("[s]\nx = 1\n[s]\ny = 2-line 3: duplicate section", "[s]\nx = 1\n[s]\ny = 2", "line 3"),
    ("[s\nx = 1-unterminated section header", "[s\nx = 1", "line 1"),
    ('name = "open-unterminated string', 'name = "open', "end of document"),
    ("x = [1,-unterminated array", "x = [1,", "end of document"),
    ("x = [1, 2-expected ',' or ']' in array", "x = [1, 2", "end of document"),
    ("x = @wat-cannot parse value", "x = @wat", "line 1"),
    ("x =-missing value", "x =", "end of document"),
    ("[bad name!]-bad section name", "[bad name!]", "line 1"),
    ("x y = 1-bad key", "x y = 1", "line 1"),
    ('x = "a" stray-unexpected text after value', 'x = "a" stray', "line 1"),
]


@pytest.mark.parametrize(
    "text, where", [case[1:] for case in PARSE_ERRORS], ids=[case[0] for case in PARSE_ERRORS]
)
def test_parser_errors_name_the_line(tmp_path, text, where):
    with pytest.raises(ConfigError, match="case.toml") as excinfo:
        load_text(tmp_path, text)
    assert where in str(excinfo.value)


# -- shipped configs ------------------------------------------------------------


def test_shipped_atv_values(atv_config):
    cfg = atv_config
    assert cfg.label == "A&TV"
    assert cfg.durations.browse == TriangularParams(1, 7, 15)
    assert cfg.durations.help == TriangularParams(3, 15, 30)
    assert cfg.probabilities.need_help == 0.38
    assert cfg.probabilities.buy_after_browse == 0.37
    assert cfg.probabilities.buy_after_help == 0.56
    assert cfg.staffing == StaffingPlan(3, 5, 1, 1)
    assert cfg.staffing.total() == 10
    assert cfg.horizon == Horizon(600.0, 70)
    assert cfg.weights[SatisfactionEvent.REFUND_QUEUE_ABANDONED] == -4


def test_shipped_ww_contrasts_with_atv(atv_config, ww_config):
    # The two departments differ only in data; WW sees more, faster traffic.
    assert ww_config.label == "WW"
    assert ww_config.arrivals.rate_per_hour > atv_config.arrivals.rate_per_hour
    assert ww_config.probabilities.need_help < atv_config.probabilities.need_help
    assert ww_config.probabilities.buy_after_browse > atv_config.probabilities.buy_after_browse
    assert ww_config.durations.help.mean() < atv_config.durations.help.mean()


def test_shipped_configs_resolve_by_bare_name():
    for name in ("dept_atv.toml", "dept_ww.toml"):
        assert load_config(resolve_config_path(name)).staffing.total() == 10


# -- schema validation ----------------------------------------------------------


def test_minimal_config_defaults(tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="retailsim.config"):
        cfg = load_text(tmp_path, MINIMAL)
    assert cfg.label == "TEST"
    # Omitted pieces fall back to documented defaults.
    assert cfg.durations.patience_help == cfg.durations.patience_pay
    assert cfg.durations.patience_refund == cfg.durations.patience_pay
    assert cfg.durations.manager_authorization == TriangularParams(1.0, 3.0, 6.0)
    assert cfg.probabilities.refund_goal == 0.1
    assert cfg.probabilities.repurchase_after_refund == 0.3
    assert cfg.probabilities.needs_expert == 0.2
    assert cfg.probabilities.buy_after_browse_is_marginal is True
    assert cfg.empowerment.p_empowered == 1.0
    assert cfg.empowerment.hold_cashier_during_referral is True
    assert cfg.horizon == Horizon(600.0, 70)
    assert cfg.cashier_priority == ("refund", "pay")
    assert cfg.weights[SatisfactionEvent.PURCHASE_COMPLETED] == 2
    # Every defaulted block leaves a provenance note.
    notes = " ".join(r.message for r in caplog.records)
    assert "satisfaction_weights" in notes
    assert "empowerment" in notes
    assert "horizon" in notes
    assert "patience_help" in notes


def test_marginal_probability_rescaled():
    probs_marginal = load_probabilities(MINIMAL)
    assert probs_marginal.browse_buy_conditional() == pytest.approx(0.37 / (1 - 0.38))


def load_probabilities(text):
    return build_config(tomllib.loads(text), "inline").probabilities


def test_conditional_probability_taken_verbatim(tmp_path):
    text = MINIMAL.replace(
        "buy_after_help = 0.56",
        "buy_after_help = 0.56\nbuy_after_browse_is_marginal = false",
    )
    cfg = load_text(tmp_path, text)
    assert cfg.probabilities.browse_buy_conditional() == 0.37


def test_scalar_duration_becomes_constant(tmp_path):
    text = MINIMAL.replace(
        "[durations.pay_service]\nmin = 1\nmode = 3\nmax = 6\n",
        "[durations]\npay_service = 3\n",
    )
    assert text != MINIMAL
    cfg = load_text(tmp_path, text)
    assert cfg.durations.pay_service == TriangularParams.constant(3.0)
    assert cfg.durations.pay_service.variance() == 0.0


def test_constant_table_duration_allowed(tmp_path):
    text = MINIMAL.replace("min = 1\nmode = 3\nmax = 6", "min = 3\nmode = 3\nmax = 3")
    cfg = load_text(tmp_path, text)
    assert cfg.durations.pay_service == TriangularParams.constant(3.0)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda t: t.replace("mode = 7", "mode = 0.5"), "durations.browse"),
        (lambda t: t.replace("need_help = 0.38", "need_help = 1.5"), "need_help"),
        (lambda t: t.replace("cashiers = 3", "cashiers = -1"), "staffing.cashiers"),
        (lambda t: t.replace("cashiers = 3", "cashiers = 2.5"), "staffing.cashiers"),
        (lambda t: t.replace("rate_per_hour = 30", "rate_per_hour = -4"), "rate_per_hour"),
        (lambda t: t.replace("[arrivals]\nrate_per_hour = 30\n", ""), "[arrivals]"),
        (lambda t: t.replace("need_help = 0.38\n", ""), "need_help"),
        (lambda t: t + "\n[horizon]\ndays = 0\n", "at least 1 day"),
        (lambda t: t + "\n[empowerment]\np_empowered = 1.2\n", "p_empowered"),
        (lambda t: t + "\n[probabilities2]\nx = 1\n", "unknown key"),
        (lambda t: t.replace("need_help = 0.38", "need_help = 0.38\ntypo_key = 1"), "typo_key"),
        (
            lambda t: t.replace("buy_after_browse = 0.37", "buy_after_browse = 0.7"),
            "sum to at most 1",
        ),
        (
            lambda t: t.replace("section_managers = 1", "section_managers = 0")
            + "\n[empowerment]\np_empowered = 0.5\n",
            "section_managers is 0",
        ),
        (
            lambda t: t + '\n[queues]\ncashier_priority = ["refund", "refund"]\n',
            "permutation",
        ),
        (lambda t: t.replace('label = "TEST"\n', ""), "label"),
    ],
)
def test_invalid_configs_name_the_field(tmp_path, mutate, fragment):
    text = mutate(MINIMAL)
    assert text != MINIMAL
    with pytest.raises(ConfigError) as excinfo:
        load_text(tmp_path, text)
    assert fragment in str(excinfo.value)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "nope.toml")


def test_error_messages_name_the_file(tmp_path):
    with pytest.raises(ConfigError, match="broken.toml"):
        load_text(tmp_path, MINIMAL.replace("mode = 7", "mode = 99"), name="broken.toml")


def test_managers_allowed_zero_when_fully_empowered(tmp_path):
    text = MINIMAL.replace("section_managers = 1", "section_managers = 0")
    cfg = load_text(tmp_path, text)
    assert cfg.staffing.section_managers == 0
    assert cfg.empowerment.p_empowered == 1.0


def test_cashier_priority_override(tmp_path):
    text = MINIMAL + '\n[queues]\ncashier_priority = ["pay", "refund"]\n'
    assert load_text(tmp_path, text).cashier_priority == ("pay", "refund")


def test_horizon_validation():
    with pytest.raises(ValueError, match="at least 1 day"):
        Horizon(600.0, 0)
    with pytest.raises(ValueError, match="trading_day_minutes"):
        Horizon(0.0, 7)


def test_staffing_plan_validation():
    with pytest.raises(ValueError, match="non-negative integer"):
        StaffingPlan(1, -2, 1, 1)
    with pytest.raises(ValueError, match="non-negative integer"):
        StaffingPlan(True, 2, 1, 1)
    assert StaffingPlan(3, 5, 1, 1).total() == 10
