"""Config parsing, schema validation, defaults, and cross-field checks."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import pathlib
import pickle
import struct
import tempfile
import textwrap
import tomllib
import typing

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import shorten, triangular_mean, triangular_variance
from retailsim.cli import main, resolve_config_path
from retailsim.config import (
    MAX_ARRIVALS_PER_HOUR,
    MAX_HORIZON_MINUTES,
    MAX_STAFF_PER_ROLE,
    ArrivalProfile,
    ConfigError,
    DepartmentConfig,
    Durations,
    Horizon,
    Probabilities,
    StaffingPlan,
    TriangularParams,
    build_config,
    load_config,
)
from retailsim.department import DepartmentSim, strict, traced
from retailsim.experiments import run_sweep

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# Each config section and the record it is read into: the fields of
# DepartmentConfig after `label`, and their annotations.
RECORD_OF = typing.get_type_hints(DepartmentConfig)
RECORDS = {f.name: RECORD_OF[f.name] for f in dataclasses.fields(DepartmentConfig)[1:]}
CONFIG_KEYS = [
    (section, field) for section, record in RECORDS.items() for field in dataclasses.fields(record)
]

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

    [durations.patience]
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


def test_parser_reads_sections_scalars_and_comments_and_refuses_an_array(tmp_path):
    text = MINIMAL.replace('label = "TEST"', 'label = "X"  # trailing comment')
    text += textwrap.dedent(
        """\
        [horizon]
        trading_day_minutes = 480.5
        days = 7
        """
    )
    cfg = load_text(tmp_path, text)
    assert cfg.label == "X"
    assert cfg.horizon == Horizon(480.5, 7)
    # No key takes an array: each key is an int, a float or a duration.
    with pytest.raises(ConfigError, match=r"horizon\.days must be an integer, got \[7\]"):
        load_text(tmp_path, text.replace("days = 7", "days = [7]"), "array.toml")


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
    assert cfg.satisfaction_weights.refund_queue_abandoned == -4


def test_shipped_ww_contrasts_with_atv(atv_config, ww_config):
    # The two departments differ only in data; WW sees more, faster traffic.
    assert ww_config.label == "WW"
    assert ww_config.arrivals.rate_per_hour > atv_config.arrivals.rate_per_hour
    assert ww_config.probabilities.need_help < atv_config.probabilities.need_help
    assert ww_config.probabilities.buy_after_browse > atv_config.probabilities.buy_after_browse
    assert triangular_mean(ww_config.durations.help) < triangular_mean(atv_config.durations.help)


def test_shipped_configs_resolve_by_bare_name():
    for name in ("dept_atv.toml", "dept_ww.toml"):
        assert load_config(resolve_config_path(name)).staffing.total() == 10


# -- schema validation ----------------------------------------------------------


def test_minimal_config_defaults(tmp_path):
    cfg = load_text(tmp_path, MINIMAL)
    assert cfg.label == "TEST"
    # Omitted pieces fall back to documented defaults.
    assert cfg.durations.manager_authorization == TriangularParams(1.0, 3.0, 6.0)
    assert cfg.probabilities.refund_goal == 0.1
    assert cfg.probabilities.repurchase_after_refund == 0.3
    assert cfg.probabilities.needs_expert == 0.2
    assert cfg.empowerment.p_empowered == 1.0
    assert cfg.horizon == Horizon(600.0, 70)
    assert cfg.satisfaction_weights.purchase_completed == 2


def test_marginal_probability_rescaled():
    probs_marginal = load_probabilities(MINIMAL)
    assert probs_marginal.browse_buy_conditional() == pytest.approx(0.37 / (1 - 0.38))


def load_probabilities(text):
    return build_config(tomllib.loads(text), "inline").probabilities


def test_scalar_duration_becomes_constant(tmp_path):
    text = MINIMAL.replace(
        "[durations.pay_service]\nmin = 1\nmode = 3\nmax = 6\n",
        "[durations]\npay_service = 3\n",
    )
    assert text != MINIMAL
    cfg = load_text(tmp_path, text)
    assert cfg.durations.pay_service == TriangularParams(3.0, 3.0, 3.0)
    assert triangular_variance(cfg.durations.pay_service) == 0.0


def test_constant_table_duration_allowed(tmp_path):
    text = MINIMAL.replace("min = 1\nmode = 3\nmax = 6", "min = 3\nmode = 3\nmax = 3")
    cfg = load_text(tmp_path, text)
    assert cfg.durations.pay_service == TriangularParams(3.0, 3.0, 3.0)
    # The table and the bare number are one duration, so the records are equal.
    scalar = MINIMAL.replace(
        "[durations.pay_service]\nmin = 1\nmode = 3\nmax = 6\n",
        "[durations]\npay_service = 3\n",
    )
    assert load_text(tmp_path, scalar, "scalar.toml") == cfg


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
            lambda t: t + '\n[queues]\ncashier_priority = ["refund", "pay"]\n',
            "unknown key 'queues'",
        ),
        (
            lambda t: t + "\n[empowerment]\nhold_cashier_during_referral = true\n",
            "unknown key 'empowerment.hold_cashier_during_referral'",
        ),
        (
            lambda t: t + "\n[empowerment]\nmanager_overhead = 3\n",
            "unknown key 'empowerment.manager_overhead'",
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


def test_a_config_root_that_is_not_a_table_is_refused():
    with pytest.raises(ConfigError) as excinfo:
        build_config([], "x")
    assert str(excinfo.value) == "x: config root must be a table"


def test_error_messages_name_the_file(tmp_path):
    with pytest.raises(ConfigError, match="broken.toml"):
        load_text(tmp_path, MINIMAL.replace("mode = 7", "mode = 99"), name="broken.toml")


def test_managers_allowed_zero_when_fully_empowered(tmp_path):
    text = MINIMAL.replace("section_managers = 1", "section_managers = 0")
    cfg = load_text(tmp_path, text)
    assert cfg.staffing.section_managers == 0
    assert cfg.empowerment.p_empowered == 1.0


def test_referral_rule_holds_for_a_config_changed_in_code(tmp_path):
    cfg = load_text(tmp_path, MINIMAL.replace("section_managers = 1", "section_managers = 0"))
    referring = dataclasses.replace(cfg.empowerment, p_empowered=0.5)
    with pytest.raises(ValueError, match="p_empowered = 0.5 can refer refunds to a manager"):
        dataclasses.replace(cfg, empowerment=referring)
    staffed = dataclasses.replace(cfg.staffing, section_managers=1)
    both = dataclasses.replace(cfg, staffing=staffed, empowerment=referring)
    assert both.empowerment == referring


def test_horizon_validation():
    with pytest.raises(ValueError, match="at least 1 day"):
        Horizon(600.0, 0)
    with pytest.raises(ValueError, match="trading_day_minutes"):
        Horizon(0.0, 7)


def test_size_limits_sit_at_the_documented_constants():
    days = MAX_HORIZON_MINUTES // 600
    assert Horizon(600.0, days).days == days
    with pytest.raises(ValueError, match="horizon.days"):
        Horizon(600.0, days + 1)
    with pytest.raises(ValueError, match="horizon.days"):
        Horizon(1e-300, 10**400)  # too large for a float: no OverflowError
    assert StaffingPlan(MAX_STAFF_PER_ROLE, 0, 0, 0).total() == MAX_STAFF_PER_ROLE
    with pytest.raises(ValueError, match="staffing.expert_sellers must be at most"):
        StaffingPlan(1, 1, MAX_STAFF_PER_ROLE + 1, 1)
    assert ArrivalProfile(MAX_ARRIVALS_PER_HOUR).rate_per_hour == MAX_ARRIVALS_PER_HOUR
    with pytest.raises(ValueError, match="arrivals.rate_per_hour must be at most 10000"):
        ArrivalProfile(MAX_ARRIVALS_PER_HOUR + 0.5)


def test_staffing_plan_validation():
    with pytest.raises(ValueError, match="staffing.normal_sellers must be >= 0, got -2"):
        StaffingPlan(1, -2, 1, 1)
    with pytest.raises(ValueError, match="staffing.cashiers must be an integer, got True"):
        StaffingPlan(True, 2, 1, 1)
    assert StaffingPlan(3, 5, 1, 1).total() == 10


# Records built in code, not read from TOML, may hold values the reader never
# gives; each such value is refused with the section and field it sits in.
NOT_NUMBERS = (None, True, "0.5", (0.5,))


def test_durations_built_in_code_name_a_value_that_is_not_a_duration(ww_config):
    durations = ww_config.durations
    for field in dataclasses.fields(Durations):
        for bad in (None, 5.0, (1.0, 2.0, 3.0)):
            with pytest.raises(ValueError, match=f"durations.{field.name} must be a Triang"):
                dataclasses.replace(durations, **{field.name: bad})
    fixed = TriangularParams(5.0, 5.0, 5.0)
    assert dataclasses.replace(durations, patience=fixed).patience is fixed


def test_probabilities_built_in_code_name_a_value_that_is_not_a_number(ww_config):
    probabilities = ww_config.probabilities
    for field in dataclasses.fields(Probabilities):
        for bad in NOT_NUMBERS:
            with pytest.raises(ValueError, match=f"probabilities.{field.name} must be a number"):
                dataclasses.replace(probabilities, **{field.name: bad})
    assert dataclasses.replace(probabilities, refund_goal=0).refund_goal == 0


def test_empowerment_built_in_code_names_a_value_that_is_not_a_number(ww_config):
    empowerment = ww_config.empowerment
    for name in ("p_empowered", "empowered_duration_multiplier"):
        for bad in NOT_NUMBERS:
            with pytest.raises(ValueError, match=f"empowerment.{name} must be a number"):
                dataclasses.replace(empowerment, **{name: bad})
    assert dataclasses.replace(empowerment, empowered_duration_multiplier=2) != empowerment


def test_arrivals_and_horizon_built_in_code_name_a_value_that_is_not_a_number():
    for bad in NOT_NUMBERS:
        with pytest.raises(ValueError, match="arrivals.rate_per_hour must be a number"):
            ArrivalProfile(bad)
        with pytest.raises(ValueError, match="horizon.trading_day_minutes must be a number"):
            Horizon(bad, 7)


@pytest.mark.parametrize("args, message", [
    ((None, 1.0, 2.0), "TriangularParams.low must be a number, got None"),
    (("1", "2", "3"), "TriangularParams.low must be a number, got '1'"),
    ((0.0, 1.0, math.inf), "TriangularParams.high must be finite, got inf"),
    ((0.0, math.nan, 1.0), "TriangularParams.mode must be finite, got nan"),
])
def test_durations_built_in_code_name_a_bound_that_is_not_a_number(args, message):
    with pytest.raises(ValueError) as excinfo:
        TriangularParams(*args)
    assert str(excinfo.value) == message


def test_probabilities_validation():
    base = Probabilities(0.38, 0.37, 0.56)
    assert (base.refund_goal, base.repurchase_after_refund, base.needs_expert) == (0.1, 0.3, 0.2)
    dataclasses.replace(base, need_help=0.0, buy_after_help=1.0, refund_goal=1.0)
    for field in dataclasses.fields(Probabilities):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError, match=f"probabilities.{field.name} must be in"):
                dataclasses.replace(base, **{field.name: bad})
        # NaN is refused by the kind check a loaded value also passes.
        with pytest.raises(ValueError) as excinfo:
            dataclasses.replace(base, **{field.name: math.nan})
        assert str(excinfo.value) == f"probabilities.{field.name} must be finite, got nan"
    with pytest.raises(ValueError, match="sum to at most 1"):
        dataclasses.replace(base, need_help=0.6, buy_after_browse=0.5)
    # Everyone who browses wants help, so nobody buys unassisted.
    assert dataclasses.replace(
        base, need_help=1.0, buy_after_browse=0.0
    ).browse_buy_conditional() == 0.0


# -- configuration reference ----------------------------------------------------


def readme_reference():
    """{`section.key`: (default cell, bound cell)} from the README's config table."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows[cells[0].strip("`")] = (cells[1], cells[2])
    return rows


def toml_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(toml_text, value)) + "]"
    return "{ " + ", ".join(f"{k} = {toml_text(v)}" for k, v in value.items()) + " }"


def test_readme_reference_lists_every_key_with_its_default():
    rows = readme_reference()
    assert rows["label"][0] == "required"
    for section, field in CONFIG_KEYS:
        key = f"{section}.{field.name}"
        assert key in rows, f"README configuration reference lacks `{key}`"
        default, bound = rows[key]
        if field.default is dataclasses.MISSING:
            assert default == "required", key
        elif isinstance(field.default, (int, float)):
            assert default == f"`{toml_text(field.default)}`", key
    documented = {key.split(".")[0] for key in rows} - {"label"}
    assert documented == set(RECORDS)


# -- fuzzing --------------------------------------------------------------------


def write_toml(path, root):
    lines = [f"{k} = {toml_text(v)}" for k, v in root.items() if not isinstance(v, dict)]
    for section, table in root.items():
        if isinstance(table, dict):
            lines.append(f"[{section}]")
            lines += [f"{k} = {toml_text(v)}" for k, v in table.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def durations():
    number = st.floats(0.0, 30.0) | st.integers(0, 30)
    spread = st.lists(number, min_size=3, max_size=3).map(
        lambda v: dict(zip(("min", "mode", "max"), sorted(v)))
    )
    return number | spread


def valid_value(section, field):
    """Values inside the record's bounds; days stay small so the clock is exact."""
    if section == "satisfaction_weights":
        return st.integers(-5, 5)
    if field.type == "TriangularParams":
        return durations()
    if field.type == "int":
        return st.integers(1, 400) if field.name == "days" else st.integers(0, 3)
    positive = {"trading_day_minutes": 600.0, "empowered_duration_multiplier": 4.0}
    if field.name in positive:
        return st.floats(0.0, positive[field.name], exclude_min=True)
    return st.floats(0.0, 90.0 if field.name == "rate_per_hour" else 1.0)


@st.composite
def valid_configs(draw):
    root = {"label": draw(st.text("ABCWTV&", min_size=1, max_size=6))}
    for section, field in CONFIG_KEYS:
        if field.default is dataclasses.MISSING or draw(st.booleans()):
            root.setdefault(section, {})[field.name] = draw(valid_value(section, field))
    probs = root["probabilities"]
    assume(probs["need_help"] + probs["buy_after_browse"] <= 1.0)
    if root["staffing"]["section_managers"] == 0:
        assume(root.get("empowerment", {}).get("p_empowered", 1.0) == 1.0)
    return root


def expected_value(field, value):
    if field.type == "TriangularParams":
        if not isinstance(value, dict):
            value = dict.fromkeys(("min", "mode", "max"), value)
        return TriangularParams(*(float(value[k]) for k in ("min", "mode", "max")))
    if field.type == "float":
        return float(value)
    return value


FUZZ = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def load_root(root):
    """The config that `root`, written as a TOML file, loads to."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.toml"
        write_toml(path, root)
        return load_config(path)


@FUZZ
@given(valid_configs(), st.integers(0, 2**63 - 1))
def test_fuzzed_valid_configs_load_and_run(root, seed):
    config = load_root(root)
    for section, field in CONFIG_KEYS:
        value = getattr(getattr(config, section), field.name)
        if field.name in root.get(section, {}):
            expected = expected_value(field, root[section][field.name])
        else:
            expected = field.default
        assert value == expected and type(value) is type(expected), (section, field.name)
    one_day = dataclasses.replace(
        config, horizon=Horizon(config.horizon.trading_day_minutes, 1)
    )
    metrics = DepartmentSim(one_day, seed=seed).run(strict)
    assert metrics.customers_entered == metrics.customers_left


def check_pickle_round_trip(config):
    """A config pickles to an equal one, its durations' derived fields included."""
    restored = pickle.loads(pickle.dumps(config))
    assert restored == config
    for f in dataclasses.fields(config.durations):
        got, want = getattr(restored.durations, f.name), getattr(config.durations, f.name)
        assert (got.span, got.left, got.right) == (want.span, want.left, want.right), f.name


@FUZZ
@given(valid_configs())
def test_fuzzed_configs_pickle_to_themselves(root):
    check_pickle_round_trip(load_root(root))


def test_packaged_configs_pickle_to_themselves(atv_config, ww_config):
    check_pickle_round_trip(atv_config)
    check_pickle_round_trip(ww_config)


def test_unpickling_builds_each_record_with_its_constructor(monkeypatch, ww_config):
    # So a parallel sweep's worker reads a config laid out like a loaded one.
    data = pickle.dumps(ww_config)
    built = []
    post_init = TriangularParams.__post_init__

    def spy(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(TriangularParams, "__post_init__", spy)
    restored = pickle.loads(data)
    durations = [getattr(restored.durations, f.name) for f in dataclasses.fields(Durations)]
    assert {id(p) for p in built} == {id(p) for p in durations}


def test_an_unpickled_record_checks_its_bounds():
    data = pickle.dumps(TriangularParams(0.5, 2.0, 4.0))
    low = struct.pack(">d", 0.5)  # pickle writes a float as 8 big-endian bytes
    assert data.count(low) == 1
    with pytest.raises(ValueError, match="low <= mode <= high, got \\(9.0, 2.0, 4.0\\)"):
        pickle.loads(data.replace(low, struct.pack(">d", 9.0)))


# The metamorphic relations of test_department.py and test_experiments.py,
# over fuzzed configs on 1- to 3-day horizons: a shorter horizon replays the
# start of a longer one; without refunds the empowerment policy changes
# nothing; at full empowerment neither does an extra section manager; and a
# sweep with fewer replications gives the leading rows of one with more.
SEEDS = st.integers(0, 2**63 - 1)


@FUZZ
@given(valid_configs(), SEEDS, st.integers(1, 2), st.integers(1, 2))
def test_fuzzed_configs_replay_a_shorter_horizon_as_a_prefix(root, seed, days, more):
    config = load_root(root)
    short, longer = [], []
    DepartmentSim(shorten(config, days), seed=seed).run(traced(short, strict))
    DepartmentSim(shorten(config, days + more), seed=seed).run(traced(longer, strict))
    assert short[-1] == (days * config.horizon.trading_day_minutes, "day_close", None)
    assert longer[: len(short)] == short


@FUZZ
@given(valid_configs(), SEEDS, st.integers(1, 3))
def test_fuzzed_configs_without_refunds_ignore_the_empowerment_policy(root, seed, days):
    config = load_root(root)
    no_refunds = dataclasses.replace(config.probabilities, refund_goal=0.0)
    base = dataclasses.replace(shorten(config, days), probabilities=no_refunds)
    # Without a section manager only full empowerment is a valid policy.
    shares = (0.0, 0.5, 1.0) if base.staffing.section_managers else (1.0,)
    variants = [
        dataclasses.replace(base, empowerment=dataclasses.replace(base.empowerment, p_empowered=p))
        for p in shares
    ]
    runs = [DepartmentSim(variant, seed=seed).run(strict) for variant in variants]
    assert all(metrics == runs[0] for metrics in runs[1:])
    assert runs[0].refunds_completed == runs[0].abandoned_refund == 0


@FUZZ
@given(valid_configs(), SEEDS, st.integers(1, 3))
def test_fuzzed_configs_at_full_empowerment_ignore_an_extra_manager(root, seed, days):
    config = shorten(load_root(root), days)
    base = dataclasses.replace(
        config, empowerment=dataclasses.replace(config.empowerment, p_empowered=1.0)
    )
    staffing = base.staffing
    variants = [
        base,
        dataclasses.replace(base, staffing=dataclasses.replace(
            staffing, section_managers=staffing.section_managers + 1)),
    ]
    runs = [DepartmentSim(variant, seed=seed).run(strict) for variant in variants]
    # No manager ever works, so manager utilization is 0, or empty with none.
    assert runs[1].manager_utilization == 0.0
    assert runs[0].manager_utilization in (0.0, None)
    runs = [dataclasses.replace(m, manager_utilization=None) for m in runs]
    assert all(metrics == runs[0] for metrics in runs[1:])
    assert runs[0].manager_authorizations == 0


@FUZZ
@given(valid_configs(), SEEDS, st.integers(1, 3), st.sampled_from(["cashiers", "empowerment"]))
def test_fuzzed_sweeps_with_fewer_replications_give_the_leading_rows(root, seed, days, experiment):
    config = shorten(load_root(root), days)
    # The empowerment levels below 1 need a section manager to refer to.
    assume(experiment == "cashiers" or config.staffing.section_managers > 0)
    configs = {config.label: config}
    two = run_sweep(experiment, configs, replications=2, base_seed=seed)
    three = run_sweep(experiment, configs, replications=3, base_seed=seed)
    assert len(three) == 15
    assert two == [row for row in three if row.replication <= 2]


def wrong_types(field):
    """TOML values of a type the field cannot be read from."""
    if field.type == "TriangularParams":
        return ["3", True, [1.0], {"value": 1}, {"min": 1.0, "mode": 2.0}]
    return ["3", True, [1.0], {"value": 1}]


def out_of_bound(section, field):
    """A value of the right TOML type that the field's bounds reject."""
    if section == "satisfaction_weights":
        return st.sampled_from(wrong_types(field))  # every weight is in bounds
    if field.type == "int":
        return st.integers(max_value=-1) | st.integers(MAX_HORIZON_MINUTES + 1, 2**63 - 1)
    bad_number = st.floats(max_value=-1e-300) | st.sampled_from([math.nan, math.inf])
    if field.name == "rate_per_hour":
        bad_number |= st.floats(MAX_ARRIVALS_PER_HOUR, 1e300, exclude_min=True)
    if field.type == "float":
        return bad_number
    number = st.floats(0.0, 30.0)
    return st.one_of(
        bad_number,
        st.tuples(bad_number, number).map(lambda v: {"min": v[0], "mode": v[1], "max": 31.0}),
        number.map(lambda low: {"min": low, "mode": low + 2.0, "max": low + 1.0}),
    )


def check_rejected(root, where):
    """`root` fails to load naming the file and `where`; validate exits 2 with it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.toml"
        write_toml(path, root)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert main(["validate", "--config", str(path)]) == 2
    message = str(excinfo.value)
    assert message.startswith("fuzz.toml: ") and where in message, message
    assert stderr.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize(
    "section, field", CONFIG_KEYS, ids=[f"{section}.{f.name}" for section, f in CONFIG_KEYS]
)
@settings(FUZZ, max_examples=2)
@given(data=st.data())
def test_fuzzed_corruptions_name_the_file_and_field(section, field, data):
    """Each wrong TOML type, a value out of bounds and an unknown key, one at a time."""
    valid = data.draw(valid_configs())
    names = {f.name for f in dataclasses.fields(RECORDS[section])}
    unknown = data.draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(
        lambda key: key not in names
    ))
    corruptions = [(field.name, bad) for bad in wrong_types(field)]
    corruptions += [(field.name, data.draw(out_of_bound(section, field))), (unknown, 1)]
    for key, bad in corruptions:
        root = copy.deepcopy(valid)
        root.setdefault(section, {})[key] = bad
        check_rejected(root, f"{section}.{key}")
