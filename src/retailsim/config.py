"""Department configuration: a config is its sections, one record each.

Config files are TOML, read with tomllib; of the package this module imports
only `records`, so the schema loads without the model. Each field of
`DepartmentConfig` after `label` is a section, read into the frozen record
below that its annotation names. A record's fields are its section's keys,
their defaults those of omitted keys. Every key is an int, a float or a
duration (`TriangularParams`: a min/mode/max table, or a bare number for a
fixed one), and `_read` is the one check of each kind: the reader, `_record`,
makes it of each key, and each record of its own numbers (`Durations` takes
only `TriangularParams`) before `_require` checks their bounds. So a config
built in code, as each parallel sweep cell's is in its worker, passes the
loaded one's checks. The rule across sections, that referred refunds need a
manager on staff, is `DepartmentConfig.__post_init__`. Every record is a
`records.Record`, which pickles as a call to its constructor. Numbers must be
finite; errors name the field, and `build_config` the file.
"""

from __future__ import annotations

import os
import sys
import tomllib
from dataclasses import MISSING, fields

from .records import Record

# The clock is a float in minutes: beyond 2**53 it no longer holds every whole
# minute exactly, so a longer horizon (or more days than that) is rejected.
MAX_HORIZON_MINUTES = 2**53
# Ceiling on each role's headcount. The model keeps one agent per staff member
# and scans a role's staff whenever a customer needs one; real departments
# field a handful.
MAX_STAFF_PER_ROLE = 1000
# Ceiling on the arrival rate. Each arrival is a customer agent and a few
# events, so a typo such as 1e16 would never finish a day, not merely run
# slowly; the shipped departments take 40 and 80 an hour.
MAX_ARRIVALS_PER_HOUR = 10_000


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; message names field and file."""


def _check_known(table, known, path):
    unknown = sorted(set(table) - set(known))
    if unknown:
        raise ValueError(f"unknown key {f'{path}.{unknown[0]}'!r}")


def _read(value, kind, where):
    """`value` as the annotated `kind` of the field at `where`: int, float or duration.

    The reader calls it on each key, and `_check_kinds` on each int and float
    field of a record, so a record built in code passes the loaded one's checks.
    """
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{where} must be an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, infinity, or an int beyond float range
            raise ValueError(f"{where} must be finite, got {value}")
        return float(value)
    # kind == "TriangularParams": {min, mode, max}, or a bare number v for (v, v, v).
    if not isinstance(value, dict):
        v = _read(value, "float", where)
        return TriangularParams(v, v, v)
    keys = ("min", "mode", "max")
    _check_known(value, keys, where)
    missing = [key for key in keys if key not in value]
    if missing:
        raise ValueError(f"missing required key {where}.{missing[0]}")
    low, mode, high = (_read(value[key], "float", f"{where}.{key}") for key in keys)
    try:
        return TriangularParams(low, mode, high)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _check_kinds(record, section):
    """Check each field of `record`, all ints or floats, as `_read` checks a key of [section]."""
    for f in fields(record):
        _read(getattr(record, f.name), f.type, f"{section}.{f.name}")


def _require(ok, where, value, rule):
    """Refuse `value`, the field at `where`, unless `ok`: the one wording of every bound."""
    if not ok:
        raise ValueError(f"{where} must be {rule}, got {value!r}")


# ---------------------------------------------------------------------------
# Schema: one record per TOML section


class TriangularParams(Record):
    """Three-point duration estimate (minutes): low <= mode <= high.

    low == high is a fixed duration. `span`, `left` and `right` (high - low,
    mode - low, high - mode) are derived once for the sampler, not fields.
    """

    low: float
    mode: float
    high: float

    def __post_init__(self):
        _check_kinds(self, "TriangularParams")
        _require(self.low <= self.mode <= self.high, "TriangularParams",
                 (self.low, self.mode, self.high), "ordered low <= mode <= high")
        object.__setattr__(self, "span", self.high - self.low)
        object.__setattr__(self, "left", self.mode - self.low)
        object.__setattr__(self, "right", self.high - self.mode)


class ArrivalProfile(Record):
    """Poisson arrival intensity, read from [arrivals]; rate 0 keeps the door shut."""

    rate_per_hour: float

    def __post_init__(self):
        _check_kinds(self, "arrivals")
        rate = self.rate_per_hour
        _require(rate >= 0, "arrivals.rate_per_hour", rate, ">= 0")
        _require(rate <= MAX_ARRIVALS_PER_HOUR, "arrivals.rate_per_hour", rate,
                 f"at most {MAX_ARRIVALS_PER_HOUR}")


class StaffingPlan(Record):
    """Headcount of each role, read from [staffing]."""

    cashiers: int
    normal_sellers: int
    expert_sellers: int
    section_managers: int

    def __post_init__(self):
        _check_kinds(self, "staffing")
        for f in fields(self):
            v, where = getattr(self, f.name), f"staffing.{f.name}"
            _require(v >= 0, where, v, ">= 0")
            _require(v <= MAX_STAFF_PER_ROLE, where, v, f"at most {MAX_STAFF_PER_ROLE}")

    def total(self):
        return sum(getattr(self, f.name) for f in fields(self))


class Durations(Record):
    """Triangular durations in minutes; `patience` is the wait before reneging from any queue."""

    browse: TriangularParams
    help: TriangularParams
    pay_service: TriangularParams
    refund_service: TriangularParams
    patience: TriangularParams
    manager_authorization: TriangularParams = TriangularParams(1.0, 3.0, 6.0)

    def __post_init__(self):
        for f in fields(self):
            params, where = getattr(self, f.name), f"durations.{f.name}"
            _require(isinstance(params, TriangularParams), where, params, "a TriangularParams")
            # low <= mode <= high holds already, so this bounds all three.
            _require(params.low >= 0, f"{where}.min", params.low, ">= 0")


class Probabilities(Record):
    """Branching probabilities of the customer statechart, read from [probabilities].

    buy_after_browse is the marginal share of browsers who buy unassisted, so
    need_help + buy_after_browse is at most 1.
    """

    need_help: float
    buy_after_browse: float
    buy_after_help: float
    refund_goal: float = 0.1
    repurchase_after_refund: float = 0.3
    needs_expert: float = 0.2

    def __post_init__(self):
        _check_kinds(self, "probabilities")
        for f in fields(self):
            p = getattr(self, f.name)
            _require(0.0 <= p <= 1.0, f"probabilities.{f.name}", p, "in [0, 1]")
        _require(self.need_help + self.buy_after_browse <= 1.0,
                 "probabilities.need_help and probabilities.buy_after_browse",
                 (self.need_help, self.buy_after_browse), "shares that sum to at most 1")

    def browse_buy_conditional(self):
        """P(buy | browsed, no help wanted): buy_after_browse rescaled by the non-help share."""
        if self.need_help >= 1.0:
            return 0.0
        return self.buy_after_browse / (1.0 - self.need_help)


class Horizon(Record):
    """Length of a replication: `days` trading days of `trading_day_minutes` each."""

    trading_day_minutes: float = 600.0
    days: int = 70

    def __post_init__(self):
        _check_kinds(self, "horizon")
        minutes, days = self.trading_day_minutes, self.days
        _require(minutes > 0, "horizon.trading_day_minutes", minutes, "> 0")
        _require(days >= 1, "horizon.days", days, "at least 1 day")
        # The first test keeps the product below float overflow.
        _require(days <= MAX_HORIZON_MINUTES and days * minutes <= MAX_HORIZON_MINUTES,
                 "horizon.days x horizon.trading_day_minutes", (days, minutes),
                 "at most 2**53 minutes")


class SatisfactionWeights(Record):
    """Points per `SatisfactionEvent`, one field for each, named in lower case."""

    purchase_completed: int = 2
    help_received: int = 1
    refund_granted: int = 2
    help_queue_abandoned: int = -2
    pay_queue_abandoned: int = -3
    refund_queue_abandoned: int = -4
    left_without_purchase: int = 0

    def __post_init__(self):
        _check_kinds(self, "satisfaction_weights")


class EmpowermentPolicy(Record):
    """How refunds are authorized, read from [empowerment].

    With probability p_empowered the serving cashier settles the refund alone
    (duration scaled by empowered_duration_multiplier); otherwise it is
    referred to a section manager. The cashier stays with a referred refund
    through the wait for a manager and the authorization, then does the
    refund service.
    """

    p_empowered: float = 1.0
    empowered_duration_multiplier: float = 1.0

    def __post_init__(self):
        _check_kinds(self, "empowerment")
        p, multiplier = self.p_empowered, self.empowered_duration_multiplier
        _require(0.0 <= p <= 1.0, "empowerment.p_empowered", p, "in [0, 1]")
        _require(multiplier > 0, "empowerment.empowered_duration_multiplier", multiplier, "> 0")


class DepartmentConfig(Record):
    """One department: its label, then one record per config section."""

    label: str
    arrivals: ArrivalProfile
    durations: Durations
    probabilities: Probabilities
    satisfaction_weights: SatisfactionWeights
    staffing: StaffingPlan
    empowerment: EmpowermentPolicy
    horizon: Horizon

    def __post_init__(self):
        if self.staffing.section_managers == 0 and self.empowerment.p_empowered < 1.0:
            raise ValueError(
                f"empowerment.p_empowered = {self.empowerment.p_empowered} can refer refunds "
                f"to a manager but staffing.section_managers is 0"
            )


# ---------------------------------------------------------------------------
# Reader


def _record(cls, root, section):
    """Read [section] into the record `cls`, taking the section out of `root`.

    The fields of `cls` are the section's keys; an omitted key takes its
    field's default.
    """
    present = section in root
    table = root.pop(section, {})
    if not isinstance(table, dict):
        raise ValueError(f"[{section}] must be a section, got {table!r}")
    keys = fields(cls)
    _check_known(table, [f.name for f in keys], section)
    values = {}
    for f in keys:
        where = f"{section}.{f.name}"
        if f.name in table:
            values[f.name] = _read(table[f.name], f.type, where)
        elif f.default is MISSING:
            missing = f"key {where}" if present else f"section [{section}]"
            raise ValueError(f"missing required {missing}")
    return cls(**values)


def build_config(root, source="<config>"):
    """Validate a parsed config tree and build the DepartmentConfig; a fault names `source`."""
    try:
        if not isinstance(root, dict):
            raise ValueError("config root must be a table")
        rest = dict(root)  # each record takes its section; what is left is unknown
        label = rest.pop("label", None)
        if not isinstance(label, str) or not label:
            raise ValueError("top-level 'label' must be a non-empty string")
        # A section's annotation is the name of its record class in this module.
        sections = {
            f.name: _record(globals()[f.type], rest, f.name)
            for f in fields(DepartmentConfig)[1:]
        }
        if rest:
            raise ValueError(f"unknown key {min(rest)!r}")
        return DepartmentConfig(label, **sections)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path):
    """Read, parse, and validate a department config file."""
    source = os.path.basename(str(path))
    try:
        with open(path, "rb") as fh:
            root = tomllib.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return build_config(root, source)
