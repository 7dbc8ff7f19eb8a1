"""Department configuration: a config is its sections, one record each.

Config files are TOML, read with tomllib; of the package this module imports
only `records`, so the schema loads without the model. Each field of
`DepartmentConfig` after `label` is a section, read into the frozen record
below that its annotation names. A record's fields are its section's keys,
their defaults those of omitted keys, and its `__post_init__` holds every
bound and checks each float and bool field's kind with `_read`, the
check the one reader, `_record`, makes of each key: a config built in code,
as each parallel sweep cell's is in its worker, passes the loaded one's
checks. The rule across sections, that referred refunds need a manager on
staff, is `DepartmentConfig.__post_init__`. Every record is a
`records.Record`, which pickles as a call to its constructor. A duration
(`TriangularParams`) is a min/mode/max table or a bare number for a fixed
one. Numbers must be finite; errors name the field, and `build_config` the file.
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
    """`value` as the annotated `kind` of the field at `where`.

    The reader calls it on each key, and each record on its own fields. An
    int field's value is passed on as it is: its record checks its bounds.
    """
    if kind == "bool" and not isinstance(value, bool):
        raise ValueError(f"{where} must be true or false, got {value!r}")
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, infinity, or an int beyond float range
            raise ValueError(f"{where} must be finite, got {value}")
        return float(value)
    if not kind.startswith("TriangularParams"):
        return value
    # A duration: {min, mode, max}, or a bare number v for the fixed (v, v, v).
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
        for name in ("low", "mode", "high"):
            _read(getattr(self, name), "float", f"TriangularParams.{name}")
        if not (self.low <= self.mode <= self.high):
            raise ValueError(
                f"triangular params must satisfy low <= mode <= high, "
                f"got ({self.low}, {self.mode}, {self.high})"
            )
        object.__setattr__(self, "span", self.high - self.low)
        object.__setattr__(self, "left", self.mode - self.low)
        object.__setattr__(self, "right", self.high - self.mode)


class ArrivalProfile(Record):
    """Poisson arrival intensity, read from [arrivals]; rate 0 keeps the door shut."""

    rate_per_hour: float

    def __post_init__(self):
        _read(self.rate_per_hour, "float", "arrivals.rate_per_hour")
        if not self.rate_per_hour >= 0:
            raise ValueError(f"arrivals.rate_per_hour must be >= 0, got {self.rate_per_hour}")
        if self.rate_per_hour > MAX_ARRIVALS_PER_HOUR:
            raise ValueError(
                f"arrivals.rate_per_hour must be at most {MAX_ARRIVALS_PER_HOUR}, "
                f"got {self.rate_per_hour}"
            )


class StaffingPlan(Record):
    """Headcount of each role, read from [staffing]."""

    cashiers: int
    normal_sellers: int
    expert_sellers: int
    section_managers: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError(f"staffing.{f.name} must be a non-negative integer, got {v!r}")
            if v > MAX_STAFF_PER_ROLE:
                raise ValueError(
                    f"staffing.{f.name} must be at most {MAX_STAFF_PER_ROLE}, got {v}"
                )

    def total(self):
        return sum(getattr(self, f.name) for f in fields(self))


class Durations(Record):
    """Triangular durations in minutes; an omitted patience is patience_pay."""

    browse: TriangularParams
    help: TriangularParams
    pay_service: TriangularParams
    refund_service: TriangularParams
    patience_pay: TriangularParams
    manager_authorization: TriangularParams = TriangularParams(1.0, 3.0, 6.0)
    patience_help: TriangularParams | None = None
    patience_refund: TriangularParams | None = None

    def __post_init__(self):
        for f in fields(self):
            params = getattr(self, f.name)
            if params is None and f.default is None:
                params = self.patience_pay
                object.__setattr__(self, f.name, params)
            if not isinstance(params, TriangularParams):
                raise ValueError(f"durations.{f.name} must be a TriangularParams, got {params!r}")
            # low <= mode <= high holds already, so this bounds all three.
            if not params.low >= 0:
                raise ValueError(f"durations.{f.name}.min must be >= 0, got {params.low}")


class Probabilities(Record):
    """Branching probabilities of the customer statechart, read from [probabilities]."""

    need_help: float
    buy_after_browse: float
    buy_after_help: float
    refund_goal: float = 0.1
    repurchase_after_refund: float = 0.3
    needs_expert: float = 0.2
    buy_after_browse_is_marginal: bool = True

    def __post_init__(self):
        for f in fields(self):
            p = _read(getattr(self, f.name), f.type, f"probabilities.{f.name}")
            if f.type == "float" and not 0.0 <= p <= 1.0:
                raise ValueError(f"probabilities.{f.name} must lie in [0, 1], got {p}")
        if self.buy_after_browse_is_marginal and self.need_help + self.buy_after_browse > 1.0:
            raise ValueError(
                f"probabilities.need_help + probabilities.buy_after_browse "
                f"exceed 1 ({self.need_help} + {self.buy_after_browse}); "
                f"marginal browse-exit probabilities must sum to at most 1"
            )

    def browse_buy_conditional(self):
        """P(buy | browsed, no help wanted) implied by the configured reading.

        In the marginal reading buy_after_browse is the overall fraction of
        browsers who buy unassisted, so it is rescaled by the non-help share.
        """
        if not self.buy_after_browse_is_marginal:
            return self.buy_after_browse
        if self.need_help >= 1.0:
            return 0.0
        return self.buy_after_browse / (1.0 - self.need_help)


class Horizon(Record):
    """Length of a replication: `days` trading days of `trading_day_minutes` each."""

    trading_day_minutes: float = 600.0
    days: int = 70

    def __post_init__(self):
        _read(self.trading_day_minutes, "float", "horizon.trading_day_minutes")
        if not (self.trading_day_minutes > 0):
            raise ValueError(
                f"horizon.trading_day_minutes must be > 0, got {self.trading_day_minutes}"
            )
        if isinstance(self.days, bool) or not isinstance(self.days, int) or self.days < 1:
            raise ValueError(
                f"horizon.days must be a whole number of at least 1 day, got {self.days!r}"
            )
        # The first test keeps the product below float overflow.
        if (
            self.days > MAX_HORIZON_MINUTES
            or self.days * self.trading_day_minutes > MAX_HORIZON_MINUTES
        ):
            raise ValueError(
                f"horizon.days x horizon.trading_day_minutes must be at most 2**53 "
                f"minutes, got days={self.days} of {self.trading_day_minutes:g} minutes"
            )


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
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"satisfaction_weights.{f.name} must be an integer, got {v!r}")


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
        for f in fields(self):
            _read(getattr(self, f.name), f.type, f"empowerment.{f.name}")
        if not (0.0 <= self.p_empowered <= 1.0):
            raise ValueError(
                f"empowerment.p_empowered must lie in [0, 1], got {self.p_empowered}"
            )
        if not self.empowered_duration_multiplier > 0:
            raise ValueError(
                f"empowerment.empowered_duration_multiplier must be > 0, "
                f"got {self.empowered_duration_multiplier}"
            )


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
