"""Department configuration: file format, schema validation, dataclasses.

Config files are TOML, read with the standard library's tomllib. The schema
is checked here, and every error names the offending field and file.

Durations may be given either as a table with min/mode/max (a `[section]` or
an inline `{ min = 1, mode = 3, max = 6 }`) or as a single number for a fixed
duration. Every number must be finite, and durations must be >= 0.
"""

from __future__ import annotations

import logging
import os
import sys
import tomllib
from dataclasses import dataclass

from .agents import SatisfactionWeights
from .queueing import EmpowermentPolicy
from .sampling import ArrivalProfile, DecisionProb, TriangularParams

log = logging.getLogger("retailsim.config")

_MISSING = object()

# The clock is a float in minutes: beyond 2**53 it no longer holds every whole
# minute exactly, so a longer horizon (or more days than that) is rejected.
MAX_HORIZON_MINUTES = 2**53
# Ceiling on each role's headcount. The model keeps one agent per staff member
# and scans a role's staff whenever a customer needs one; real departments
# field a handful.
MAX_STAFF_PER_ROLE = 1000


class ConfigError(ValueError):
    """Malformed or inconsistent configuration; message names field and file."""


# ---------------------------------------------------------------------------
# Schema


@dataclass(frozen=True)
class StaffingPlan:
    cashiers: int
    normal_sellers: int
    expert_sellers: int
    section_managers: int

    def __post_init__(self):
        for name in ("cashiers", "normal_sellers", "expert_sellers", "section_managers"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ValueError(f"staffing.{name} must be a non-negative integer, got {v!r}")
            if v > MAX_STAFF_PER_ROLE:
                raise ValueError(
                    f"staffing.{name} must be at most {MAX_STAFF_PER_ROLE}, got {v}"
                )

    def total(self):
        return (
            self.cashiers
            + self.normal_sellers
            + self.expert_sellers
            + self.section_managers
        )


@dataclass(frozen=True)
class Durations:
    browse: TriangularParams
    help: TriangularParams
    pay_service: TriangularParams
    refund_service: TriangularParams
    manager_authorization: TriangularParams
    patience_pay: TriangularParams
    patience_help: TriangularParams
    patience_refund: TriangularParams


@dataclass(frozen=True)
class Probabilities:
    need_help: float
    buy_after_browse: float
    buy_after_help: float
    refund_goal: float
    repurchase_after_refund: float
    needs_expert: float
    buy_after_browse_is_marginal: bool

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


@dataclass(frozen=True)
class Horizon:
    trading_day_minutes: float
    days: int

    def __post_init__(self):
        if not (self.trading_day_minutes > 0):
            raise ValueError(
                f"horizon.trading_day_minutes must be > 0, got {self.trading_day_minutes}"
            )
        if isinstance(self.days, bool) or not isinstance(self.days, int) or self.days < 1:
            raise ValueError(f"horizon must cover at least 1 day, got days={self.days!r}")
        # The first test keeps the product below float overflow.
        if (
            self.days > MAX_HORIZON_MINUTES
            or self.days * self.trading_day_minutes > MAX_HORIZON_MINUTES
        ):
            raise ValueError(
                f"horizon.days x horizon.trading_day_minutes must be at most 2**53 "
                f"minutes, got days={self.days} of {self.trading_day_minutes:g} minutes"
            )


@dataclass(frozen=True)
class DepartmentConfig:
    label: str
    arrivals: ArrivalProfile
    durations: Durations
    probabilities: Probabilities
    weights: SatisfactionWeights
    staffing: StaffingPlan
    empowerment: EmpowermentPolicy
    horizon: Horizon
    cashier_priority: tuple = ("refund", "pay")


# ---------------------------------------------------------------------------
# Builders


def _check_known(table, known, path, source):
    unknown = sorted(set(table) - set(known))
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"{source}: unknown key {where!r}")


def _number(table, path, key, source, default=_MISSING, minimum=None):
    if key not in table:
        if default is _MISSING:
            raise ConfigError(f"{source}: missing required key {path}.{key}")
        return default
    v = table[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{source}: {path}.{key} must be a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # NaN, infinity, or an int beyond float range
        raise ConfigError(f"{source}: {path}.{key} must be finite, got {v}")
    if minimum is not None and not (v >= minimum):
        raise ConfigError(f"{source}: {path}.{key} must be >= {minimum}, got {v}")
    return float(v)


def _prob(table, path, key, source, default=_MISSING):
    v = _number(table, path, key, source, default=default)
    try:
        return DecisionProb(v).p
    except ValueError as exc:
        raise ConfigError(f"{source}: {path}.{key}: {exc}") from None


def _bool(table, path, key, source, default=_MISSING):
    if key not in table:
        if default is _MISSING:
            raise ConfigError(f"{source}: missing required key {path}.{key}")
        return default
    v = table[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{source}: {path}.{key} must be true or false, got {v!r}")
    return v


def _int(table, path, key, source, default=_MISSING):
    if key not in table:
        if default is _MISSING:
            raise ConfigError(f"{source}: missing required key {path}.{key}")
        return default
    v = table[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{source}: {path}.{key} must be an integer, got {v!r}")
    return v


def _section(root, name, source, required=True):
    if name not in root:
        if required:
            raise ConfigError(f"{source}: missing required section [{name}]")
        return None
    v = root[name]
    if not isinstance(v, dict):
        raise ConfigError(f"{source}: [{name}] must be a section, got {v!r}")
    return v


def _triangular(table, key, source):
    """Read durations.<key>: {min, mode, max} for a spread, a bare number for a constant."""
    value = table[key]
    if not isinstance(value, dict):
        return TriangularParams.constant(
            _number(table, "durations", key, source, minimum=0.0)
        )
    path = f"durations.{key}"
    _check_known(value, ("min", "mode", "max"), path, source)
    lo, mode, hi = (
        _number(value, path, k, source, minimum=0.0) for k in ("min", "mode", "max")
    )
    if lo == hi == mode:
        return TriangularParams.constant(lo)
    try:
        return TriangularParams(lo, mode, hi)
    except ValueError as exc:
        raise ConfigError(f"{source}: {path}: {exc}") from None


_TOP_LEVEL = ("label",)
_SECTIONS = (
    "arrivals",
    "durations",
    "probabilities",
    "satisfaction_weights",
    "staffing",
    "empowerment",
    "horizon",
    "queues",
)
_DURATION_KEYS = (
    "browse",
    "help",
    "pay_service",
    "refund_service",
    "manager_authorization",
    "patience_pay",
    "patience_help",
    "patience_refund",
)


def build_config(root, source="<config>"):
    """Validate a parsed config tree and build the DepartmentConfig."""
    if not isinstance(root, dict):
        raise ConfigError(f"{source}: config root must be a table")
    _check_known(root, _TOP_LEVEL + _SECTIONS, "", source)

    label = root.get("label")
    if not isinstance(label, str) or not label:
        raise ConfigError(f"{source}: top-level 'label' must be a non-empty string")

    arrivals_t = _section(root, "arrivals", source)
    _check_known(arrivals_t, ("rate_per_hour",), "arrivals", source)
    rate = _number(arrivals_t, "arrivals", "rate_per_hour", source, minimum=0.0)
    arrivals = ArrivalProfile(rate)

    durations_t = _section(root, "durations", source)
    _check_known(durations_t, _DURATION_KEYS, "durations", source)
    tri = {}
    for key in ("browse", "help", "pay_service", "refund_service", "patience_pay"):
        if key not in durations_t:
            raise ConfigError(f"{source}: missing required section [durations.{key}]")
        tri[key] = _triangular(durations_t, key, source)
    for key, fallback, note in (
        ("patience_help", tri["patience_pay"], "pay-queue patience"),
        ("patience_refund", tri["patience_pay"], "pay-queue patience"),
        ("manager_authorization", TriangularParams(1.0, 3.0, 6.0), "tri(1, 3, 6)"),
    ):
        if key in durations_t:
            tri[key] = _triangular(durations_t, key, source)
        else:
            tri[key] = fallback
            log.info("%s: [durations.%s] omitted; defaulting to %s", source, key, note)
    durations = Durations(**tri)

    probs_t = _section(root, "probabilities", source)
    _check_known(
        probs_t,
        (
            "need_help",
            "buy_after_browse",
            "buy_after_help",
            "refund_goal",
            "repurchase_after_refund",
            "needs_expert",
            "buy_after_browse_is_marginal",
        ),
        "probabilities",
        source,
    )
    probabilities = Probabilities(
        need_help=_prob(probs_t, "probabilities", "need_help", source),
        buy_after_browse=_prob(probs_t, "probabilities", "buy_after_browse", source),
        buy_after_help=_prob(probs_t, "probabilities", "buy_after_help", source),
        refund_goal=_prob(probs_t, "probabilities", "refund_goal", source, default=0.1),
        repurchase_after_refund=_prob(
            probs_t, "probabilities", "repurchase_after_refund", source, default=0.3
        ),
        needs_expert=_prob(probs_t, "probabilities", "needs_expert", source, default=0.2),
        buy_after_browse_is_marginal=_bool(
            probs_t, "probabilities", "buy_after_browse_is_marginal", source, default=True
        ),
    )
    if (
        probabilities.buy_after_browse_is_marginal
        and probabilities.need_help + probabilities.buy_after_browse > 1.0
    ):
        raise ConfigError(
            f"{source}: probabilities.need_help + probabilities.buy_after_browse "
            f"exceed 1 ({probabilities.need_help} + {probabilities.buy_after_browse}); "
            f"marginal browse-exit probabilities must sum to at most 1"
        )

    weights_t = _section(root, "satisfaction_weights", source, required=False)
    if weights_t is None:
        weights = SatisfactionWeights.defaults()
        log.info("%s: [satisfaction_weights] omitted; using default weights", source)
    else:
        try:
            weights = SatisfactionWeights.from_mapping(weights_t)
        except ValueError as exc:
            raise ConfigError(f"{source}: satisfaction_weights: {exc}") from None

    staffing_t = _section(root, "staffing", source)
    _check_known(
        staffing_t,
        ("cashiers", "normal_sellers", "expert_sellers", "section_managers"),
        "staffing",
        source,
    )
    try:
        staffing = StaffingPlan(
            cashiers=_int(staffing_t, "staffing", "cashiers", source),
            normal_sellers=_int(staffing_t, "staffing", "normal_sellers", source),
            expert_sellers=_int(staffing_t, "staffing", "expert_sellers", source),
            section_managers=_int(staffing_t, "staffing", "section_managers", source),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None

    emp_t = _section(root, "empowerment", source, required=False)
    if emp_t is None:
        emp_t = {}
        log.info(
            "%s: [empowerment] omitted; defaulting to p_empowered = 1.0 "
            "(all refunds settled by the cashier)",
            source,
        )
    _check_known(
        emp_t,
        ("p_empowered", "hold_cashier_during_referral", "empowered_duration_multiplier"),
        "empowerment",
        source,
    )
    try:
        empowerment = EmpowermentPolicy(
            p_empowered=_prob(emp_t, "empowerment", "p_empowered", source, default=1.0),
            manager_overhead=durations.manager_authorization,
            hold_cashier_during_referral=_bool(
                emp_t, "empowerment", "hold_cashier_during_referral", source, default=True
            ),
            empowered_duration_multiplier=_number(
                emp_t, "empowerment", "empowered_duration_multiplier", source, default=1.0
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: empowerment: {exc}") from None

    horizon_t = _section(root, "horizon", source, required=False)
    if horizon_t is None:
        horizon_t = {}
        log.info("%s: [horizon] omitted; defaulting to 70 days of 600 minutes", source)
    _check_known(horizon_t, ("trading_day_minutes", "days"), "horizon", source)
    try:
        horizon = Horizon(
            trading_day_minutes=_number(
                horizon_t, "horizon", "trading_day_minutes", source, default=600.0
            ),
            days=_int(horizon_t, "horizon", "days", source, default=70),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: horizon: {exc}") from None

    queues_t = _section(root, "queues", source, required=False)
    cashier_priority = ("refund", "pay")
    if queues_t is not None:
        _check_known(queues_t, ("cashier_priority",), "queues", source)
        if "cashier_priority" in queues_t:
            v = queues_t["cashier_priority"]
            if not isinstance(v, list) or sorted(v) != ["pay", "refund"]:
                raise ConfigError(
                    f"{source}: queues.cashier_priority must be a permutation of "
                    f"['refund', 'pay'], got {v!r}"
                )
            cashier_priority = tuple(v)

    check_referrals(empowerment, staffing, source)

    return DepartmentConfig(
        label=label,
        arrivals=arrivals,
        durations=durations,
        probabilities=probabilities,
        weights=weights,
        staffing=staffing,
        empowerment=empowerment,
        horizon=horizon,
        cashier_priority=cashier_priority,
    )


def check_referrals(empowerment, staffing, source):
    """A policy that can refer refunds to a manager needs a manager on staff."""
    if staffing.section_managers == 0 and empowerment.p_empowered < 1.0:
        raise ConfigError(
            f"{source}: empowerment.p_empowered = {empowerment.p_empowered} can refer "
            f"refunds to a manager but staffing.section_managers is 0"
        )


def load_config(path):
    """Read, parse, and validate a department config file."""
    source = os.path.basename(str(path))
    try:
        with open(path, "rb") as fh:
            root = tomllib.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return build_config(root, source)
