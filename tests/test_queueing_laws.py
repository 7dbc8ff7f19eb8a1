"""Closed-form queueing laws on a single-cashier department, read from its trace.

The department is `dept_ww` cut down to one M/G/1 queue: one cashier and no
other staff, no help, no refunds, every browser buys, a fixed 2-minute browse,
a patience of 1e6 minutes (no one reneges) and one 20,000-minute day at 30
arrivals an hour. Customers then reach the pay queue as a Poisson stream
shifted by the browse: a customer's queue entry is the time of their
`browse_end` event, and their service end that of their `pay_end`. With one
server that never idles while a customer waits, in order of service ends,
each service starts at the later of the customer's entry and the previous
end (Lindley), whatever the queue discipline.

The oracles:
- Pollaczek-Khinchine: the mean wait is lambda E[S^2] / (2 (1 - rho)), for a
  fixed service D (M/D/1, where a service starts at its end minus D) and for a
  triangular one (M/G/1, E[S^2] from conftest's closed forms).
- PASTA: the share of customers who wait not at all is 1 - rho.
- FIFO, per customer: in order of entry, each service starts at the later of
  the entry and the previous end. The means above hold under any order of
  service, so only this check sees the queue discipline.
- The utilization law for one cashier with fixed D: the day close cuts off at
  most one service, so busy minutes lie in [D (transactions - 1), D
  transactions].
- Poisson arrivals: `customers_entered` over the day has mean and variance
  lambda T across seeds.

The seeds and bounds were fixed before the file was first run: M/D/1 at seeds
0-19, M/G/1 at seeds 20-39 (so that the 40 arrival counts are independent),
and every statistical check at Z = 4 standard errors, the standard error of a
mean wait taken from its spread across seeds. Each oracle fails at least one
of three mutants of the model: pay service scaled by 1.05, a LIFO pay queue,
and every arrival gap halved.

References: Pollaczek (1930), Khinchine (1932); Kleinrock (1975), Queueing
Systems vol. 1, ch. 5; Lindley (1952), Proc. Cambridge Phil. Soc. 48:277-289;
Wolff (1982), Poisson arrivals see time averages, Oper. Res. 30(2):223-231.
"""

import dataclasses
import math
import statistics

import pytest

from conftest import triangular_mean, triangular_variance
from retailsim.config import ArrivalProfile, Horizon, StaffingPlan, TriangularParams
from retailsim.department import DepartmentSim

LAMBDA = 0.5  # arrivals a minute: 30 an hour
DAY = 20_000.0  # minutes, one trading day
D = 1.2  # the fixed pay service of the M/D/1 runs
RHO = LAMBDA * D
PAY_SERVICE = TriangularParams(0.5, 1.0, 2.1)  # the M/G/1 runs' service, mean 1.2
MD1_SEEDS = range(0, 20)
MG1_SEEDS = range(20, 40)
Z = 4.0
ULPS = 4  # a zero wait can read -1.4e-14 at these clock values


def fixed(minutes):
    return TriangularParams(minutes, minutes, minutes)


def single_cashier(ww, pay_service):
    return dataclasses.replace(
        ww,
        arrivals=ArrivalProfile(LAMBDA * 60.0),
        durations=dataclasses.replace(
            ww.durations, browse=fixed(2.0), pay_service=pay_service, patience=fixed(1e6)
        ),
        probabilities=dataclasses.replace(
            ww.probabilities, need_help=0.0, refund_goal=0.0, buy_after_browse=1.0
        ),
        staffing=StaffingPlan(1, 0, 0, 0),
        # No manager is on staff, so no refund may be referred to one.
        empowerment=dataclasses.replace(ww.empowerment, p_empowered=1.0),
        horizon=Horizon(DAY, 1),
    )


@dataclasses.dataclass
class Run:
    entries: list  # pay-queue entry times, in order of service end
    ends: list  # service end times, ascending
    busy_minutes: float
    transactions: int
    customers_entered: int

    def starts(self):
        """Each service's start by Lindley: the later of its entry and the previous end."""
        previous = [-math.inf] + self.ends[:-1]
        return [max(entry, end) for entry, end in zip(self.entries, previous)]


def run(config, seed):
    trace = []
    sim = DepartmentSim(config, seed, trace=trace)
    metrics = sim.run()
    entry, end = {}, {}
    for t, event, cid in trace:
        if event == "browse_end":
            entry[cid] = t
        elif event == "pay_end":
            end[cid] = t
    served = sorted(end, key=end.__getitem__)
    return Run(
        [entry[cid] for cid in served], [end[cid] for cid in served],
        sim.cashiers[0].busy_minutes, metrics.transactions, metrics.customers_entered,
    )


@pytest.fixture(scope="module")
def md1_runs(ww_config):
    config = single_cashier(ww_config, fixed(D))
    return [run(config, seed) for seed in MD1_SEEDS]


@pytest.fixture(scope="module")
def mg1_runs(ww_config):
    config = single_cashier(ww_config, PAY_SERVICE)
    return [run(config, seed) for seed in MG1_SEEDS]


def md1_waits(r):
    return [end - D - entry for entry, end in zip(r.entries, r.ends)]


def assert_mean_within_z(samples, expected):
    mean = statistics.fmean(samples)
    se = statistics.stdev(samples) / math.sqrt(len(samples))
    assert abs(mean - expected) <= Z * se, (mean, se, expected)


def pollaczek_khinchine(second_moment, rho):
    return LAMBDA * second_moment / (2.0 * (1.0 - rho))


def test_md1_mean_wait_is_pollaczek_khinchine(md1_runs):
    expected = pollaczek_khinchine(D * D, RHO)
    assert expected == pytest.approx(0.9)
    assert_mean_within_z([statistics.fmean(md1_waits(r)) for r in md1_runs], expected)


def test_mg1_mean_wait_is_pollaczek_khinchine(mg1_runs):
    mean = triangular_mean(PAY_SERVICE)
    expected = pollaczek_khinchine(triangular_variance(PAY_SERVICE) + mean * mean, LAMBDA * mean)
    per_seed = []
    for r in mg1_runs:
        starts = r.starts()
        # Lindley's starts give back services that the configured duration can take.
        for start, end in zip(starts, r.ends):
            tol = ULPS * math.ulp(end)
            assert PAY_SERVICE.low - tol <= end - start <= PAY_SERVICE.high + tol
        per_seed.append(statistics.fmean(s - e for s, e in zip(starts, r.entries)))
    assert_mean_within_z(per_seed, expected)


def test_md1_share_served_without_waiting_is_one_minus_rho(md1_runs):
    shares = []
    for r in md1_runs:
        waits = md1_waits(r)
        zero = sum(abs(w) <= ULPS * math.ulp(end) for w, end in zip(waits, r.ends))
        shares.append(zero / len(waits))
    assert_mean_within_z(shares, 1.0 - RHO)


def test_fifo_single_server_follows_lindley_customer_by_customer(md1_runs, mg1_runs):
    for r in md1_runs:
        # In entry order, each service starts at the later of entry and previous end.
        previous = -math.inf
        for entry, end in sorted(zip(r.entries, r.ends)):
            assert abs((end - D) - max(entry, previous)) <= ULPS * math.ulp(end)
            previous = end
    for r in mg1_runs:
        assert r.entries == sorted(r.entries)  # served in order of entry


def test_busy_minutes_are_the_fixed_service_of_each_transaction(md1_runs):
    for r in md1_runs:
        # The day close credits the purchase it cuts off, but only its minutes so far.
        tol = 1e-9 * r.busy_minutes
        assert D * (r.transactions - 1) - tol <= r.busy_minutes <= D * r.transactions + tol


def test_customers_entered_is_poisson_with_mean_and_variance_lambda_t(md1_runs, mg1_runs):
    counts = [r.customers_entered for r in md1_runs + mg1_runs]
    n, lam_t = len(counts), LAMBDA * DAY
    assert abs(statistics.fmean(counts) - lam_t) <= Z * math.sqrt(lam_t / n)
    # (n - 1) s^2 / lambda T is chi-squared on n - 1 degrees of freedom; its
    # quantiles at -Z and +Z standard normal by Wilson-Hilferty.
    k = n - 1
    chi2 = [k * (1.0 - 2.0 / (9 * k) + z * math.sqrt(2.0 / (9 * k))) ** 3 for z in (-Z, Z)]
    assert chi2[0] <= k * statistics.variance(counts) / lam_t <= chi2[1]
