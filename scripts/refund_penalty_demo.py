#!/usr/bin/env python3
"""Walk one refund-seeking customer through a department with no cashiers.

The customer queues for a refund that nobody can process, runs out of
patience, and leaves; the run ends with overall satisfaction exactly -4
(the refund-abandonment penalty). Prints the event trace and the ledger.
"""

import tomllib

from retailsim.agents import SatisfactionEvent
from retailsim.config import build_config
from retailsim.department import DepartmentSim

CONFIG = """\
label = "DEMO"

[arrivals]
rate_per_hour = 0

[durations]
browse = 2
help = 3
pay_service = 1
refund_service = 2
manager_authorization = 3
patience = 8

[probabilities]
need_help = 0.0
buy_after_browse = 1.0
buy_after_help = 1.0
refund_goal = 1.0
repurchase_after_refund = 0.0
needs_expert = 0.0

[staffing]
cashiers = 0
normal_sellers = 0
expert_sellers = 0
section_managers = 0

[empowerment]
p_empowered = 1.0
empowered_duration_multiplier = 1.0

[horizon]
trading_day_minutes = 60
days = 1
"""


def main():
    config = build_config(tomllib.loads(CONFIG), "demo")
    trace = []
    sim = DepartmentSim(config, seed=0, strict=True, trace=trace)
    sim.inject_arrival(5.0)
    metrics = sim.run()

    print("event trace (minute, event, customer):")
    for time, event, cid in trace:
        who = "-" if cid is None else f"#{cid}"
        print(f"  {time:6.1f}  {event:<14} {who}")
    print()
    print("satisfaction ledger (event counts):")
    for kind, count in zip(SatisfactionEvent, sim.event_counts):
        if count:
            print(f"  {kind.name}: {count}")
    print(f"  total: {sim.ledger_sum:+d}")
    print()
    print(f"abandoned refunds:     {metrics.abandoned_refund}")
    print(f"overall satisfaction:  {metrics.overall_satisfaction:+d}")


if __name__ == "__main__":
    main()
