#!/usr/bin/env python3
"""Electroform a pristine 20x20 array, one device at a time in row-major order.

Pristine cells conduct only through their megohm-scale virgin resistance.
The automated procedure sweeps an increasing current ceiling until the
low-voltage read current jumps by the required ratio, resets each fresh
device to its low-conductance state, and records anything unformable after
two escalation rounds as defective.  Between a device's rounds every formed
device of the array is reset again.  The simulator computes this flow for
all cells at once, on the cell array.
"""

import os
from collections import Counter

import numpy as np

from xbarsim import DeviceVariationSpec, FormingSpec, build_crossbar, form_all
from xbarsim.crossbar import write_json

OUT = os.path.join(os.path.dirname(__file__), "out", "forming")
os.makedirs(OUT, exist_ok=True)

xbar = build_crossbar(20, 20, DeviceVariationSpec(), seed=2024, pristine=True)
pristine = xbar.conductances()
print(f"pristine read conductances: {pristine.min()*1e6:.2f}..{pristine.max()*1e6:.2f} uS")

spec = FormingSpec()
report = form_all(xbar, spec)
write_json(report, os.path.join(OUT, "forming_report.json"))

statuses = Counter(e["status"] for e in report["devices"])
attempts = np.array([e["attempts"] for e in report["devices"]])
print("\n== forming outcomes over 400 cells ==")
for status, count in sorted(statuses.items()):
    print(f"{status:10s} {count:4d}")
print(f"defective fraction: {report['defective_fraction']:.2%}")
print(f"sweep attempts: median {np.median(attempts):.0f}, max {attempts.max()}")

formed = xbar.conductances()
live = ~xbar.stuck_map()
print(f"\npost-forming conductances (live cells): "
      f"{formed[live].min()*1e6:.2f}..{formed[live].max()*1e6:.2f} uS "
      f"(reset to the low state, ready for tuning)")
print(f"wrote {OUT}/forming_report.json")
