#!/usr/bin/env python3
"""Tune a 20x20 array to a 256-gray-level smiley-face image at 5% tolerance.

Pixel gray levels map to conductance targets between 11.9 uS (white, 84 kOhm)
and 143 uS (black, 7 kOhm).  Every live device is driven by write-and-verify
pulses until its read-back conductance sits within 5% of its pixel value.
"""

import os

import numpy as np

from xbarsim import DeviceVariationSpec, TuningSpec, build_crossbar
from xbarsim.crossbar import export_grid, write_json
from xbarsim.tuning import error_histogram, import_conductance_map

OUT = os.path.join(os.path.dirname(__file__), "out", "tuning")
os.makedirs(OUT, exist_ok=True)


def smiley_image(n=20):
    """Gray-level smiley: dark face disc, white eyes, white mouth arc."""
    img = np.zeros((n, n))
    yy, xx = np.mgrid[0:n, 0:n]
    center = (n - 1) / 2.0
    r = np.hypot(yy - center, xx - center)
    img[r < 8.5] = 0.85                                  # face
    img[(np.hypot(yy - 7, xx - 6.5) < 1.6)] = 0.05       # left eye
    img[(np.hypot(yy - 7, xx - 13.5) < 1.6)] = 0.05      # right eye
    mouth = (np.hypot(yy - 10, xx - center) > 4.5) & (np.hypot(yy - 10, xx - center) < 6.5) & (yy > 12)
    img[mouth] = 0.05                                    # smile
    levels = np.round(img * 255) / 255                   # 256 gray levels
    return levels


g_white, g_black = 1.0 / 84e3, 1.0 / 7e3
image = smiley_image()
targets = g_white + image * (g_black - g_white)
export_grid(targets, os.path.join(OUT, "target_map.csv"))

xbar = build_crossbar(20, 20, DeviceVariationSpec(), seed=3, pristine=False)
errors = import_conductance_map(xbar, targets, TuningSpec(tolerance=0.05))
export_grid(errors, os.path.join(OUT, "error_grid.csv"))
write_json(error_histogram(errors, bins=25, upper=0.05),
           os.path.join(OUT, "error_histogram.json"))

live = ~xbar.stuck_map()
print("== 256-level image import at 5% tolerance ==")
print(f"live cells {int(live.sum())}, stuck {int((~live).sum())}")
print(f"max live-cell error {errors[live].max():.4f}  "
      f"median {np.median(errors[live]):.4f}")
read = xbar.conductances()
print(f"read-back range {read.min()*1e6:.1f}..{read.max()*1e6:.1f} uS "
      f"(targets {targets.min()*1e6:.1f}..{targets.max()*1e6:.1f} uS)")

# coarse ASCII rendering of the read-back image
shades = " .:-=+*#%@"
norm = (read - g_white) / (g_black - g_white)
print("\nread-back image:")
for row in np.clip(norm, 0, 1):
    print("".join(shades[int(v * (len(shades) - 1))] * 2 for v in row))
print(f"\nwrote {OUT}/target_map.csv, error_grid.csv, error_histogram.json")
