#!/usr/bin/env python3
"""Derivative estimation demo.

Same pipeline as the main simulation but with the loss weighted by the
termwise differentiation matrix of the trigonometric basis, so the three
selectors compete on estimating f' at the design points.
"""

import argparse
import json
import sys
from pathlib import Path

from smaselect.cli import main as cli_main

CONFIG = {
    "n": 150,
    "p_max": 60,
    "models": list(range(1, 16)),
    "m_dagger": 12,
    "x_level": 2.0,
    "alpha_plus": 1.0,
    "n_sim": 500,
    "n_hist": 30,
    "noise_profile": {"kind": "linear", "sigma_lo": 0.25, "sigma_hi": 1.0},
    "coefficient_rule": {"kind": "paper4"},
    "weighting": "derivative",
    "seeds": {"data": 5151, "noise": 6161, "calibration": 7171, "bootstrap": 8181},
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="sma_out/derivative_demo")
    ap.add_argument("--workers", type=int, default=4, help="replicate workers")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = dict(CONFIG, n_workers=args.workers)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    return cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])


if __name__ == "__main__":
    sys.exit(main())
