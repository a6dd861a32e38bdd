#!/usr/bin/env python3
"""Reference-scale simulation study.

Builds the default scenario (n = 200 midpoint grid, 37 nested trigonometric
models, pilot dimension 20, level 2, bias allowance 1, 1000 calibration
draws, 100 replicates) and runs the three-way comparison between the
risk-optimal benchmark, the known-noise selector and the residual-multiplier
selector.  Results land in CSV/JSON form under --out.

Use --quick for a desk-scale version of the same pipeline.
"""

import argparse
import json
import sys
from pathlib import Path

from smaselect.cli import main as cli_main

FULL = {
    "n": 200,
    "p_max": 200,
    "models": list(range(1, 38)),
    "m_dagger": 20,
    "x_level": 2.0,
    "alpha_plus": 1.0,
    "n_sim": 1000,
    "n_hist": 100,
    "noise_profile": {"kind": "linear", "sigma_lo": 0.5, "sigma_hi": 2.0},
    "coefficient_rule": {"kind": "paper4"},
    "weighting": "prediction",
    "seeds": {"data": 1001, "noise": 2002, "calibration": 3003, "bootstrap": 4004},
}

QUICK = dict(
    FULL,
    n=100,
    p_max=60,
    models=list(range(1, 16)),
    m_dagger=12,
    n_sim=400,
    n_hist=20,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="sma_out/paper_sim")
    ap.add_argument("--quick", action="store_true", help="reduced-scale run")
    ap.add_argument("--workers", type=int, default=4, help="replicate workers")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = dict(QUICK if args.quick else FULL, n_workers=args.workers)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))

    rc = cli_main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    if rc == 0:
        rc = cli_main(["ratios", "--config", str(cfg_path), "--out", str(out)])
    if rc == 0:
        rc = cli_main(
            ["sweep", "--config", str(cfg_path), "--out", str(out),
             "--m-dagger-list", ",".join(str(v) for v in range(cfg["m_dagger"] - 6, cfg["m_dagger"] + 7, 3))]
        )
    if rc == 0:
        rc = cli_main(["diagnose", "--config", str(cfg_path), "--out", str(out), "--validate"])
    return rc


if __name__ == "__main__":
    sys.exit(main())
