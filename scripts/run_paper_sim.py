#!/usr/bin/env python3
"""Reference-scale simulation study.

Runs the three-way comparison between the risk-optimal benchmark, the
known-noise selector and the residual-multiplier selector on
configs/paper.json (n = 200 midpoint grid, 37 nested trigonometric models,
pilot dimension 20, level 2, bias allowance 1, 1000 calibration draws,
100 replicates), then the threshold-ratio table, the pilot sweep and the
validity diagnostics.  Results land in CSV/JSON form under --out.

Use --quick for configs/quick.json, a desk-scale version of the same study.
"""

import argparse
import json
import sys
from pathlib import Path

from smaselect.cli import main as cli_main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="sma_out/paper_sim")
    ap.add_argument("--quick", action="store_true", help="reduced-scale run")
    ap.add_argument("--workers", type=int, default=4, help="replicate workers")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = json.loads((CONFIGS / ("quick.json" if args.quick else "paper.json")).read_text())
    cfg["n_workers"] = args.workers
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
