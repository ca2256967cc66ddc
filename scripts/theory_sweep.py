#!/usr/bin/env python3
"""Sweep the competitive-ratio guarantee over the sampling parameter.

Usage: python scripts/theory_sweep.py [--step H] [--csv FILE]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from laminar_secretary import best_p, p_grid
from laminar_secretary.theory import _theory_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--step", type=float, default=0.005)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    try:
        grid = p_grid(args.step)
    except ValueError as exc:
        ap.exit(2, f"error: {exc}\n")
    text = _theory_csv(grid)
    if args.csv:
        try:
            Path(args.csv).write_text(text)
        except OSError as exc:
            ap.exit(2, f"error: cannot write {args.csv}: {exc}\n")
        print(f"wrote {len(grid)} rows to {args.csv}")
    else:
        sys.stdout.write(text)

    p_star, ratio_star = best_p(args.step)
    print(f"# maximizer: p = {p_star:.4f} with guaranteed ratio {ratio_star:.6f}")
    p_fine, ratio_fine = best_p(0.0001)
    print(f"# fine grid:  p = {p_fine:.4f} with guaranteed ratio {ratio_fine:.6f}")


if __name__ == "__main__":
    main()
