"""Chart round-trip error as a function of the perturbation magnitude.

Samples operator coordinates at increasing per-block coefficient norms,
pushes them through the forward chart and back, and prints the worst
coordinate and tensor recovery errors per magnitude.  Round trips stay at
roundoff level across the whole range because the forward map is exact
block linear algebra and the inverse reads graphs off orthonormal bases.

Usage: python scripts/chart_roundtrip_sweep.py [seed]
"""

import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import treegeom as tg

from helpers import capped_rank_tuple


def scaled_coords(chart, rng, magnitude):
    coords = rng.standard_normal(chart.operator_basis.dim)
    parts = chart.operator_basis.parts(coords)
    peak = max(np.linalg.norm(C) for C in parts.values())
    return coords * (magnitude / peak) if peak > 0 else coords * 0.0


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rng = np.random.default_rng(seed)
    beds = [
        ("deep d=4", tg.tree_from_nested([[[1], [[2], [3]]], [4]]),
         (2, 2, 2, 3)),
        ("tucker d=3", tg.tucker_tree(3), (3, 3, 3)),
    ]
    for name, tree, shape in beds:
        r = capped_rank_tuple(tree, shape, cap=2)
        v = tg.random_tree_tensor(tree, r, shape, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chart = tg.tree_chart(v, tree, r)
        print(f"\n{name}: shape {shape}, operator dim "
              f"{chart.operator_basis.dim}, core {chart.core.shape}")
        print(f"{'magnitude':>10} {'coord err':>12} {'tensor err':>12} "
              f"{'rejected':>9}")
        for magnitude in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
            worst_c, worst_t, rejected = 0.0, 0.0, 0
            for _ in range(20):
                coords = scaled_coords(chart, rng, magnitude)
                core = chart.core * (
                    1 + 0.02 * rng.standard_normal(chart.core.shape)
                )
                try:
                    w = tg.tree_chart_point(chart, coords, core)
                    rec_coords, rec_core = tg.tree_chart_inverse(chart, w)
                except (tg.OutsideChartDomainError,
                        tg.OutsideChartImageError):
                    rejected += 1
                    continue
                denom = max(np.linalg.norm(coords), np.linalg.norm(core))
                worst_c = max(worst_c, float(
                    (np.linalg.norm(rec_coords - coords)
                     + np.linalg.norm(rec_core - core)) / denom
                ))
                w_rec = tg.tree_chart_point(chart, rec_coords, rec_core)
                worst_t = max(worst_t, float(
                    np.linalg.norm(w_rec - w) / np.linalg.norm(w)
                ))
            print(f"{magnitude:>10.0e} {worst_c:>12.2e} {worst_t:>12.2e} "
                  f"{rejected:>9}")


if __name__ == "__main__":
    main()
