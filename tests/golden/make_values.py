"""Pinned numbers at small sizes, and the script that produces them.

``compute()`` evaluates a fixed set of public liftlab functions at small
sizes and fixed seeds; ``tests/test_golden.py`` compares its result with
the committed ``values.json`` (floats at rtol 1e-9, integers exactly).

Regenerate only when a change moves a value on purpose, and say in
CHANGES.md which values moved, by how much and why:

    PYTHONPATH=src python tests/golden/make_values.py
"""

import json
import os

import numpy as np

from liftlab.core import RngStream, make_grid, quadratic_potential
from liftlab.divergence import build_harmonic_basis, random_rhs, solve_divergence
from liftlab.generators import (
    RtpParams,
    overdamped_generator_1d,
    rtp_generator,
    sticky_bm_generator,
    zigzag_generator_1d,
)
from liftlab.lift_check import collapse_probes, lift_report
from liftlab.simulate import (
    simulate_forward,
    simulate_rtp,
    simulate_zigzag,
    trajectory_moment,
)
from liftlab.spectral import spectral_gap
from liftlab.studies import gamma_study, rtp_scaling_study

VALUES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "values.json")


def _rtp_scaling():
    res = rtp_scaling_study((0.1, 1.0, 25.0), L=1.0, n_grid=60, with_sim=False)
    return [
        {"omega": r["omega"], "nu_hat": r["nu_hat"], "gap_collapse": r["gap_collapse"],
         "T": r["T"]}
        for r in res["rows"]
    ]


def _report(split, collapse, h):
    rep = lift_report(split, collapse, collapse_probes(collapse, seed=42), h)
    return {
        "first_order_residual": rep.first_order_residual,
        "second_order_residual": rep.second_order_residual,
        "antisymmetry_residual": rep.antisymmetry_residual,
        "probe_count": rep.probe_count,
    }


def _lift_reports():
    grid = make_grid(2.0, 60)
    rtp = _report(
        rtp_generator(grid, RtpParams(omega=1.0, length_L=2.0)),
        sticky_bm_generator(grid, 1.0)[0],
        grid.h,
    )
    U = quadratic_potential([1.0])
    box = make_grid(8.0, 60)
    zigzag = _report(
        zigzag_generator_1d(box, U, 1.0, x_min=-4.0),
        overdamped_generator_1d(box, U, x_min=-4.0)[0],
        box.h,
    )
    return {"rtp": rtp, "zigzag": zigzag}


def _divergence():
    collapse, _ = sticky_bm_generator(make_grid(1.0, 60), 1.0)
    m = spectral_gap(collapse)
    basis = build_harmonic_basis(collapse, m**-0.5)
    out = []
    for seed in range(5):
        sol = solve_divergence(random_rhs(basis, seed), basis, m)
        out.append({"seed": seed, "residual": sol.residual,
                    "bound_ratios": list(sol.bound_ratios)})
    return out


def _gamma():
    gammas = np.sqrt(0.5) * np.logspace(-1.0, 1.5, 11)
    res = gamma_study("zigzag_1d_discrete", 1.0, gammas, n_grid=40)
    return {
        "nu_hat": [r["nu_hat"] for r in res["rows"]],
        "nu_formula": [r["nu_formula"] for r in res["rows"]],
        "gamma_star": res["gamma_star"],
        "edge_ratio": res["edge_ratio"],
        "spearman_rho": res["spearman_rho"],
    }


def _summary(traj):
    kinds = {k: traj.kinds.count(k) for k in sorted(set(traj.kinds))}
    return {
        "n_events": len(traj),
        "kinds": kinds,
        "mean_x0": trajectory_moment(traj, 0, 1),
        "second_x0": trajectory_moment(traj, 0, 2),
        "final_x": traj.positions[-1].tolist(),
    }


def _samplers():
    U2 = quadratic_potential([1.0, 1.0])
    return {
        "rtp": _summary(
            simulate_rtp(RtpParams(omega=1.0, length_L=2.0), 1.0, 0, 200.0, RngStream(1))
        ),
        "zigzag_d2": _summary(
            simulate_zigzag(U2, "hypercube", 1.0, [0.5, -0.5], 200.0, RngStream(2))
        ),
        "forward_d2": _summary(simulate_forward(U2, 1.0, [0.5, -0.5], 200.0, RngStream(3))),
    }


def compute() -> dict:
    return {
        "rtp_scaling": _rtp_scaling(),
        "lift_report": _lift_reports(),
        "divergence": _divergence(),
        "gamma_zigzag": _gamma(),
        "samplers": _samplers(),
    }


if __name__ == "__main__":
    with open(VALUES_PATH, "w") as fh:
        json.dump(compute(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {VALUES_PATH}")
