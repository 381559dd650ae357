"""Command-line entry point: config parsing, dispatch, artifacts.

One executable exposes every module: event-driven simulation, spectral
decomposition, lift-identity checks, flow Poincare rates, divergence
solves, and parameter-sweep studies.  Configuration comes from flags,
optionally seeded by a JSON file whose keys mirror the flag names
(flags override the file; unknown keys are hard errors).  Artifacts are
written atomically, every artifact embeds the configuration hash, and
stdout carries a single-line JSON summary.  Exit codes: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import RngStream, quadratic_potential
from .divergence import build_harmonic_basis, random_rhs, solve_divergence
from .errors import ConfigError, LiftlabError
from .flow_poincare import (
    best_nu,
    decay_check,
    lifted_probe_family,
    lifting_upper_bound_check,
    pointwise_decay_bound,
)
from .generators import RtpParams, rtp_model, velocity_kernel, zigzag_model
from .io_utils import atomic_write_text, config_hash
from .lift_check import (
    assumption_constants,
    collapse_probes,
    lift_report,
    velocity_poincare,
)
from .simulate import (
    rtp_stationary_state,
    simulate_forward,
    simulate_rtp,
    simulate_zigzag,
)
from .spectral import Semigroup, decompose, spectral_gap
from .studies import gamma_study, rtp_scaling_study

__all__ = ["RunConfig", "parse_config", "run", "main"]

SUBCOMMANDS = (
    "simulate",
    "spectrum",
    "lift-check",
    "flow-poincare",
    "divergence-check",
    "study",
)


@dataclass(frozen=True)
class _Opt:
    """One configuration key: type, default, and validation rules."""

    type: type = float
    default: object = None
    required: bool = False
    choices: tuple = ()
    positive: bool = False
    help: str = ""


def _common_opts(**extra) -> dict:
    base = {
        "seed": _Opt(int, 42, help="random seed"),
        "output": _Opt(str, None, help="artifact path (default: output dir)"),
    }
    base.update(extra)
    return base


_SCHEMAS = {
    "simulate": _common_opts(
        process=_Opt(str, required=True, choices=("rtp", "zigzag", "forward"),
                     help="process to simulate"),
        omega=_Opt(float, positive=True, help="tumble rate (rtp)"),
        length=_Opt(float, 1.0, positive=True, help="domain length L (rtp)"),
        t_end=_Opt(float, required=True, positive=True, help="time horizon"),
        m=_Opt(float, 1.0, positive=True, help="quadratic potential coefficient"),
        d=_Opt(int, 1, positive=True, help="space dimension (zigzag/forward)"),
        gamma=_Opt(float, 1.0, positive=True, help="refresh rate"),
        velocity_law=_Opt(str, "hypercube",
                          choices=("gaussian", "hypercube", "coords"),
                          help="zigzag velocity law"),
        method=_Opt(str, "thinning", choices=("thinning", "inversion"),
                    help="zigzag event clock"),
    ),
    "spectrum": _common_opts(
        process=_Opt(str, required=True,
                     choices=("rtp", "sticky-bm", "zigzag", "overdamped"),
                     help="operator to decompose"),
        omega=_Opt(float, 1.0, positive=True, help="tumble rate"),
        length=_Opt(float, 1.0, positive=True, help="domain length L"),
        m=_Opt(float, 1.0, positive=True, help="quadratic potential coefficient"),
        gamma=_Opt(float, 1.0, positive=True, help="refresh rate (zigzag)"),
        n_interior=_Opt(int, 200, positive=True, help="interior grid nodes"),
        n_eigen=_Opt(int, 10, positive=True, help="eigenvalues to report"),
    ),
    "lift-check": _common_opts(
        process=_Opt(str, "rtp", choices=("rtp", "zigzag"),
                     help="lift/collapse pair"),
        omega=_Opt(float, 1.0, positive=True, help="tumble rate (rtp)"),
        length=_Opt(float, 1.0, positive=True, help="domain length L (rtp)"),
        m=_Opt(float, 1.0, positive=True, help="quadratic potential coefficient"),
        gamma=_Opt(float, 1.0, positive=True, help="refresh rate (zigzag)"),
        n_interior=_Opt(int, 200, positive=True, help="interior grid nodes"),
        T=_Opt(str, "auto", help="flow window (auto = collapse gap^-1/2)"),
    ),
    "flow-poincare": _common_opts(
        omega=_Opt(float, 1.0, positive=True, help="tumble rate"),
        length=_Opt(float, 1.0, positive=True, help="domain length L"),
        n_interior=_Opt(int, 200, positive=True, help="interior grid nodes"),
        n_quad=_Opt(int, 64, positive=True, help="time-quadrature nodes"),
        T=_Opt(str, "auto", help="flow window (auto = collapse gap^-1/2)"),
    ),
    "divergence-check": _common_opts(
        omega=_Opt(float, 1.0, positive=True, help="tumble rate"),
        length=_Opt(float, 1.0, positive=True, help="domain length L"),
        n_interior=_Opt(int, 200, positive=True, help="interior grid nodes"),
        n_rhs=_Opt(int, 20, positive=True, help="random right-hand sides"),
        T=_Opt(str, "auto", help="time horizon (auto = collapse gap^-1/2)"),
    ),
    "study": _common_opts(
        preset=_Opt(str, required=True,
                    choices=("rtp-scaling", "gamma-zigzag", "gamma-forward"),
                    help="named parameter sweep"),
        length=_Opt(float, 1.0, positive=True, help="domain length L (rtp)"),
        m=_Opt(float, 1.0, positive=True, help="quadratic potential coefficient"),
        n_grid=_Opt(int, None, positive=True,
                    help="interior grid nodes (default 200 rtp / 120 gamma)"),
        n_replicas=_Opt(int, 400, positive=True, help="simulation replicas"),
        with_sim=_Opt(bool, True, help="cross-check rates by simulation"),
        T_rule=_Opt(str, "relaxation", choices=("collapse", "relaxation"),
                    help="flow window rule for swept rates"),
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one CLI invocation."""

    subcommand: str
    values: dict = field(default_factory=dict)

    @property
    def hash(self) -> str:
        """Hash of the computation: every value except the artifact path."""
        values = {k: v for k, v in self.values.items() if k != "output"}
        return config_hash({"subcommand": self.subcommand, **values})

    def render(self) -> list:
        """Flag list that parses back to this config."""
        args = [self.subcommand]
        for key, val in sorted(self.values.items()):
            if val is None:
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(val, bool):
                args.append(flag if val else "--no-" + key.replace("_", "-"))
            else:
                args.extend([flag, str(val)])
        return args


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftlab",
        description="Event-driven samplers and spectral checks for lifted "
        "Markov processes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, schema in _SCHEMAS.items():
        sp = subs.add_parser(name, help=f"{name} subcommand")
        sp.add_argument("--config", default=None, metavar="FILE",
                        help="JSON config file; keys mirror flags, flags win")
        for key, opt in schema.items():
            flag = "--" + key.replace("_", "-")
            if opt.type is bool:
                group = sp.add_mutually_exclusive_group()
                group.add_argument(flag, dest=key, action="store_true",
                                   default=None,
                                   help=f"{opt.help} (default: {opt.default})")
                group.add_argument("--no-" + key.replace("_", "-"), dest=key,
                                   action="store_false", default=None,
                                   help=f"disable {flag}")
                continue
            sp.add_argument(
                flag,
                dest=key,
                default=None,
                help=f"{opt.help} (default: "
                f"{'required' if opt.required else opt.default})",
            )
    return parser


def _coerce(key: str, raw, opt: _Opt):
    """Parse and validate one value; TypeError names the offending key."""
    if raw is None:
        return None
    try:
        if opt.type is bool:
            if isinstance(raw, bool):
                val = raw
            elif str(raw).lower() in ("true", "1", "yes"):
                val = True
            elif str(raw).lower() in ("false", "0", "no"):
                val = False
            else:
                raise ValueError(raw)
        elif opt.type is int:
            val = int(str(raw), 0) if not isinstance(raw, bool) else int(raw)
        elif opt.type is float:
            val = float(raw)
        else:
            val = str(raw)
    except (ValueError, OverflowError) as exc:
        raise TypeError(f"{key}: cannot parse {raw!r} as {opt.type.__name__}") from exc
    if opt.choices and val not in opt.choices:
        raise TypeError(f"{key}: {val!r} not in {sorted(opt.choices)}")
    if opt.positive and isinstance(val, (int, float)) and val <= 0:
        raise TypeError(f"{key}: {val!r} must be > 0")
    return val


def parse_config(argv=None) -> RunConfig:
    """Flags plus optional JSON file to a validated RunConfig.

    The file supplies defaults, flags override; keys outside the
    subcommand's schema and absent required keys raise ConfigError,
    malformed values raise TypeError naming the key.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.subcommand is None:
        parser.error("a subcommand is required")
    schema = _SCHEMAS[ns.subcommand]
    merged = {}
    if ns.config is not None:
        with open(ns.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise TypeError("config: file must hold a JSON object")
        for key, val in file_cfg.items():
            if key == "subcommand":
                if val != ns.subcommand:
                    raise ConfigError(
                        f"config file is for subcommand {val!r}, "
                        f"not {ns.subcommand!r}"
                    )
                continue
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = _coerce(key, val, schema[key])
    for key, opt in schema.items():
        raw = getattr(ns, key)
        if raw is not None:
            merged[key] = _coerce(key, raw, opt)
    for key, opt in schema.items():
        if key not in merged:
            if opt.required:
                raise ConfigError(f"missing required key {key!r}")
            merged[key] = opt.default
    # conditionally required keys (depend on the chosen process)
    if ns.subcommand == "simulate" and merged["process"] == "rtp":
        if merged["omega"] is None:
            raise ConfigError("missing required key 'omega'")
    if merged.get("T") is not None and str(merged["T"]) != "auto":
        try:
            tval = float(merged["T"])
        except ValueError:
            raise TypeError(f"T: cannot parse {merged['T']!r} as float") from None
        if tval <= 0:
            raise TypeError(f"T: {tval!r} must be > 0")
    return RunConfig(subcommand=ns.subcommand, values=merged)


def _artifact_path(cfg: RunConfig, suffix: str) -> str:
    if cfg.values.get("output"):
        return cfg.values["output"]
    base = os.environ.get("LIFTLAB_OUTPUT_DIR", ".")
    return os.path.join(base, cfg.subcommand + suffix)


def _auto_T(raw, collapse) -> float:
    if raw is None or str(raw) == "auto":
        return spectral_gap(collapse) ** -0.5
    return float(raw)


def _json_artifact(cfg: RunConfig, payload: dict, path: str):
    payload = {"config_hash": cfg.hash, "version": __version__, **payload}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _run_simulate(cfg: RunConfig, path: str) -> dict:
    v = cfg.values
    rng = RngStream(v["seed"])
    if v["process"] == "rtp":
        params = RtpParams(omega=v["omega"], length_L=v["length"])
        x0, v0 = rtp_stationary_state(params, rng)
        traj = simulate_rtp(params, x0, v0, v["t_end"], rng)
    elif v["process"] == "zigzag":
        U = quadratic_potential([v["m"]] * v["d"])
        x0 = rng.gaussian(sd=1.0 / np.sqrt(v["m"]), size=v["d"])
        traj = simulate_zigzag(
            U, v["velocity_law"], v["gamma"], x0, v["t_end"], rng,
            method=v["method"],
        )
    else:
        U = quadratic_potential([v["m"]] * v["d"])
        x0 = rng.gaussian(sd=1.0 / np.sqrt(v["m"]), size=v["d"])
        traj = simulate_forward(U, v["gamma"], x0, v["t_end"], rng)
    traj.to_csv(path, comment=f"config_hash={cfg.hash} version={__version__}")
    return {"n_events": len(traj.times), "t_end": traj.t_end}


def _model(v: dict):
    """(split, collapse, h) of the lift/collapse pair that ``v`` names."""
    if v["process"] in ("rtp", "sticky-bm"):
        return rtp_model(v["omega"], v["length"], v["n_interior"])
    return zigzag_model(v["m"], v["gamma"], v["n_interior"])


def _spectrum_operator(v: dict):
    split, collapse, _ = _model(v)
    return split.full if v["process"] in ("rtp", "zigzag") else collapse


def _run_spectrum(cfg: RunConfig, path: str) -> dict:
    v = cfg.values
    op = _spectrum_operator(v)
    sd = decompose(op)
    vals = np.sort_complex(np.atleast_1d(sd.eigenvalues))[::-1]
    rates = -vals.real
    gap = float(rates[rates > 1e-9].min())
    head = vals[: v["n_eigen"]]
    _json_artifact(cfg, {
        "process": v["process"],
        "dim": op.dim,
        "gap": gap,
        "eigenvalues_real": head.real.tolist(),
        "eigenvalues_imag": head.imag.tolist(),
    }, path)
    return {"gap": gap, "dim": op.dim}


def _run_lift_check(cfg: RunConfig, path: str) -> dict:
    v = cfg.values
    split, collapse, h = _model(v)
    probes = collapse_probes(collapse, seed=v["seed"])
    report = lift_report(split, collapse, probes, h)
    m = spectral_gap(collapse)
    T = _auto_T(v["T"], collapse)
    if v["process"] == "rtp":
        consts = assumption_constants("rtp", m, v["omega"], T=T)
        m_v = velocity_poincare(velocity_kernel(v["omega"]))
    else:
        consts = assumption_constants(
            "zigzag_hypercube", m, v["gamma"], T=T,
            potential=quadratic_potential([v["m"]]),
        )
        m_v = consts.m_v
    _json_artifact(cfg, {
        "process": v["process"],
        "report": report.to_dict(),
        "constants": consts.to_dict(),
        "m_v": m_v,
    }, path)
    return {
        "first_order_residual": report.first_order_residual,
        "second_order_residual": report.second_order_residual,
        "antisymmetry_residual": report.antisymmetry_residual,
        "nu_formula": consts.nu,
    }


def _run_flow_poincare(cfg: RunConfig, path: str) -> dict:
    v = cfg.values
    split, collapse, _ = rtp_model(v["omega"], v["length"], v["n_interior"])
    m = spectral_gap(collapse)
    T = _auto_T(v["T"], collapse)
    sg = Semigroup(split.full)
    probes = lifted_probe_family(split, collapse)
    mu = split.full.reference_measure
    report = best_nu(split.full, mu, T, probes, n_quad=v["n_quad"], semigroup=sg)
    nu = report.nu_hat
    worst = probes[report.worst_probe_id]
    t_grid = np.linspace(0.0, 10.0 * T, 11)
    margin = decay_check(split.full, mu, worst, T, nu, t_grid,
                         n_quad=v["n_quad"], semigroup=sg)
    C, slack = pointwise_decay_bound(
        split.full, mu, worst, nu, T, np.linspace(0.0, 20.0 * T, 21),
        semigroup=sg,
    )
    ok, bound_slack = lifting_upper_bound_check(nu, C, m)
    _json_artifact(cfg, {
        "T": T,
        "nu_hat": nu,
        "gap_collapse": m,
        "decay_margin": margin,
        "pointwise_C": C,
        "pointwise_slack": slack,
        "upper_bound_ok": ok,
        "upper_bound_slack": bound_slack,
    }, path)
    return {"nu_hat": nu, "decay_margin": margin, "upper_bound_ok": ok}


def _run_divergence_check(cfg: RunConfig, path: str) -> dict:
    v = cfg.values
    _, collapse, _ = rtp_model(v["omega"], v["length"], v["n_interior"])
    m = spectral_gap(collapse)
    T = _auto_T(v["T"], collapse)
    basis = build_harmonic_basis(collapse, T)
    worst_residual = 0.0
    worst_ratio = 0.0
    for k in range(v["n_rhs"]):
        f = random_rhs(basis, seed=v["seed"] + k)
        sol = solve_divergence(f, basis, m)
        worst_residual = max(worst_residual, sol.residual)
        worst_ratio = max(worst_ratio, max(sol.bound_ratios))
    bounds_ok = bool(worst_ratio <= 50.0)
    _json_artifact(cfg, {
        "T": T,
        "n_rhs": v["n_rhs"],
        "worst_residual": worst_residual,
        "worst_bound_ratio": worst_ratio,
        "bounds_ok": bounds_ok,
    }, path)
    return {
        "worst_residual": worst_residual,
        "worst_bound_ratio": worst_ratio,
        "bounds_ok": bounds_ok,
    }


RTP_SCALING_OMEGAS = (0.01, 0.02, 0.05, 0.1, 1.0, 25.0, 50.0, 100.0, 200.0)


def _run_study(cfg: RunConfig, path: str) -> dict:
    v = cfg.values
    if v["preset"] == "rtp-scaling":
        res = rtp_scaling_study(
            RTP_SCALING_OMEGAS,
            L=v["length"],
            n_grid=v["n_grid"] or 200,
            T_rule=v["T_rule"],
            output=path,
            seed=v["seed"],
            n_replicas=v["n_replicas"],
            with_sim=v["with_sim"],
        )
        return {
            "slope_low": res.get("slope_low"),
            "slope_high": res.get("slope_high"),
            "rows": len(res["rows"]),
            "all_upper_bounds_ok": all(r["upper_bound_ok"] for r in res["rows"]),
        }
    process = "zigzag_1d_discrete" if v["preset"] == "gamma-zigzag" else "forward_sim"
    gammas = np.sqrt(v["m"] / 2.0) * np.logspace(-1.0, 1.5, 11)
    res = gamma_study(
        process,
        v["m"],
        gammas,
        output=path,
        n_grid=v["n_grid"] or 120,
        seed=v["seed"],
        n_replicas=v["n_replicas"],
    )
    return {
        "gamma_star": res["gamma_star"],
        "nu_star": res["nu_star"],
        "edge_ratio": res["edge_ratio"],
        "spearman_rho": res["spearman_rho"],
    }


_RUNNERS = {
    "simulate": (_run_simulate, ".csv"),
    "spectrum": (_run_spectrum, ".json"),
    "lift-check": (_run_lift_check, ".json"),
    "flow-poincare": (_run_flow_poincare, ".json"),
    "divergence-check": (_run_divergence_check, ".json"),
    "study": (_run_study, ".csv"),
}


def run(config: RunConfig) -> int:
    """Execute one configured subcommand; returns the process exit code."""
    runner, suffix = _RUNNERS[config.subcommand]
    path = _artifact_path(config, suffix)
    metrics = runner(config, path)
    summary = {
        "subcommand": config.subcommand,
        "metrics": metrics,
        "artifacts": [path],
        "config_hash": config.hash,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except (ConfigError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except LiftlabError as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
