"""Command-line front end.

Builds lattice and drive configurations from flags or a JSON config file,
runs the library operations, and writes CSV/JSON for external plotting.

Exit codes: 0 success, 1 usage error (bad flags, missing required values),
2 validation error (values that violate a module invariant, including
malformed complex literals), 3 computation error, 4 I/O error.

Every subcommand accepts ``--config FILE`` (JSON object with the same keys
as the flags, underscores for dashes) and ``--dump-config PATH`` (write the
fully resolved configuration, including derived defaults, and exit without
running).  Explicit flags override config values; presets override both,
since their parameters are pinned.  Re-running any subcommand from a dumped
config reproduces the original outputs byte for byte: there is no hidden
randomness anywhere in the toolkit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .dynamics import (
    EvolveConfig,
    evolve_closed_form,
    evolve_rk4,
    gaussian_state,
    revival_error,
    single_site_state,
)
from .engineering import LaserParams, ModulationProtocol, _require_sin_theta, effective_hopping, laser_evolve, rwa_validate, solve_unidirectional
from .errors import ComputationError, ValidationError
from .floquet import FluxDrive, monodromy, quasi_energies_analytic
from .lattice import Geometry, LatticeSpec, StateVector, build_hamiltonian
from .serialize import (
    complex_to_pair,
    dump_json,
    format_complex,
    matrix_to_dict,
    pair_to_complex,
    report_to_dict,
    write_observables_csv,
    write_rwa_csv,
    write_trajectory_csv,
)
from .spectral import analyze_spectrum, ring_spectrum

__all__ = ["main"]

_REQUIRED = object()


class _UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our table
        raise _UsageError(message)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a single JSON object")
    return data


def _canon(name: str, kind, value):
    """Normalize a flag/config value to its canonical JSON-able form.  Config values are
    checked, not coerced: only a bool is a bool, ints are integral, numbers are finite."""
    if value is None:
        return None
    items = value if isinstance(value, list) else [value]
    if kind == "bool" and not isinstance(value, bool):
        raise ValidationError(f"{name} must be true or false, got {value!r}")
    if kind != "bool" and any(isinstance(v, bool) for v in items):
        raise ValidationError(f"{name} must not be a bool, got {value!r}")
    if kind in ("int", "ints2") and any(
        isinstance(v, float) and not v.is_integer() for v in items
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    try:
        if isinstance(kind, tuple) and kind[0] == "choice":
            value = str(value)
            if value not in kind[1]:
                raise ValidationError(
                    f"{name} must be one of {', '.join(kind[1])}, got {value!r}"
                )
            return value
        if kind == "int":
            return int(value)
        if kind == "bool":
            return value
        if kind == "ints2":
            seq = [int(v) for v in value]
            if len(seq) != 2:
                raise ValidationError(f"{name} needs exactly two integers")
            return seq
        if kind == "str":
            return str(value)
        if kind == "complex":
            number = complex_to_pair(pair_to_complex(value))
        elif kind == "float":
            number = float(value)
        elif kind == "floats":
            if isinstance(value, str):
                parts = [p for p in value.replace(" ", "").split(",") if p]
            else:
                parts = list(value)
            if not parts:
                raise ValidationError(f"{name} must not be empty")
            number = [float(p) for p in parts]
        else:
            raise AssertionError(f"unknown field kind {kind!r}")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"bad value for {name}: {value!r}") from exc
    if not np.isfinite(number).all():
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def _resolve(args, fields, preset: dict | None = None) -> dict:
    """Merge preset values over CLI flags over config-file values over defaults.

    Presets come first because their parameters are pinned by definition.
    """
    config = _load_config(args.config)
    known = {f[0] for f in fields}
    unknown = set(config) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for name, kind, default in fields:
        cli_value = getattr(args, name)
        if preset is not None and name in preset:
            value = preset[name]
        elif cli_value is not None:
            value = cli_value
        elif name in config:
            value = config[name]
        elif default is _REQUIRED:
            raise _UsageError(
                f"--{name.replace('_', '-')} is required (as a flag or config key)"
            )
        else:
            value = default
        resolved[name] = _canon(name, kind, value)
    return resolved


def _maybe_dump(args, resolved: dict, command: str) -> bool:
    if args.dump_config:
        dump_json(resolved, args.dump_config)
        print(f"{command}: resolved config written to {args.dump_config}")
        return True
    return False


# ---------------------------------------------------------------------------
# shared field tables: (name, kind, default); each subcommand's flags are
# generated from its table (see _build_parser)

_LATTICE_FIELDS = (
    ("geometry", ("choice", ("infinite", "chain", "ring")), _REQUIRED),
    ("sites", "int", None),
    ("window", "ints2", None),
    ("kappa1", "complex", [1.0, 0.0]),
    ("kappa2", "complex", [0.0, 0.0]),
    ("force", "float", 0.0),
)

_STATE_FIELDS = (
    ("initial", ("choice", ("single", "gaussian")), "single"),
    ("site", "int", None),
    ("center", "float", None),
    ("width", "float", None),
)


def _lattice_spec(resolved: dict) -> LatticeSpec:
    window = tuple(resolved["window"]) if resolved["window"] is not None else None
    return LatticeSpec(
        geometry=Geometry(resolved["geometry"]),
        kappa1=pair_to_complex(resolved["kappa1"]),
        kappa2=pair_to_complex(resolved["kappa2"]),
        force=resolved["force"],
        sites=resolved["sites"],
        window=window,
    )


def _fill_state_defaults(resolved: dict, spec: LatticeSpec) -> None:
    """Resolve state defaults against the lattice so dumped configs are concrete."""
    if resolved["initial"] == "single":
        if resolved["site"] is None:
            # Middle of the lattice, same convention as the gaussian default;
            # an edge site would sit on the boundary monitor of windowed runs.
            resolved["site"] = spec.offset + (spec.dim - 1) // 2
    else:
        if resolved["center"] is None:
            resolved["center"] = spec.offset + (spec.dim - 1) / 2.0
        if resolved["width"] is None:
            resolved["width"] = 3.0


def _initial_state(resolved: dict, spec: LatticeSpec) -> StateVector:
    if resolved["initial"] == "single":
        return single_site_state(spec, resolved["site"])
    return gaussian_state(spec, resolved["center"], resolved["width"])


def _evolve_config(resolved: dict, t_end: float, dt: float) -> EvolveConfig:
    return EvolveConfig(
        t_end=t_end,
        dt=dt,
        record_every=resolved["record_every"],
        renormalize=resolved["renormalize"],
    )


def _period_step(period: float, resolved: dict) -> float:
    """The RK4 step period / steps_per_period of bloch and floquet."""
    steps = resolved["steps_per_period"]
    if steps < 1:
        raise ValidationError(f"steps_per_period must be >= 1, got {steps}")
    return period / steps


# ---------------------------------------------------------------------------
# spectrum

_SPECTRUM_FIELDS = _LATTICE_FIELDS + (
    ("vectors", "bool", False),
    ("output", "str", "spectrum.json"),
)


def _cmd_spectrum(args) -> int:
    resolved = _resolve(args, _SPECTRUM_FIELDS)
    spec = _lattice_spec(resolved)
    if _maybe_dump(args, resolved, "spectrum"):
        return 0
    h = build_hamiltonian(spec)
    report = analyze_spectrum(h)
    ring_check = None
    if spec.geometry is Geometry.Ring and spec.force == 0.0 and spec.kappa2 == 0j:
        ring_spectrum(spec)  # raises when the closed form fails its certificate
        ring_check = "ok"
    out = report_to_dict(report, include_vectors=resolved["vectors"])
    out["geometry"] = resolved["geometry"]
    out["dim"] = h.dim
    out["offset"] = h.offset
    out["ring_check"] = ring_check
    dump_json(out, resolved["output"])
    max_order = max(c.ep_order for c in report.clusters)
    print(
        f"spectrum: dim={h.dim} clusters={len(report.clusters)} "
        f"max_ep_order={max_order} defective={report.is_defective} "
        f"output={resolved['output']}"
    )
    return 0


# ---------------------------------------------------------------------------
# evolve

_EVOLVE_FIELDS = _LATTICE_FIELDS + _STATE_FIELDS + (
    ("method", ("choice", ("rk4", "closed")), "rk4"),
    ("t_end", "float", _REQUIRED),
    ("dt", "float", None),
    ("samples", "int", 201),
    ("record_every", "int", 1),
    ("renormalize", "bool", False),
    ("flux_rate", "float", None),
    ("output_prefix", "str", "evolve"),
)


def _rk4_config(resolved: dict) -> EvolveConfig | None:
    """Check the options against the method and build the RK4 step control:
    None for the closed form, and for an rk4 run that still lacks --dt."""
    t_end = resolved["t_end"]
    if resolved["method"] == "closed":
        unset = {"flux_rate": None, "dt": None, "record_every": 1, "renormalize": False}
        for name, default in unset.items():
            if resolved[name] != default:  # the closed form has no step to set or thin
                raise ValidationError(f"{name} requires the rk4 method")
        if t_end != 0.0 and resolved["samples"] < 2:
            raise ValidationError("need samples >= 2 for t_end > 0")
        return None
    if resolved["samples"] != 201:  # RK4 records every record_every-th step
        raise ValidationError("samples requires the closed method")
    dt = resolved["dt"]
    if dt is None and t_end == 0.0:
        dt = 1.0  # unused: only the initial state is emitted
    return None if dt is None else _evolve_config(resolved, t_end, dt)


def _cmd_evolve(args) -> int:
    resolved = _resolve(args, _EVOLVE_FIELDS)
    spec = _lattice_spec(resolved)
    _fill_state_defaults(resolved, spec)
    cfg = _rk4_config(resolved)
    c0 = _initial_state(resolved, spec)
    if _maybe_dump(args, resolved, "evolve"):
        return 0
    t_end = resolved["t_end"]
    if resolved["method"] == "closed":
        times = np.linspace(0.0, t_end, resolved["samples"]) if t_end else np.zeros(1)
        traj = evolve_closed_form(spec, c0, times)
    elif cfg is None:
        raise _UsageError("--dt is required for method rk4 with t_end > 0")
    else:
        traj = evolve_rk4(spec, c0, cfg, flux_rate=resolved["flux_rate"])
    prefix = resolved["output_prefix"]
    write_trajectory_csv(traj, f"{prefix}_trajectory.csv")
    write_observables_csv(traj, f"{prefix}_observables.csv")
    print(
        f"evolve: recorded={len(traj)} t_end={float(traj.times[-1])!r} "
        f"weight_final={float(traj.weight[-1])!r} output_prefix={prefix}"
    )
    return 0


# ---------------------------------------------------------------------------
# bloch

_BLOCH_FIELDS = _LATTICE_FIELDS + _STATE_FIELDS + (
    ("periods", "float", 3.0),
    ("steps_per_period", "int", 10000),
    ("record_every", "int", 20),
    ("renormalize", "bool", False),
    ("output_prefix", "str", "bloch"),
)

# Pinned Bloch-oscillation demos: 16-site chain (n = 0..15), F = -0.6,
# Gaussian w = 3 at the chain center, 3 Bloch periods at dt = T_B/10^4.
# The two presets differ only in kappa2: 1 (reciprocal) vs 0 (unidirectional).
_BLOCH_PRESET_COMMON = {
    "geometry": "chain",
    "sites": 16,
    "window": None,
    "kappa1": [1.0, 0.0],
    "force": -0.6,
    "initial": "gaussian",
    "site": None,
    "center": 7.5,
    "width": 3.0,
    "periods": 3.0,
    "steps_per_period": 10000,
    "record_every": 20,
    "renormalize": False,
}


def _cmd_bloch(args) -> int:
    preset = None
    if args.fig2a or args.fig2b:
        preset = dict(_BLOCH_PRESET_COMMON)
        preset["kappa2"] = [1.0, 0.0] if args.fig2a else [0.0, 0.0]
    resolved = _resolve(args, _BLOCH_FIELDS, preset)
    spec = _lattice_spec(resolved)
    _fill_state_defaults(resolved, spec)
    if resolved["force"] == 0.0:
        raise ValidationError("Bloch oscillations need a nonzero force")
    t_b = 2.0 * math.pi / abs(resolved["force"])
    cfg = _evolve_config(resolved, resolved["periods"] * t_b, _period_step(t_b, resolved))
    c0 = _initial_state(resolved, spec)
    if _maybe_dump(args, resolved, "bloch"):
        return 0
    traj = evolve_rk4(spec, c0, cfg)
    prefix = resolved["output_prefix"]
    write_trajectory_csv(traj, f"{prefix}_trajectory.csv")
    write_observables_csv(traj, f"{prefix}_observables.csv")
    rev = revival_error(traj, t_b)
    print(f"bloch: T_B={t_b!r} revival_error={rev!r} output_prefix={prefix}")
    return 0


# ---------------------------------------------------------------------------
# floquet

_FLOQUET_FIELDS = (
    ("sites", "int", _REQUIRED),
    ("kappa1", "complex", [1.0, 0.0]),
    ("kappa2", "complex", [0.0, 0.0]),
    ("phi0_rate", "float", 1.0),
    ("steps_per_period", "int", 10000),
    ("output", "str", "floquet.json"),
)


def _cmd_floquet(args) -> int:
    resolved = _resolve(args, _FLOQUET_FIELDS)
    kappa1 = pair_to_complex(resolved["kappa1"])
    kappa2 = pair_to_complex(resolved["kappa2"])
    spec = LatticeSpec(
        geometry=Geometry.Ring, kappa1=kappa1, kappa2=kappa2, sites=resolved["sites"]
    )
    drive = FluxDrive(phi0_rate=resolved["phi0_rate"], sites=resolved["sites"])
    dt = _period_step(drive.period, resolved)
    if _maybe_dump(args, resolved, "floquet"):
        return 0
    report = monodromy(spec, drive, dt)
    analytic = None
    if kappa2 == 0j:
        analytic = [
            complex_to_pair(z) for z in quasi_energies_analytic(kappa1, drive).mu
        ]
    max_mu = float(np.max(np.abs(report.mu))) if report.mu.size else 0.0
    out = {
        "sites": resolved["sites"],
        "phi0_rate": resolved["phi0_rate"],
        "force": drive.force,
        "period": drive.period,
        "dt": dt,
        "monodromy_defect": report.monodromy_defect,
        "quasi_energies": [complex_to_pair(z) for z in report.mu],
        "analytic": analytic,
        "max_abs_mu": max_mu,
    }
    dump_json(out, resolved["output"])
    print(
        f"floquet: sites={resolved['sites']} monodromy_defect={report.monodromy_defect!r} "
        f"max_abs_mu={max_mu!r} output={resolved['output']}"
    )
    return 0


# ---------------------------------------------------------------------------
# engineer

_ENGINEER_FIELDS = (
    ("theta", "float", _REQUIRED),
    ("x", "float", _REQUIRED),
    ("gamma_guess", "complex", _REQUIRED),
    ("kappa", "float", 1.0),
    ("output", "str", "engineer.json"),
)


def _cmd_engineer(args) -> int:
    resolved = _resolve(args, _ENGINEER_FIELDS)
    theta, x = resolved["theta"], resolved["x"]
    kappa = resolved["kappa"]
    guess = pair_to_complex(resolved["gamma_guess"])
    protocol = ModulationProtocol.with_shape(theta, x, guess)
    _require_sin_theta(theta)
    if _maybe_dump(args, resolved, "engineer"):
        return 0
    at_guess = effective_hopping(protocol, kappa)
    root = solve_unidirectional(theta, x, guess)
    rho = kappa * root.rho
    abs_sigma = abs(kappa) * root.residual
    out = {
        "theta": theta,
        "x": x,
        "kappa": kappa,
        "gamma_guess": resolved["gamma_guess"],
        "at_guess": {
            "rho": complex_to_pair(at_guess.rho),
            "sigma": complex_to_pair(at_guess.sigma),
        },
        "gamma": complex_to_pair(root.gamma),
        "rho": complex_to_pair(rho),
        "abs_sigma": abs_sigma,
        "iterations": root.iterations,
    }
    dump_json(out, resolved["output"])
    print(
        f"engineer: gamma={format_complex(root.gamma)} rho={format_complex(rho)} "
        f"abs_sigma={abs_sigma:.3e} iterations={root.iterations} "
        f"output={resolved['output']}"
    )
    return 0


# ---------------------------------------------------------------------------
# rwa

_RWA_FIELDS = (
    ("theta", "float", _REQUIRED),
    ("x", "float", _REQUIRED),
    ("gamma", "complex", _REQUIRED),
    ("period", "float", 1.0),
    ("kappa", "float", 1.0),
    ("ratios", "floats", [5.0, 10.0, 20.0]),
    ("sites", "int", 10),
    ("site", "int", None),
    ("t_end", "float", None),
    ("output", "str", "rwa.csv"),
)


def _cmd_rwa(args) -> int:
    resolved = _resolve(args, _RWA_FIELDS)
    kappa = resolved["kappa"]
    if resolved["t_end"] is None:
        resolved["t_end"] = (
            2.0 * math.pi / abs(kappa) if kappa != 0.0 else resolved["period"]
        )
    if resolved["site"] is None:
        resolved["site"] = resolved["sites"] // 2
    sites = resolved["sites"]
    if not 0 <= resolved["site"] < sites:
        raise ValidationError(f"site {resolved['site']} is outside 0..{sites - 1}")
    protocol = ModulationProtocol.with_shape(
        resolved["theta"],
        resolved["x"],
        pair_to_complex(resolved["gamma"]),
        period=resolved["period"],
    )
    if _maybe_dump(args, resolved, "rwa"):
        return 0
    amps = np.zeros(sites, dtype=complex)
    amps[resolved["site"]] = 1.0
    samples = rwa_validate(
        protocol,
        kappa,
        resolved["ratios"],
        sites,
        StateVector(offset=0, amps=amps),
        resolved["t_end"],
    )
    write_rwa_csv(samples, resolved["output"])
    discs = [s.discrepancy for s in samples]
    decreasing = all(b < a for a, b in zip(discs, discs[1:]))
    listing = ", ".join(f"{d:.3e}" for d in discs)
    print(
        f"rwa: discrepancies=[{listing}] strictly_decreasing={decreasing} "
        f"output={resolved['output']}"
    )
    return 0


# ---------------------------------------------------------------------------
# laser

_LASER_FIELDS = _STATE_FIELDS + (
    ("gain", "float", 0.0),
    ("loss", "float", 0.0),
    ("dg", "float", 0.0),
    ("delta_am", "float", _REQUIRED),
    ("delta_fm", "float", _REQUIRED),
    ("phi", "float", 0.0),
    ("detuning", "float", 0.0),
    ("n_min", "int", _REQUIRED),
    ("n_max", "int", _REQUIRED),
    ("t_end", "float", _REQUIRED),
    ("dt", "float", _REQUIRED),
    ("record_every", "int", 1),
    ("renormalize", "bool", False),
    ("output_prefix", "str", "laser"),
)


def _cmd_laser(args) -> int:
    resolved = _resolve(args, _LASER_FIELDS)
    params = LaserParams(
        gain=resolved["gain"],
        loss=resolved["loss"],
        dg=resolved["dg"],
        delta_am=resolved["delta_am"],
        delta_fm=resolved["delta_fm"],
        phi=resolved["phi"],
        detuning=resolved["detuning"],
    )
    window_spec = LatticeSpec(
        geometry=Geometry.InfiniteChain,
        kappa1=0j,
        window=(resolved["n_min"], resolved["n_max"]),
    )
    _fill_state_defaults(resolved, window_spec)
    cfg = _evolve_config(resolved, resolved["t_end"], resolved["dt"])
    c0 = _initial_state(resolved, window_spec)
    if _maybe_dump(args, resolved, "laser"):
        return 0
    traj = laser_evolve(params, c0, cfg)
    prefix = resolved["output_prefix"]
    write_trajectory_csv(traj, f"{prefix}_trajectory.csv")
    write_observables_csv(traj, f"{prefix}_observables.csv")
    print(
        f"laser: recorded={len(traj)} weight_final={float(traj.weight[-1])!r} "
        f"output_prefix={prefix}"
    )
    return 0


# ---------------------------------------------------------------------------
# dump-h

_DUMP_H_FIELDS = _LATTICE_FIELDS + (("output", "str", "hamiltonian.json"),)


def _cmd_dump_h(args) -> int:
    resolved = _resolve(args, _DUMP_H_FIELDS)
    spec = _lattice_spec(resolved)
    if _maybe_dump(args, resolved, "dump-h"):
        return 0
    h = build_hamiltonian(spec)
    dump_json(matrix_to_dict(h), resolved["output"])
    print(f"dump-h: dim={h.dim} offset={h.offset} output={resolved['output']}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly and entry point

# Help sentence per field name, shared by every subcommand that has the field.
_HELP = {
    "config": "JSON config; flags override its keys",
    "dump_config": "write the resolved config JSON and exit without running",
    "sites": "site count (chain/ring)",
    "window": "site window (infinite)",
    "kappa1": "forward hopping (complex literal)",
    "kappa2": "backward hopping (complex literal)",
    "force": "dc force F per site",
    "site": "site of the single-site excitation",
    "center": "gaussian center (may be fractional)",
    "width": "gaussian width w in exp[-(n-c)^2/w^2]",
    "samples": "recorded times for the closed form",
    "flux_rate": "ring Peierls phase rate F",
    "periods": "duration in Bloch periods",
    "phi0_rate": "flux quanta threaded per unit time",
    "gamma": "drive area Gamma (complex literal)",
    "period": "base protocol period",
    "ratios": "drive rates omega/kappa",
    "dg": "gain-bandwidth curvature",
    "phi": "AM/FM relative phase",
    "detuning": "modulator detuning = force per mode",
}

# Field kind -> argparse keywords.  Every flag defaults to None, meaning "not
# given", so _resolve can fall back to the config file and then the default.
_ARGPARSE = {
    "int": {"type": int},
    "float": {"type": float},
    "bool": {"action": argparse.BooleanOptionalAction, "default": None},
    "ints2": {"nargs": 2, "type": int, "metavar": ("MIN", "MAX")},
    "complex": {"metavar": "A+BI"},
    "floats": {"metavar": "R1,R2,..."},
    "str": {},
}

_COMMANDS = (
    ("spectrum", "eigenvalues, Jordan structure, EP order", _SPECTRUM_FIELDS, _cmd_spectrum),
    ("evolve", "time evolution (closed form or RK4)", _EVOLVE_FIELDS, _cmd_evolve),
    ("bloch", "Bloch-oscillation runs (with pinned presets)", _BLOCH_FIELDS, _cmd_bloch),
    ("floquet", "flux-driven ring: monodromy and quasi-energies", _FLOQUET_FIELDS, _cmd_floquet),
    ("engineer", "solve sigma = 0 for the drive area Gamma", _ENGINEER_FIELDS, _cmd_engineer),
    ("rwa", "stroboscopic check of the effective model", _RWA_FIELDS, _cmd_rwa),
    ("laser", "mode-locked-laser modal dynamics", _LASER_FIELDS, _cmd_laser),
    ("dump-h", "write the Hamiltonian matrix as JSON", _DUMP_H_FIELDS, _cmd_dump_h),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="unihop",
        description="Spectra and dynamics of lattices with unidirectional hopping.",
        epilog="Exit codes: 0 ok, 1 usage, 2 validation, 3 computation, 4 I/O.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, summary, fields, handler in _COMMANDS:
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", metavar="FILE", help=_HELP["config"])
        p.add_argument("--dump-config", metavar="PATH", help=_HELP["dump_config"])
        for name, kind, _ in fields:
            if isinstance(kind, tuple):  # ("choice", options)
                kwargs = {"choices": kind[1]}
            else:
                kwargs = _ARGPARSE[kind]
            p.add_argument("--" + name.replace("_", "-"), help=_HELP.get(name), **kwargs)
        if command == "bloch":
            group = p.add_mutually_exclusive_group()
            group.add_argument(
                "--fig2a", action="store_true", help="reciprocal demo (kappa2 = 1)"
            )
            group.add_argument(
                "--fig2b", action="store_true", help="unidirectional demo (kappa2 = 0)"
            )
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise _UsageError("a subcommand is required (see --help)")
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (ComputationError, MemoryError) as exc:  # numpy's MemoryError names the size
        print(f"computation error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
