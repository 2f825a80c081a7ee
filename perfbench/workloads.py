"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload is a fixed list of operations built from the seed alone.  An
operation is either an in-process call into the public ``unihop`` API
(``run``) or one ``unihop.cli`` command line (``argv``).  Its ``check`` runs
outside the timed region: it raises :class:`WrongAnswer` when the output is
wrong and otherwise returns the errors measured against an independent
reference, keyed by accuracy kind (see ``ACCURACY``).
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from unihop import (
    EvolveConfig,
    FluxDrive,
    Geometry,
    LaserParams,
    LatticeSpec,
    ModulationProtocol,
    StateVector,
    analyze_spectrum,
    build_hamiltonian,
    effective_hopping,
    effective_hopping_quadrature,
    evolve_closed_form,
    evolve_rk4,
    gaussian_state,
    laser_evolve,
    monodromy,
    ring_spectrum,
    rwa_validate,
    solve_unidirectional,
    wannier_stark_states,
)

WORKLOADS = ("cli-paper", "ep-scan", "wide-window", "drive-sweep")

# Accuracy kinds each workload measures; ``accuracy_digits`` is the mean of
# their -log10(worst error).  A kind with no measurement scores 0 digits.
ACCURACY = {
    "cli-paper": ("revival", "monodromy"),
    "ep-scan": ("ws_residual", "ring"),
    "wide-window": ("rk4_closed",),
    "drive-sweep": ("monodromy", "quadrature"),
}

# Worked engineering point of the paper (sigma = 0 root at theta = pi/2, x = 0.8).
GAMMA_STAR = 3.0017822918018364 + 0.6994075768635631j


class WrongAnswer(Exception):
    """An operation returned an answer that fails its correctness check."""


@dataclass
class Op:
    name: str
    check: Callable
    run: Callable | None = None  # in-process: check(result)
    argv: list[str] | None = None  # CLI: check(stdout, workdir)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _phase(rng: np.random.Generator) -> complex:
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _literal(z: complex) -> str:
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operation list; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _OPS_BY_WORKLOAD[workload](rng)
    assert len({op.name for op in ops}) == len(ops), "op names must be unique"
    return ops


# ---------------------------------------------------------------------------
# cli-paper: the README command lines, one fresh process each


def _json(workdir: Path, name: str) -> dict:
    return json.loads((workdir / name).read_text())


def _csv_rows(workdir: Path, name: str) -> list[list[str]]:
    with open(workdir / name, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _stdout_value(stdout: str, key: str) -> float:
    for token in stdout.split():
        if token.startswith(key + "="):
            return float(token.split("=", 1)[1])
    raise WrongAnswer(f"{key} missing from stdout")


def _cli_ops(rng: np.random.Generator) -> list[Op]:
    k_chain, k_forced, k_ring, k_evolve, k_floquet, k_dump = (_phase(rng) for _ in range(6))
    k_dump *= abs(1 - 2j)

    def chain_ep(stdout, wd):
        rep = _json(wd, "spectrum.json")
        _require(len(rep["clusters"]) == 1, "chain must form one cluster")
        _require(rep["clusters"][0]["ep_order"] == 16, "EP order must be 16")
        return {}

    def forced_ladder(stdout, wd):
        ev = np.array([complex(*p) for p in _json(wd, "spectrum.json")["eigenvalues"]])
        ev = ev[np.argsort(ev.real)]
        _require(np.max(np.abs(ev.real - 0.6 * np.arange(16))) <= 1e-9, "ladder 0..9.0")
        _require(np.max(np.abs(ev.imag)) <= 1e-10, "ladder must be real")
        return {}

    def ring_circle(stdout, wd):
        rep = _json(wd, "spectrum.json")
        ev = np.array([complex(*p) for p in rep["eigenvalues"]])
        _require(rep["ring_check"] == "ok", "ring cross-check missing")
        _require(np.max(np.abs(np.abs(ev) - 1.0)) <= 1e-12, "ring spectrum off the unit circle")
        return {}

    def evolve_closed(stdout, wd):
        rows = _csv_rows(wd, "evolve_trajectory.csv")[-4:]
        got = np.array([complex(float(r[2]), float(r[3])) for r in rows])
        z = -1j * k_evolve
        want = np.array([z ** (3 - n) / math.factorial(3 - n) for n in range(4)])
        _require(float(rows[0][0]) == 1.0, "last record must be t = 1")
        _require(np.max(np.abs(got - want)) <= 1e-12, "closed-form kernel mismatch")
        return {}

    def fig2b(stdout, wd):
        rev = _stdout_value(stdout, "revival_error")
        _require(rev <= 1e-4, f"fig2b revival {rev:.3e} > 1e-4")
        return {"revival": rev}

    def fig2a(stdout, wd):
        rev = _stdout_value(stdout, "revival_error")
        _require(rev > 0.1, f"fig2a revival {rev:.3e} <= 0.1")
        return {}

    def floquet(stdout, wd):
        rep = _json(wd, "floquet.json")
        _require(rep["monodromy_defect"] <= 1e-6, "monodromy defect > 1e-6")
        _require(rep["max_abs_mu"] <= 1e-6 * abs(rep["force"]), "quasi-energies not collapsed")
        return {"monodromy": rep["monodromy_defect"]}

    def engineer(stdout, wd):
        abs_sigma = _json(wd, "engineer.json")["abs_sigma"]
        _require(abs_sigma <= 1e-10, f"abs_sigma {abs_sigma:.3e} > 1e-10")
        return {}

    def rwa(stdout, wd):
        discs = [float(r[3]) for r in _csv_rows(wd, "rwa.csv")]
        _require(len(discs) == 3, "three rwa ratios expected")
        _require(all(b < a for a, b in zip(discs, discs[1:])), "rwa not strictly decreasing")
        return {}

    def laser(stdout, wd):
        weight = float(_csv_rows(wd, "laser_observables.csv")[-1][2])
        _require(math.isfinite(weight) and weight > 0, "laser weight not finite")
        return {}

    def dump_h(stdout, wd):
        rep = _json(wd, "hamiltonian.json")
        got = np.array([complex(*p) for p in rep["entries"]])
        want = np.array([-0.5, k_dump, 0, 0])
        _require(rep["dim"] == 2 and rep["offset"] == -1, "window shape")
        _require(np.max(np.abs(got - want)) <= 1e-15 * abs(k_dump), "matrix entries")
        return {}

    ops = [
        Op("spectrum-chain", chain_ep,
           argv=["spectrum", "--geometry", "chain", "--sites", "16", "--kappa1=" + _literal(k_chain)]),
        Op("spectrum-forced", forced_ladder,
           argv=["spectrum", "--geometry", "chain", "--sites", "16", "--force", "0.6",
                 "--kappa1=" + _literal(k_forced)]),
        Op("spectrum-ring", ring_circle,
           argv=["spectrum", "--geometry", "ring", "--sites", "4", "--kappa1=" + _literal(k_ring)]),
        Op("evolve-closed", evolve_closed,
           argv=["evolve", "--geometry", "chain", "--sites", "4", "--site", "3",
                 "--method", "closed", "--t-end", "1", "--kappa1=" + _literal(k_evolve)]),
        Op("bloch-fig2b", fig2b, argv=["bloch", "--fig2b"]),
        Op("bloch-fig2a", fig2a, argv=["bloch", "--fig2a"]),
        Op("floquet", floquet, argv=["floquet", "--sites", "6", "--kappa1=" + _literal(k_floquet)]),
        Op("engineer", engineer,
           argv=["engineer", "--theta", "1.5707963267948966", "--x", "0.8",
                 "--gamma-guess", "3+0.7i"]),
        Op("rwa", rwa,
           argv=["rwa", "--theta", "1.5707963267948966", "--x", "0.8",
                 "--gamma=" + _literal(GAMMA_STAR)]),
        Op("laser", laser,
           argv=["laser", "--delta-am", "0.5", "--delta-fm", "0.5",
                 "--phi", "-1.5707963267948966", "--detuning", "-0.6",
                 "--n-min", "-15", "--n-max", "15", "--initial", "gaussian",
                 "--t-end", "1", "--dt", "0.002"]),
        Op("dump-h", dump_h,
           argv=["dump-h", "--geometry", "infinite", "--window", "-1", "0",
                 "--kappa1=" + _literal(k_dump), "--force", "0.5"]),
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# ep-scan: Jordan structure of the truncated chain, ladders and ring spectra


def _ep_ops(rng: np.random.Generator) -> list[Op]:
    ops = []
    for n in (32, 64, 128, 160):
        for mag in (1e-3, 1e-1, 1.0, 10.0, 1e3):
            spec = LatticeSpec(geometry=Geometry.FiniteChain, kappa1=mag * _phase(rng), sites=n)

            def check(report, n=n):
                _require(len(report.clusters) == 1, "chain must form one cluster")
                _require(report.clusters[0].ep_order == n, f"EP order must be {n}")
                return {}

            ops.append(Op(f"analyze-chain-N{n}-k{mag:g}", check,
                          run=lambda spec=spec: analyze_spectrum(build_hamiltonian(spec))))
    for n in (64, 128, 256):
        force = 0.6
        spec = LatticeSpec(geometry=Geometry.FiniteChain, kappa1=_phase(rng), force=force, sites=n)

        def run_forced(spec=spec):
            h = build_hamiltonian(spec)
            return h, analyze_spectrum(h), wannier_stark_states(spec, range(spec.dim))

        def check_forced(result, n=n, force=force):
            h, report, ladder = result
            ev = np.sort_complex(np.asarray(report.eigenvalues))
            dev = float(np.max(np.abs(ev.real - force * np.arange(n))))
            _require(dev <= 1e-9, f"ladder deviation {dev:.3e} > 1e-9")
            _require(float(np.max(np.abs(ev.imag))) <= 1e-10, "ladder must be real")
            h_norm = float(np.linalg.norm(h.entries, 2))
            worst = 0.0
            for state in ladder:
                a = np.asarray(state.amplitudes.amps)
                r = float(np.linalg.norm(h.entries @ a - state.energy * a))
                worst = max(worst, r / (h_norm * float(np.linalg.norm(a))))
            _require(worst <= 1e-10, f"ladder-state residual {worst:.3e} > 1e-10")
            return {"ws_residual": worst}

        ops.append(Op(f"forced-ladder-N{n}", check_forced, run=run_forced))
    for n in (64, 128, 256):
        spec = LatticeSpec(geometry=Geometry.Ring, kappa1=_phase(rng), sites=n)

        def check_ring(report, spec=spec):
            dense = np.linalg.eigvals(build_hamiltonian(spec).entries)
            ev = np.asarray(report.eigenvalues)
            gap = float(np.max(np.min(np.abs(ev[:, None] - dense[None, :]), axis=1)))
            _require(gap <= 1e-10, f"ring spectrum off by {gap:.3e}")
            return {"ring": gap}

        ops.append(Op(f"ring-N{n}", check_ring, run=lambda spec=spec: ring_spectrum(spec)))
    return ops


# ---------------------------------------------------------------------------
# wide-window: dense O(N^2) generators on wide windows of the infinite chain


def _wide_ops(rng: np.random.Generator) -> list[Op]:
    ops = []
    for n in (2048, 4096):
        spec = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=_phase(rng), window=(-n // 2, n // 2 - 1)
        )
        c0 = gaussian_state(spec, center=rng.uniform(-4.0, 4.0), width=3.0)
        cfg = EvolveConfig(t_end=1.0, dt=0.02, record_every=10)  # 50 steps

        def run(spec=spec, c0=c0, cfg=cfg):
            traj = evolve_rk4(spec, c0, cfg)
            return traj, evolve_closed_form(spec, c0, traj.times)

        def check(result):
            traj, exact = result
            _require(len(traj) == 6, "6 records expected")
            num = np.linalg.norm(traj.amps - exact.amps, axis=1)
            dev = float(np.max(num / np.linalg.norm(exact.amps, axis=1)))
            _require(dev <= 1e-6, f"rk4 deviates from the closed form by {dev:.3e}")
            return {"rk4_closed": dev}

        ops.append(Op(f"rk4-vs-closed-N{n}", check, run=run))

    params = LaserParams(gain=0.0, loss=0.0, dg=0.0, delta_am=0.5, delta_fm=0.5,
                         phi=-math.pi / 2, detuning=-0.6)
    window = LatticeSpec(geometry=Geometry.InfiniteChain, kappa1=0j, window=(-1024, 1024))
    c0 = gaussian_state(window, center=rng.uniform(-4.0, 4.0), width=3.0)
    dt = 0.05 / (0.6 * window.dim) * (1.0 - 1e-9)  # the largest step the monitor accepts
    cfg = EvolveConfig(t_end=200 * dt, dt=dt, record_every=20)

    def check_laser(traj):
        _require(len(traj) == 11, "11 records expected")
        weight = float(traj.weight[-1])
        _require(math.isfinite(weight) and weight > 0, "laser weight not finite")
        return {}

    ops.append(Op("laser-2049", check_laser, run=lambda: laser_evolve(params, c0, cfg)))
    return ops


# ---------------------------------------------------------------------------
# drive-sweep: flux-driven rings and the modulation protocol


def _drive_ops(rng: np.random.Generator) -> list[Op]:
    ops = []
    for n in (2, 4, 6, 9, 12):
        drive = FluxDrive(phi0_rate=1.0, sites=n)
        for j, kappa1 in enumerate((2.0, rng.uniform(0.5, 2.0) * _phase(rng))):
            spec = LatticeSpec(geometry=Geometry.Ring, kappa1=kappa1, sites=n)

            def check(report, drive=drive):
                defect = report.monodromy_defect
                _require(defect <= 1e-6, f"monodromy defect {defect:.3e} > 1e-6")
                mu = float(np.max(np.abs(report.mu))) / abs(drive.force)
                _require(mu <= 1e-6, f"|mu|/F {mu:.3e} > 1e-6")
                return {"monodromy": defect}

            ops.append(Op(f"monodromy-N{n}-{('fixed', 'seeded')[j]}", check,
                          run=lambda spec=spec, drive=drive: monodromy(
                              spec, drive, dt=drive.period / 10**4)))
    for i in range(100):
        protocol = ModulationProtocol.with_shape(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(0.05, 0.95),
            complex(rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0)),
            period=rng.uniform(0.2, 3.0),
        )

        def check_hopping(closed, protocol=protocol):
            quad = effective_hopping_quadrature(protocol)
            gap = max(abs(closed.rho - quad.rho), abs(closed.sigma - quad.sigma))
            _require(gap <= 1e-8, f"quadrature gap {gap:.3e} > 1e-8")
            return {"quadrature": gap}

        ops.append(Op(f"hopping-{i}", check_hopping,
                      run=lambda protocol=protocol: effective_hopping(protocol)))
    for j, theta in enumerate((math.pi / 2, rng.uniform(0.4, 0.6) * math.pi)):
        amps = np.zeros(10, dtype=complex)
        amps[5] = 1.0
        c0 = StateVector(offset=0, amps=amps)

        def run(theta=theta, c0=c0):
            root = solve_unidirectional(theta, 0.8, 3.0 + 0.7j)
            protocol = ModulationProtocol.with_shape(theta, 0.8, root.gamma)
            return root, rwa_validate(protocol, 1.0, [5.0, 10.0, 20.0], 10, c0, 2.0 * math.pi)

        def check(result):
            root, samples = result
            _require(root.residual <= 1e-10, f"|sigma| {root.residual:.3e} > 1e-10")
            discs = [s.discrepancy for s in samples]
            _require(all(b < a for a, b in zip(discs, discs[1:])), "rwa not strictly decreasing")
            return {}

        ops.append(Op(f"engineer-rwa-{('paper', 'seeded')[j]}", check, run=run))
    return ops


_OPS_BY_WORKLOAD = {
    "cli-paper": _cli_ops,
    "ep-scan": _ep_ops,
    "wide-window": _wide_ops,
    "drive-sweep": _drive_ops,
}
