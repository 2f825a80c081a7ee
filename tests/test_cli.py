"""End-to-end command-line tests (in-process via main(argv))."""

import json
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import unihop
from unihop import cli, engineering, floquet, lattice, spectral
from unihop.cli import main

GAMMA_STAR = 3.0017822918018364 + 0.6994075768635631j


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    yield tmp_path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumCommand:
    @pytest.mark.parametrize("kappa1", ["1e-3", "1000"])
    def test_full_order_ep_far_from_unit_hopping(self, capsys, tmp_path, kappa1):
        code, out, _ = run(
            ["spectrum", "--geometry", "chain", "--sites", "120", "--kappa1", kappa1],
            capsys,
        )
        assert code == 0
        assert "max_ep_order=120" in out

    def test_full_order_ep_of_a_256_site_chain(self, capsys):
        code, out, _ = run(["spectrum", "--geometry", "chain", "--sites", "256"], capsys)
        assert code == 0
        assert "max_ep_order=256" in out

    def test_truncated_chain_reports_full_order_ep(self, capsys, tmp_path):
        code, out, _ = run(
            ["spectrum", "--geometry", "chain", "--sites", "16", "--output", "s.json"],
            capsys,
        )
        assert code == 0
        assert "max_ep_order=16" in out
        data = json.loads((tmp_path / "s.json").read_text())
        assert data["dim"] == 16
        assert data["is_defective"] is True
        assert data["ring_check"] is None
        (cluster,) = data["clusters"]
        assert cluster["ep_order"] == 16
        assert cluster["jordan_blocks"] == [16]

    def test_forced_chain_ladder(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "spectrum", "--geometry", "chain", "--sites", "16",
                "--force", "0.6", "--output", "ws.json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "ws.json").read_text())
        assert data["is_defective"] is False
        values = sorted(re for re, im in data["eigenvalues"])
        assert np.allclose(values, [0.6 * l for l in range(16)], atol=1e-9)
        assert max(abs(im) for re, im in data["eigenvalues"]) <= 1e-10

    @pytest.mark.parametrize(
        "argv, clusters",
        [
            (["--geometry", "chain", "--sites", "16", "--force", "1e-8"], 6),
            (["--geometry", "chain", "--sites", "16", "--force", "1e-12"], 1),
            (["--geometry", "chain", "--sites", "16", "--kappa1", "0", "--kappa2", "1",
              "--force", "1e-8"], 6),
            (["--geometry", "infinite", "--window", "100000000", "100000015", "--force", "1"], 1),
        ],
        ids=["force-delta", "force-1e-12", "kappa1-0", "far-window"],
    )
    def test_forced_one_way_lattice_has_no_exceptional_point(self, capsys, tmp_path, argv, clusters):
        # a forced one-way lattice is bidiagonal with distinct diagonal entries
        # F n: N simple levels, also where levels spaced within delta * s share
        # a cluster
        code, out, _ = run(["spectrum", *argv, "--vectors", "--output", "s.json"], capsys)
        assert code == 0
        assert f"dim=16 clusters={clusters} max_ep_order=1 defective=False" in out
        data = json.loads((tmp_path / "s.json").read_text())
        assert all(c["jordan_blocks"] == [1] * c["multiplicity"] for c in data["clusters"])
        assert len(data["eigenvectors"]) == 16

    def test_ring_cross_check(self, capsys, tmp_path):
        code, out, _ = run(
            ["spectrum", "--geometry", "ring", "--sites", "4", "--output", "r.json"],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["ring_check"] == "ok"
        for re_part, im_part in data["eigenvalues"]:
            assert abs(complex(re_part, im_part)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "hopping",
        [[], ["--kappa1", "0.8-0.6i", "--kappa2", "0.8-0.6i"], ["--kappa1", "0", "--kappa2", "0"]],
        ids=["one-way", "two-way-equal", "zero"],
    )
    def test_free_ring_takes_the_closed_form_alone(self, capsys, tmp_path, monkeypatch, hopping):
        # the F = 0 ring forms no dense H and calls no eigensolver; a chain
        # and a forced ring still take the dense engine and write null
        def refuse(*args, **kwargs):
            raise AssertionError("spectrum called an eigensolver or built a dense H")

        with monkeypatch.context() as patch:
            for name in ("eig", "eigvals"):
                patch.setattr(np.linalg, name, refuse)
            patch.setattr(lattice, "_dense", refuse)
            argv = ["spectrum", "--geometry", "ring", "--sites", "16", *hopping]
            assert run(argv, capsys)[::2] == (0, "")
        data = json.loads((tmp_path / "spectrum.json").read_text())
        assert data["ring_check"] == "ok"
        assert data["is_defective"] is False
        assert sum(c["multiplicity"] for c in data["clusters"]) == 16
        for argv in (["--geometry", "chain"], ["--geometry", "ring", "--force", "0.5"]):
            assert run(["spectrum", "--sites", "16", *argv, *hopping], capsys)[0] == 0
            assert json.loads((tmp_path / "spectrum.json").read_text())["ring_check"] is None

    def test_vectors_flag(self, capsys, tmp_path):
        code, _, _ = run(
            [
                "spectrum", "--geometry", "chain", "--sites", "3",
                "--force", "1.0", "--vectors", "--output", "v.json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "v.json").read_text())
        assert data["eigenvectors"] is not None
        assert len(data["eigenvectors"]) == 3

    def test_dump_config_skips_the_run(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "spectrum", "--geometry", "chain", "--sites", "4",
                "--dump-config", "cfg.json", "--output", "s.json",
            ],
            capsys,
        )
        assert code == 0
        assert "resolved config written" in out
        assert not (tmp_path / "s.json").exists()
        cfg = json.loads((tmp_path / "cfg.json").read_text())
        assert cfg["geometry"] == "chain"
        assert cfg["sites"] == 4
        assert cfg["kappa1"] == [1.0, 0.0]
        assert "cluster_tol" not in cfg

    def test_cluster_tol_flag_is_gone(self, capsys, tmp_path):
        code, _, err = run(
            ["spectrum", "--geometry", "chain", "--sites", "4", "--cluster-tol", "1e-8"], capsys
        )
        assert code == 1
        assert "--cluster-tol" in err
        assert list(tmp_path.iterdir()) == []

    def test_cluster_tol_is_an_unknown_config_key(self, capsys, tmp_path):
        # a config dumped before the clustering distance became a constant
        (tmp_path / "c.json").write_text(
            json.dumps({"geometry": "chain", "sites": 4, "cluster_tol": 1e-8})
        )
        code, out, err = run(["spectrum", "--config", "c.json"], capsys)
        assert code == 2
        assert out == ""
        assert err == "validation error: unknown config keys: ['cluster_tol']\n"
        assert not (tmp_path / "spectrum.json").exists()


class TestEvolveCommand:
    def test_closed_form_trajectory_files(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "evolve", "--geometry", "chain", "--sites", "4", "--site", "3",
                "--method", "closed", "--t-end", "1.0", "--samples", "3",
                "--output-prefix", "run",
            ],
            capsys,
        )
        assert code == 0
        traj_lines = (tmp_path / "run_trajectory.csv").read_text().splitlines()
        assert traj_lines[0] == "t,site,re,im"
        assert len(traj_lines) == 1 + 3 * 4
        obs_lines = (tmp_path / "run_observables.csv").read_text().splitlines()
        assert obs_lines[0] == "t,com,weight,revival"
        assert len(obs_lines) == 1 + 3
        final = {}
        for line in traj_lines[1:]:
            t, site, re_part, im_part = line.split(",")
            if float(t) == 1.0:
                final[int(site)] = complex(float(re_part), float(im_part))
        assert final[0] == pytest.approx(1j / 6, abs=1e-12)
        assert final[3] == pytest.approx(1.0, abs=1e-12)

    def test_t_end_zero_emits_initial_state_only(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "evolve", "--geometry", "chain", "--sites", "3", "--site", "1",
                "--t-end", "0",
            ],
            capsys,
        )
        assert code == 0
        assert "recorded=1" in out
        obs = (tmp_path / "evolve_observables.csv").read_text().splitlines()
        assert len(obs) == 2
        assert float(obs[1].split(",")[1]) == 1.0  # com stays at site 1

    def test_rk4_needs_dt(self, capsys):
        code, _, err = run(
            ["evolve", "--geometry", "chain", "--sites", "3", "--t-end", "1.0"],
            capsys,
        )
        assert code == 1
        assert "--dt is required" in err

    def test_flux_rate_requires_rk4(self, capsys):
        code, _, err = run(
            [
                "evolve", "--geometry", "ring", "--sites", "4", "--method", "closed",
                "--t-end", "1.0", "--flux-rate", "0.5",
            ],
            capsys,
        )
        assert code == 2
        assert "flux_rate requires the rk4 method" in err

    @pytest.mark.parametrize(
        "flag, name",
        [
            (["--renormalize"], "renormalize"),
            (["--record-every", "7"], "record_every"),
            (["--dt", "0.5"], "dt"),
        ],
        ids=["renormalize", "record-every", "dt"],
    )
    def test_step_options_require_rk4(self, capsys, flag, name):
        # the closed form has no step to size, thin or renormalize
        code, _, err = run(
            [
                "evolve", "--geometry", "chain", "--sites", "8", "--method", "closed",
                "--t-end", "3", "--samples", "4", *flag,
            ],
            capsys,
        )
        assert code == 2
        assert "Traceback" not in err
        assert f"{name} requires the rk4 method" in err

    def test_samples_requires_closed_method(self, capsys, tmp_path):
        # RK4 records every record_every-th step and has no sample count to honour
        code, _, err = run(
            [
                "evolve", "--geometry", "chain", "--sites", "4", "--site", "3",
                "--t-end", "1", "--dt", "0.01", "--samples", "7",
            ],
            capsys,
        )
        assert code == 2
        assert "Traceback" not in err
        assert "samples requires the closed method" in err
        assert not (tmp_path / "evolve_observables.csv").exists()

    def test_rk4_matches_closed_route(self, capsys, tmp_path):
        common = [
            "--geometry", "chain", "--sites", "5", "--site", "4",
            "--kappa1", "0.8-0.3i",
        ]
        assert run(
            ["evolve", *common, "--method", "closed", "--t-end", "1.0",
             "--samples", "11", "--output-prefix", "a"],
            capsys,
        )[0] == 0
        assert run(
            ["evolve", *common, "--method", "rk4", "--t-end", "1.0", "--dt", "0.005",
             "--record-every", "20", "--output-prefix", "b"],
            capsys,
        )[0] == 0
        rows_a = (tmp_path / "a_trajectory.csv").read_text().splitlines()[1:]
        rows_b = (tmp_path / "b_trajectory.csv").read_text().splitlines()[1:]
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            fa, fb = ra.split(","), rb.split(",")
            assert abs(float(fa[0]) - float(fb[0])) < 1e-9
            za = complex(float(fa[2]), float(fa[3]))
            zb = complex(float(fb[2]), float(fb[3]))
            assert abs(za - zb) < 1e-8

    def test_forced_chain_closed_form_revives(self, capsys, tmp_path):
        # one Bloch period of the README forced chain, F = -0.6
        code, _, _ = run(
            [
                "evolve", "--geometry", "chain", "--sites", "16", "--force", "-0.6",
                "--method", "closed", "--t-end", "10.471975511965978",
            ],
            capsys,
        )
        assert code == 0
        last = (tmp_path / "evolve_observables.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[3]) <= 1e-13

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        argv = [
            "evolve", "--geometry", "chain", "--sites", "4", "--site", "3",
            "--method", "closed", "--t-end", "2.0", "--samples", "7",
            "--output-prefix", "rep",
        ]
        assert run(argv, capsys)[0] == 0
        first = (tmp_path / "rep_trajectory.csv").read_bytes()
        assert run(argv, capsys)[0] == 0
        assert (tmp_path / "rep_trajectory.csv").read_bytes() == first


class TestConfigHandling:
    def test_flags_override_config(self, capsys, tmp_path):
        (tmp_path / "c.json").write_text(
            json.dumps({"geometry": "chain", "sites": 4, "t_end": 2.0, "dt": 0.01, "site": 3})
        )
        code, _, _ = run(
            [
                "evolve", "--config", "c.json", "--t-end", "1.0",
                "--dump-config", "d.json",
            ],
            capsys,
        )
        assert code == 0
        resolved = json.loads((tmp_path / "d.json").read_text())
        assert resolved["t_end"] == 1.0
        assert resolved["sites"] == 4

    def test_round_trip_reproduces_output_bytes(self, capsys, tmp_path):
        argv = [
            "evolve", "--geometry", "chain", "--sites", "5", "--initial", "gaussian",
            "--method", "closed", "--t-end", "1.5", "--samples", "9",
            "--output-prefix", "orig",
        ]
        assert run(argv, capsys)[0] == 0
        assert run(argv + ["--dump-config", "cfg.json"], capsys)[0] == 0
        cfg = json.loads((tmp_path / "cfg.json").read_text())
        assert cfg["center"] == 2.0  # derived default was materialized
        cfg["output_prefix"] = "redo"
        (tmp_path / "cfg2.json").write_text(json.dumps(cfg))
        assert run(["evolve", "--config", "cfg2.json"], capsys)[0] == 0
        orig = (tmp_path / "orig_trajectory.csv").read_bytes()
        redo = (tmp_path / "redo_trajectory.csv").read_bytes()
        assert orig == redo

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sites", 16.9), ("renormalize", "false"), ("sites", True),
            ("force", True), ("kappa1", [True, 0.0]), ("window", [-3.5, 4]),
        ],
        ids=["fractional-int", "string-bool", "bool-int", "bool-float", "bool-complex",
             "fractional-ints2"],
    )
    def test_config_values_are_type_checked(self, capsys, tmp_path, key, value):
        # each of these used to be coerced (16.9 -> 16, "false" -> true, true -> 1)
        config = {"geometry": "chain", "sites": 16, "t_end": 1.0, key: value}
        (tmp_path / "c.json").write_text(json.dumps(config))
        code, _, err = run(["evolve", "--config", "c.json", "--dump-config", "d.json"], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--geometry", "infinite", "--window", "-12", "5", "--force", "-0.6",
             "--kappa1", "0.8-0.5i", "--initial", "gaussian", "--t-end", "2",
             "--dt", "0.004", "--renormalize"],
            ["rwa", "--theta", "1.5707963267948966", "--x", "0.8", "--gamma", "3+0.7i",
             "--ratios", "5,10"],
            # a run to t_end = 0 takes no step, so no step rule refuses it
            ["evolve", "--geometry", "chain", "--sites", "4", "--t-end", "0"],
            ["laser", "--delta-am", "0.5", "--delta-fm", "0.5", "--n-min", "-15",
             "--n-max", "15", "--t-end", "0", "--dt", "3"],
        ],
        ids=["evolve", "rwa", "evolve-t-end-0", "laser-t-end-0"],
    )
    def test_dumped_config_reloads_to_the_same_bytes(self, capsys, tmp_path, argv):
        assert run(argv + ["--dump-config", "first.json"], capsys)[0] == 0
        reload = [argv[0], "--config", "first.json", "--dump-config", "second.json"]
        assert run(reload, capsys)[0] == 0
        assert (tmp_path / "second.json").read_bytes() == (tmp_path / "first.json").read_bytes()

    def test_unknown_config_keys_rejected(self, capsys, tmp_path):
        (tmp_path / "c.json").write_text(json.dumps({"geometry": "chain", "bogus": 1}))
        code, _, err = run(["spectrum", "--config", "c.json"], capsys)
        assert code == 2
        assert "unknown config keys" in err

    def test_invalid_json_config(self, capsys, tmp_path):
        for content in (b"{not json", b"\xff\xfe{"):  # bad syntax; bytes that are not UTF-8
            (tmp_path / "c.json").write_bytes(content)
            code, out, err = run(["spectrum", "--geometry", "chain", "--sites", "3",
                                  "--config", "c.json"], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("validation error: config file 'c.json' is not valid JSON: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, key, code",
        [
            (["spectrum", "--geometry", "chain", "--sites", "3"], "output", 0),
            (["spectrum", "--sites", "3"], "geometry", 1),
            (["engineer", "--x", "0.8", "--gamma-guess", "3+0.7i"], "theta", 1),
            (["evolve", "--geometry", "chain", "--sites", "4", "--method", "closed",
              "--t-end", "1"], "samples", 0),
            (["evolve", "--geometry", "chain", "--sites", "4", "--method", "closed"], "t_end", 1),
        ],
        ids=["spectrum-output", "spectrum-geometry", "engineer-theta", "evolve-samples",
             "evolve-t_end"],
    )
    def test_null_config_value_counts_as_not_given(
        self, capsys, tmp_path, monkeypatch, argv, key, code
    ):
        # a default fills the null; a required field is a usage error, as when omitted
        runs = []
        for name, config in (("null", {key: None}), ("omitted", {})):
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            result = run(argv + ["--config", str(tmp_path / f"{name}.json")], capsys)
            files = {p.name: p.read_bytes() for p in workdir.iterdir()}
            runs.append((result, files))
        assert runs[0] == runs[1]
        (actual, _, err), files = runs[0]
        assert actual == code
        assert bool(files) == (code == 0)
        if code:
            flag = key.replace("_", "-")
            assert err == f"usage error: --{flag} is required (as a flag or config key)\n"


class TestBlochCommand:
    def test_preset_configs_differ_only_in_kappa2(self, capsys, tmp_path):
        assert run(["bloch", "--fig2a", "--dump-config", "a.json"], capsys)[0] == 0
        assert run(["bloch", "--fig2b", "--dump-config", "b.json"], capsys)[0] == 0
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["kappa2"] == [1.0, 0.0]
        assert b["kappa2"] == [0.0, 0.0]
        a.pop("kappa2"), b.pop("kappa2")
        assert a == b

    def test_preset_pins_override_flags(self, capsys, tmp_path):
        assert run(
            ["bloch", "--fig2b", "--force", "-9.0", "--dump-config", "p.json"],
            capsys,
        )[0] == 0
        assert json.loads((tmp_path / "p.json").read_text())["force"] == -0.6

    def test_unidirectional_preset_revives(self, capsys, tmp_path):
        code, out, _ = run(["bloch", "--fig2b", "--output-prefix", "nh"], capsys)
        assert code == 0
        revival = float(re.search(r"revival_error=([0-9eE+.\-]+)", out).group(1))
        assert revival <= 1e-4
        assert (tmp_path / "nh_observables.csv").exists()

    def test_quick_explicit_run_revives(self, capsys):
        code, out, _ = run(
            [
                "bloch", "--geometry", "chain", "--sites", "16", "--kappa2", "0+0i",
                "--force", "-0.6", "--initial", "gaussian", "--center", "7.5",
                "--width", "3.0", "--periods", "1.0", "--steps-per-period", "2500",
                "--record-every", "5", "--output-prefix", "q",
            ],
            capsys,
        )
        assert code == 0
        revival = float(re.search(r"revival_error=([0-9eE+.\-]+)", out).group(1))
        assert revival <= 1e-4

    def test_zero_force_rejected(self, capsys):
        code, _, err = run(
            ["bloch", "--geometry", "chain", "--sites", "8", "--force", "0.0"],
            capsys,
        )
        assert code == 2
        assert "nonzero force" in err


class TestFloquetCommand:
    def test_collapse_summary_and_json(self, capsys, tmp_path):
        code, out, _ = run(["floquet", "--sites", "4", "--output", "f.json"], capsys)
        assert code == 0
        data = json.loads((tmp_path / "f.json").read_text())
        assert data["monodromy_defect"] <= 1e-6
        assert data["max_abs_mu"] <= 1e-6 * abs(data["force"])
        assert data["analytic"] is not None
        assert len(data["quasi_energies"]) == 4
        assert data["period"] == pytest.approx(2 * np.pi / data["force"])

    def test_hermitian_ring_has_no_analytic_branch(self, capsys, tmp_path):
        code, _, _ = run(
            ["floquet", "--sites", "4", "--kappa2", "1+0i", "--output", "h.json"],
            capsys,
        )
        assert code == 0
        assert json.loads((tmp_path / "h.json").read_text())["analytic"] is None


class TestEngineerCommand:
    def test_worked_point(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "engineer", "--theta", "1.5707963267948966", "--x", "0.8",
                "--gamma-guess", "3+0.7i", "--output", "e.json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "e.json").read_text())
        assert data["abs_sigma"] < 1e-10
        rho = complex(*data["rho"])
        assert abs(rho - (-0.4j)) <= 0.02 * 0.4
        gamma = complex(*data["gamma"])
        assert abs(gamma - GAMMA_STAR) <= 1e-9
        assert abs(complex(*data["at_guess"]["sigma"])) == pytest.approx(
            6.1008e-4, rel=1e-3
        )
        assert "iterations=" in out

    def test_iteration_budget_maps_to_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(engineering, "_NEWTON_ITERATIONS", 1)
        code, _, err = run(
            [
                "engineer", "--theta", "1.5707963267948966", "--x", "0.8",
                "--gamma-guess", "3+0.7i",
            ],
            capsys,
        )
        assert code == 3
        assert "computation error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rwa", "--theta", "1.5707963267948966", "--x", "0.8", "--gamma", "3+800i"],
        ["engineer", "--theta", "1.5707963267948966", "--x", "0.8", "--gamma-guess", "3+800i"],
    ],
    ids=["rwa", "engineer"],
)
def test_sinc_overflow_at_large_im_gamma_maps_to_exit_3(capsys, argv):
    # sin(Gamma) passes the largest float once |Im Gamma| passes about 710
    code, _, err = run(argv, capsys)
    _assert_exit_3(code, err, "|Im Gamma| = 800")
    assert len(err.splitlines()) == 1


class TestRwaCommand:
    def test_single_ratio_run(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "rwa", "--theta", "1.5707963267948966", "--x", "0.8",
                "--gamma", "3.0017822918018364+0.6994075768635631i",
                "--ratios", "5", "--sites", "6", "--output", "rwa.csv",
            ],
            capsys,
        )
        assert code == 0
        lines = (tmp_path / "rwa.csv").read_text().splitlines()
        assert lines[0] == "ratio,period,periods,discrepancy"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[0]) == 5.0
        assert int(fields[2]) == 5
        assert "strictly_decreasing=True" in out

    def test_negative_kappa_runs(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "rwa", "--theta", "1.5707963267948966", "--x", "0.8",
                "--gamma", "3.0017822918018364+0.6994075768635631i",
                "--ratios", "5", "--sites", "6", "--kappa", "-1", "--output", "rwa.csv",
            ],
            capsys,
        )
        assert code == 0
        fields = (tmp_path / "rwa.csv").read_text().splitlines()[1].split(",")
        assert int(fields[2]) == 5
        assert "strictly_decreasing=True" in out

    def test_site_default_is_center(self, capsys, tmp_path):
        code, _, _ = run(
            [
                "rwa", "--theta", "1.0", "--x", "0.5", "--gamma", "0.5+0.2i",
                "--ratios", "5", "--sites", "8", "--dump-config", "r.json",
            ],
            capsys,
        )
        assert code == 0
        cfg = json.loads((tmp_path / "r.json").read_text())
        assert cfg["site"] == 4
        assert cfg["t_end"] == pytest.approx(2 * np.pi)

    def test_dt_factor_is_an_unknown_config_key(self, capsys, tmp_path):
        argv = [
            "rwa", "--theta", "1.0", "--x", "0.5", "--gamma", "0.5+0.2i",
            "--ratios", "5", "--sites", "8",
        ]
        assert run(argv + ["--dump-config", "r.json"], capsys)[0] == 0
        cfg = json.loads((tmp_path / "r.json").read_text())
        assert "dt_factor" not in cfg
        cfg["dt_factor"] = 0.02
        (tmp_path / "r.json").write_text(json.dumps(cfg))
        code, _, err = run(["rwa", "--config", "r.json"], capsys)
        assert code == 2
        assert "unknown config keys: ['dt_factor']" in err


class TestLaserCommand:
    def test_unidirectional_run(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "laser", "--delta-am", "0.5", "--delta-fm", "0.5",
                "--phi", "-1.5707963267948966", "--detuning", "-0.6",
                "--n-min", "-15", "--n-max", "15", "--initial", "gaussian",
                "--width", "3.0", "--t-end", "1.0", "--dt", "0.002",
                "--record-every", "10", "--output-prefix", "las",
            ],
            capsys,
        )
        assert code == 0
        obs = (tmp_path / "las_observables.csv").read_text().splitlines()
        assert obs[0] == "t,com,weight,revival"
        assert "weight_final=" in out

    def test_gaussian_center_defaults_to_window_middle(self, capsys, tmp_path):
        code, _, _ = run(
            [
                "laser", "--delta-am", "0.5", "--delta-fm", "0.5",
                "--initial", "gaussian", "--n-min", "-15", "--n-max", "15",
                "--t-end", "1.0", "--dt", "0.002", "--dump-config", "l.json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads((tmp_path / "l.json").read_text())["center"] == 0.0

    def test_single_site_defaults_to_window_middle(self, capsys, tmp_path):
        # A default edge site would trip the boundary monitor on step one.
        code, _, _ = run(
            [
                "laser", "--delta-am", "0.5", "--delta-fm", "0.5",
                "--phi", "-1.5707963267948966", "--n-min", "-12", "--n-max", "12",
                "--t-end", "0.5", "--dt", "0.002", "--dump-config", "s.json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads((tmp_path / "s.json").read_text())["site"] == 0
        code, out, _ = run(
            [
                "laser", "--delta-am", "0.5", "--delta-fm", "0.5",
                "--phi", "-1.5707963267948966", "--n-min", "-12", "--n-max", "12",
                "--t-end", "0.5", "--dt", "0.002",
            ],
            capsys,
        )
        assert code == 0
        assert "weight_final=" in out

    def test_edge_leak_maps_to_exit_3(self, capsys):
        code, _, err = run(
            [
                "laser", "--delta-am", "0.5", "--delta-fm", "0.5",
                "--phi", "-1.5707963267948966", "--n-min", "-2", "--n-max", "2",
                "--site", "0", "--t-end", "3.0", "--dt", "0.01",
            ],
            capsys,
        )
        assert code == 3
        assert "widen the mode window" in err


class TestDumpHCommand:
    def test_window_matrix(self, capsys, tmp_path):
        code, _, _ = run(
            [
                "dump-h", "--geometry", "infinite", "--window", "-1", "0",
                "--kappa1", "1-2i", "--force", "0.5", "--output", "h.json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads((tmp_path / "h.json").read_text())
        assert data["dim"] == 2
        assert data["offset"] == -1
        assert data["entries"] == [[-0.5, 0.0], [1.0, -2.0], [0.0, 0.0], [0.0, 0.0]]


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"], capsys)[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(["spectrum", "--nope", "1"], capsys)[0] == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(["spectrum"], capsys)
        assert code == 1
        assert "--geometry is required" in err

    def test_validation_failure(self, capsys):
        code, _, err = run(["spectrum", "--geometry", "chain", "--sites", "0"], capsys)
        assert code == 2
        assert "validation error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--geometry", "chain", "--sites", "4", "--window", "0", "5"],
             "FiniteChain takes a site count, not a window"),
            (["--geometry", "infinite", "--window", "0", "3", "--sites", "99"],
             "InfiniteChain takes a window, not a site count"),
        ],
        ids=["chain-window", "infinite-sites"],
    )
    def test_flag_the_geometry_ignores_is_refused(self, capsys, tmp_path, argv, message):
        code, out, err = run(["spectrum"] + argv, capsys)
        assert code == 2
        assert err == f"validation error: {message}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--geometry", "chain", "--sites", "4", "--t-end", "1"],
            ["laser", "--delta-am", "0.5", "--delta-fm", "0.5", "--n-min", "-15",
             "--n-max", "15", "--t-end", "1"],
        ],
        ids=["evolve", "laser"],
    )
    def test_uncountable_steps_are_a_validation_error(self, capsys, argv):
        # t_end / dt overflows to inf, so no step count exists
        code, _, err = run(argv + ["--dt", "1e-320"], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert "too many steps" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bloch", "--geometry", "chain", "--sites", "4", "--force", "1"],
            ["floquet", "--sites", "3"],
        ],
        ids=["bloch", "floquet"],
    )
    def test_zero_steps_per_period_is_a_validation_error(self, capsys, argv):
        code, _, err = run(argv + ["--steps-per-period", "0"], capsys)
        assert code == 2
        assert "Traceback" not in err
        assert "steps_per_period must be >= 1" in err

    @pytest.mark.parametrize("geometry", ["chain", "ring"])
    def test_closed_form_overflow_maps_to_exit_3(self, capsys, geometry):
        code, _, err = run(
            ["evolve", "--geometry", geometry, "--sites", "400", "--method", "closed",
             "--t-end", "1000", "--samples", "3"],
            capsys,
        )
        assert code == 3
        assert "amplitude overflow" in err
        assert len(err.splitlines()) == 1

    def test_malformed_complex_literal(self, capsys):
        code, _, err = run(
            ["spectrum", "--geometry", "chain", "--sites", "3", "--kappa1", "2+3x"],
            capsys,
        )
        assert code == 2
        assert "complex literal" in err

    def test_io_failure(self, capsys, tmp_path):
        code, _, err = run(
            [
                "spectrum", "--geometry", "chain", "--sites", "3",
                "--output", str(tmp_path / "missing_dir" / "x.json"),
            ],
            capsys,
        )
        assert code == 4
        assert "i/o error" in err


def subprocess_env():
    """Environment for a child interpreter that imports the same ``unihop``.

    The autouse ``in_tmp`` fixture changes directory, so a relative
    ``PYTHONPATH`` entry would point at nothing in the child; prepend the
    absolute directory that holds the imported package instead.
    """
    env = dict(os.environ)
    src = str(Path(unihop.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def console_script(name):
    """The ``[project.scripts]`` value for *name*, read from ``pyproject.toml``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


# What pip's generated launcher does: resolve the entry point, name the
# program after the script and call the target with no arguments, so it
# parses sys.argv itself.
LAUNCHER = (
    "import sys; from importlib.metadata import EntryPoint; "
    "target = EntryPoint('unihop', sys.argv.pop(1), 'console_scripts').load(); "
    "sys.argv[0] = 'unihop'; sys.exit(target())"
)


def test_console_script_entry_point(tmp_path):
    launchers = [[sys.executable, "-c", LAUNCHER, console_script("unihop")]]
    installed = shutil.which("unihop")
    if installed:
        launchers.append([installed])
    for launcher in launchers:
        (tmp_path / "s.json").unlink(missing_ok=True)
        result = subprocess.run(
            launcher + [
                "spectrum", "--geometry", "chain", "--sites", "3",
                "--output", str(tmp_path / "s.json"),
            ],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert result.returncode == 0
        assert "max_ep_order=3" in result.stdout
        assert (tmp_path / "s.json").exists()


def test_python_module_help_via_interpreter():
    result = subprocess.run(
        [sys.executable, "-c", "import unihop.cli as c; raise SystemExit(c.main(['--help']))"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    # argparse --help exits 0 and prints the command list
    assert result.returncode == 0
    assert "COMMAND" in result.stdout


def test_package_runs_as_module():
    result = subprocess.run(
        [sys.executable, "-m", "unihop", "--help"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert result.returncode == 0
    assert "COMMAND" in result.stdout


RWA_ARGV = [
    "rwa", "--theta", "1.5707963267948966", "--x", "0.8",
    "--gamma", "3.0017822918018364+0.6994075768635631i", "--ratios", "5", "--sites", "6",
]


def _scipy_modules_after(statement, cwd):
    """The scipy modules that a fresh interpreter holds after ``statement``."""
    probe = "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", "import sys; " + statement + probe],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        cwd=cwd,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "statement",
    [
        "import unihop",
        "import unihop.cli",
        "from unihop.cli import main; "
        "assert main(['spectrum', '--geometry', 'ring', '--sites', '4']) == 0",
        # the chain's order-N EP, certified without an SVD
        "from unihop.cli import main; "
        "assert main(['spectrum', '--geometry', 'chain', '--sites', '16']) == 0",
        "from unihop.cli import main; assert main(['engineer', '--theta', "
        "'1.5707963267948966', '--x', '0.8', '--gamma-guess', '3+0.7i']) == 0",
        "from unihop.cli import main; assert main(['evolve', '--geometry', 'chain', '--sites', "
        "'4', '--site', '3', '--method', 'closed', '--t-end', '1']) == 0",
        # the README rwa line, default ratios and sites
        f"from unihop.cli import main; assert main({RWA_ARGV[:7]!r}) == 0",
    ],
    ids=[
        "import-unihop", "import-cli", "ring-spectrum", "chain-spectrum", "engineer",
        "closed-evolve", "rwa",
    ],
)
def test_start_up_and_scipy_free_commands_leave_scipy_unloaded(tmp_path, statement):
    # scipy is imported only at its call sites; nothing on these paths needs it
    assert _scipy_modules_after(statement, tmp_path) == "[]"


def test_scipy_probe_sees_a_loaded_scipy_module(tmp_path):
    # the control for the probe above: it does report scipy once it is loaded
    assert "'scipy.linalg'" in _scipy_modules_after("import scipy.linalg", tmp_path)


# Records OPENBLAS_THREAD_TIMEOUT at the moment numpy is first imported.
_NUMPY_IMPORT_PROBE = """
import builtins, os, sys
assert "numpy" not in sys.modules
seen = []
real_import = builtins.__import__

def spy(name, *args, **kwargs):
    if name.split(".")[0] == "numpy" and not seen:
        seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
    return real_import(name, *args, **kwargs)

builtins.__import__ = spy
import unihop
print(seen)
"""


@pytest.mark.parametrize("preset, recorded", [(None, "4"), ("12", "12")], ids=["unset", "user-set"])
def test_openblas_workers_are_parked_before_numpy_loads(tmp_path, preset, recorded):
    # OpenBLAS reads the timeout only when it loads, so it must be set first;
    # a value the user set is kept
    env = subprocess_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_IMPORT_PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == repr([recorded])


def test_svd_failure_maps_to_exit_3(monkeypatch, capsys):
    # a rank SVD that fails must land in the exit-code table; a two-way
    # chain is not bidiagonal, and the dense engine takes 13 SVDs on the
    # clusters of this one
    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    argv = ["spectrum", "--geometry", "chain", "--sites", "96", "--kappa2", "0.01"]
    code, _, err = run(argv, capsys)
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("computation error:")


@pytest.mark.parametrize("command", ["spectrum", "dump-h"])
def test_matrix_larger_than_physical_memory_maps_to_exit_3(monkeypatch, capsys, tmp_path, command):
    # a pretend 1 KiB machine, so that nothing large is allocated for real
    monkeypatch.setattr(lattice, "_PHYSICAL_BYTES", 1024)
    code, out, err = run([command, "--geometry", "ring", "--sites", "64", "--force", "0.5"], capsys)
    assert code == 3
    assert out == ""
    assert err == (
        "computation error: a dense 64 x 64 H needs 65536 bytes, "
        "more than the 1024 bytes of physical memory\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_clustering_larger_than_physical_memory_maps_to_exit_3(monkeypatch, capsys, tmp_path):
    # the dense H fits in 16 N^2 bytes, the clustering's 24 N^2 do not
    monkeypatch.setattr(lattice, "_PHYSICAL_BYTES", 20 * 64**2)
    code, out, err = run(["spectrum", "--geometry", "chain", "--sites", "64"], capsys)
    assert (code, out) == (3, "")
    assert err == (
        "computation error: clustering 64 eigenvalues needs 98304 bytes, "
        "more than the 81920 bytes of physical memory\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, records, sites",
    [
        (["evolve", "--geometry", "chain", "--sites", "4", "--t-end", "1", "--dt", "0.01"], 101, 4),
        (["evolve", "--geometry", "chain", "--sites", "4", "--t-end", "1", "--method", "closed"],
         201, 4),
        (["bloch", "--geometry", "chain", "--sites", "4", "--force", "1"], 1501, 4),
        (["laser", "--delta-am", "0.5", "--delta-fm", "0.5", "--n-min", "-15", "--n-max", "15",
          "--t-end", "1", "--dt", "0.01"], 101, 31),
    ],
    ids=["evolve-rk4", "evolve-closed", "bloch", "laser"],
)
def test_trajectory_larger_than_physical_memory_maps_to_exit_3(
    monkeypatch, capsys, tmp_path, argv, records, sites
):
    # the initial state fits in 4 KiB, the recorded trajectory (48 bytes per
    # amplitude) does not; the run and --dump-config refuse alike
    monkeypatch.setattr(lattice, "_PHYSICAL_BYTES", 4096)
    for extra in ([], ["--dump-config", "d.json"]):
        code, out, err = run(argv + extra, capsys)
        assert (code, out) == (3, "")
        assert err == (
            f"computation error: {records} recorded states of {sites} sites needs "
            f"{48 * records * sites} bytes, more than the 4096 bytes of physical memory\n"
        )
        assert list(tmp_path.iterdir()) == []


def _assert_exit_3(code, err, what):
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("computation error:")
    assert what in err


def test_ring_eigensolve_failure_maps_to_exit_3(monkeypatch, capsys):
    # a NaN, or a corner bond moved by 1e-6, in the bands that the ring
    # certificate reads
    spec_bands = spectral._spec_bands
    for index, entry in ((0, np.nan), (-1, 1.0 + 1e-6)):

        def edited(spec, index=index, entry=entry):
            bands = spec_bands(spec)
            bands[1][index] = entry
            return bands

        monkeypatch.setattr(spectral, "_spec_bands", edited)
        code, _, err = run(["spectrum", "--geometry", "ring", "--sites", "4"], capsys)
        _assert_exit_3(code, err, "eigenpair certificate failed")
        assert len(err.splitlines()) == 1


def test_non_finite_eigensolve_maps_to_exit_3(capsys):
    # eig overflows on this chain; warnings are errors here, so a raw numpy
    # RuntimeWarning or the JSON writer meeting -inf fails the test
    argv = ["spectrum", "--geometry", "chain", "--sites", "8", "--kappa1", "1e308",
            "--kappa2", "1e308"]
    code, _, err = run(argv, capsys)
    _assert_exit_3(code, err, "eigensolver returned non-finite values")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("sites, kappa1", [("64", "1e308"), ("65", "1.5e308+6e307i")])
def test_near_overflow_ring_spectrum_prints_no_warning(capsys, tmp_path, sites, kappa1):
    # warnings are errors here, so a raw numpy RuntimeWarning fails the test
    code, _, err = run(
        ["spectrum", "--geometry", "ring", "--sites", sites, "--kappa1", kappa1], capsys
    )
    assert code == 0
    assert err == ""
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert data["ring_check"] == "ok"
    assert len(data["clusters"]) == int(sites)


def test_degenerate_clusters_near_the_float_maximum(capsys, tmp_path):
    # the dense route averages each cluster in units of s, so no sum of two
    # values near 1.6e308 overflows; warnings are errors here
    argv = ["spectrum", "--geometry", "ring", "--sites", "8", "--kappa1", "8e307",
            "--kappa2", "8e307", "--force", "1e-300"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert "clusters=5 max_ep_order=1 defective=False" in out
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(data["clusters"]) == 5
    assert data["is_defective"] is False


def test_subnormal_scale_keeps_the_chain_one_jordan_block(capsys, tmp_path):
    # s = 1e-310 is divided out part by part; its reciprocal would overflow
    code, out, err = run(["spectrum", "--geometry", "chain", "--sites", "6", "--kappa1", "1e-310"],
                         capsys)
    assert (code, err) == (0, "")
    assert "clusters=1 max_ep_order=6 defective=True" in out
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert [c["jordan_blocks"] for c in data["clusters"]] == [[6]]


@pytest.mark.parametrize(
    "fill, what",
    [(np.nan, "amplitude overflow"), (0.0, "monodromy is numerically singular")],
    ids=["non-finite", "singular"],
)
def test_degenerate_bloch_product_maps_to_exit_3(monkeypatch, capsys, fill, what):
    # the running product of the per-step factors is the only route to mu
    monkeypatch.setattr(np, "cumprod", lambda a, axis: np.full_like(a, fill))
    code, _, err = run(["floquet", "--sites", "4"], capsys)
    _assert_exit_3(code, err, what)
    assert len(err.splitlines()) == 1


def test_floquet_overflow_names_the_exact_route(capsys):
    code, _, err = run(
        ["floquet", "--sites", "6", "--kappa1", "1e3+0i", "--steps-per-period", "2000000"],
        capsys,
    )
    _assert_exit_3(code, err, "amplitude overflow")
    assert "quasi_energies_analytic" in err
    assert len(err.splitlines()) == 1


def test_floquet_guard_checks_only_the_final_product(monkeypatch, capsys):
    # the README ring's running bound stays far below 1e150, so no block is
    # scanned and the guard sees the one-period product once
    seen = []
    guard = floquet._guard_overflow

    def counting_guard(amps, t, remedy):
        seen.append((amps.copy(), t))
        return guard(amps, t, remedy)

    monkeypatch.setattr(floquet, "_guard_overflow", counting_guard)
    code, _, _ = run(["floquet", "--sites", "6"], capsys)
    assert code == 0
    assert len(seen) == 1
    amps, t = seen[0]
    assert t == pytest.approx(6.0, rel=1e-12)  # one Bloch period
    pairs = json.loads(Path("floquet.json").read_text())["quasi_energies"]
    mu = np.array([complex(*z) for z in pairs])  # mu = i log(Lambda) / T_B
    assert np.max(np.abs(np.exp(-1j * mu * t) - amps)) <= 1e-14


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--geometry", "chain", "--sites", "4", "--force", "inf"],
        ["evolve", "--geometry", "chain", "--sites", "4", "--method", "closed", "--t-end", "inf"],
        ["bloch", "--geometry", "chain", "--sites", "8", "--force", "0.5", "--periods", "nan"],
        ["floquet", "--sites", "4", "--phi0-rate", "inf"],
        ["engineer", "--theta", "1.5", "--x", "0.8", "--gamma-guess", "3+0.7i", "--kappa", "inf"],
        ["rwa", "--theta", "1.5", "--x", "0.8", "--gamma", "3+0.7i", "--t-end", "inf"],
        [
            "laser", "--delta-am", "0.5", "--delta-fm", "0.5", "--n-min", "-3", "--n-max", "3",
            "--t-end", "1", "--dt", "0.01", "--center", "nan",
        ],
        ["dump-h", "--geometry", "chain", "--sites", "4", "--force", "nan"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("dump", [False, True], ids=["run", "dump-config"])
def test_non_finite_float_flag_maps_to_exit_2(capsys, tmp_path, argv, dump):
    # warnings are errors here, so a raw numpy RuntimeWarning fails the test
    flag = argv[-2][2:].replace("-", "_")
    code, out, err = run(argv + (["--dump-config", "d.json"] if dump else []), capsys)
    assert code == 2
    assert err == f"validation error: {flag} must be finite, got {float(argv[-1])!r}\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_flux_drive_force_overflow_maps_to_exit_2(capsys, tmp_path):
    code, out, err = run(["floquet", "--sites", "2", "--phi0-rate", "1e308"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("validation error: phi0_rate = 1e+308 gives the force")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "center, width, code",
    [("3", "1e-154", 0), ("3.5", "1e-200", 2)],
    ids=["point-mass", "all-underflow"],
)
def test_narrow_gaussian_width(capsys, tmp_path, center, width, code):
    # warnings are errors here, so a raw numpy RuntimeWarning fails the test
    argv = [
        "evolve", "--geometry", "chain", "--sites", "8", "--initial", "gaussian",
        "--center", center, "--width", width, "--method", "closed", "--t-end", "1",
    ]
    got, out, err = run(argv, capsys)
    assert got == code
    if code == 0:
        assert err == ""
        assert out.startswith("evolve: recorded=201")
    else:
        assert out == ""
        assert err == (
            f"validation error: width = {float(width)!r} is too narrow for the gaussian at "
            f"center {float(center)!r}: every amplitude underflows to 0\n"
        )
        assert list(tmp_path.iterdir()) == []


def _is_effective(matrix):
    """RWA_ARGV sits on the sigma = 0 root, so -i H_eff t_end is the one
    generator that hops one way only; every branch generator hops with
    |kappa| both ways (the quiet tail's with Peierls phases)."""
    return np.abs(np.diag(matrix, -1)).max() < 1e-9 * np.abs(np.diag(matrix, 1)).max()


def test_branch_propagator_failure_maps_to_exit_3(monkeypatch, capsys):
    expm = engineering._expm

    def expm_failing_on_branches(matrix):
        if _is_effective(matrix):
            return expm(matrix)
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(engineering, "_expm", expm_failing_on_branches)
    code, _, err = run(RWA_ARGV, capsys)
    _assert_exit_3(code, err, "branch propagator failed")


def test_non_finite_effective_propagator_maps_to_exit_3(monkeypatch, capsys):
    expm = engineering._expm

    def expm_inf_on_effective(matrix):
        if _is_effective(matrix):
            return np.full_like(matrix, np.inf)
        return expm(matrix)

    monkeypatch.setattr(engineering, "_expm", expm_inf_on_effective)
    code, _, err = run(RWA_ARGV, capsys)
    _assert_exit_3(code, err, "effective propagator returned non-finite values")


_ENGINEER_ARGV = [
    "engineer", "--theta", "1.5707963267948966", "--x", "0.8", "--gamma-guess", "3+0.7i",
]
_LASER_ARGV = [
    "laser", "--delta-am", "0.5", "--delta-fm", "0.5", "--n-min", "-3", "--n-max", "3",
    "--t-end", "1", "--dt", "0.01",
]


@pytest.mark.parametrize(
    "argv",
    [
        _ENGINEER_ARGV + ["--tol", "1e-12"],
        _ENGINEER_ARGV + ["--max-iterations", "100"],
        _LASER_ARGV + ["--edge-tol", "1e-6"],
    ],
    ids=["tol", "max-iterations", "edge-tol"],
)
def test_fixed_numerical_settings_have_no_flag(capsys, tmp_path, argv):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: unrecognized arguments: " + argv[-2])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (_ENGINEER_ARGV, "tol", 1e-12),
        (_ENGINEER_ARGV, "max_iterations", 100),
        (_LASER_ARGV, "edge_tol", 1e-6),
    ],
    ids=["tol", "max_iterations", "edge_tol"],
)
def test_fixed_numerical_settings_are_unknown_config_keys(capsys, tmp_path, argv, key, value):
    # a config dumped before these settings became constants
    (tmp_path / "c.json").write_text(json.dumps({key: value}))
    code, out, err = run(argv + ["--config", "c.json"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"validation error: unknown config keys: [{key!r}]\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rwa", "--theta", "1.5", "--x", "2", "--gamma", "3+0.7i"], "duty cycle x"),
        (["rwa", "--theta", "1.5", "--x", "0.8", "--gamma", "3+0.7i", "--site", "99"],
         "site 99 is outside 0..9"),
        (["engineer", "--theta", "1.5", "--x", "2", "--gamma-guess", "3+0.7i"], "duty cycle x"),
        (["floquet", "--sites", "1"], "sites >= 2"),
        (["bloch", "--geometry", "chain", "--sites", "4", "--force", "1",
          "--steps-per-period", "0"], "steps_per_period must be >= 1"),
        (["evolve", "--geometry", "chain", "--sites", "4", "--t-end", "1", "--dt", "0"],
         "dt must be finite and positive"),
        (["laser", "--delta-am", "0.5", "--delta-fm", "0.5", "--n-min", "0", "--n-max", "4",
          "--t-end", "1", "--dt", "0"], "dt must be finite and positive"),
        # the initial state and sin(theta) are checked without running the command
        (["evolve", "--geometry", "chain", "--sites", "4", "--site", "99", "--method", "closed",
          "--t-end", "1"], "site 99 is outside the lattice"),
        (["bloch", "--geometry", "chain", "--sites", "4", "--force", "1", "--site", "99"],
         "site 99 is outside the lattice"),
        (["laser", "--delta-am", "0.5", "--delta-fm", "0.5", "--n-min", "0", "--n-max", "4",
          "--t-end", "1", "--dt", "0.01", "--site", "99"], "site 99 is outside the lattice"),
        (["engineer", "--theta", "0", "--x", "0.8", "--gamma-guess", "3+0.7i"],
         "sin(theta) must be nonzero"),
    ],
    ids=["rwa-x", "rwa-site", "engineer-x", "floquet-sites", "bloch-steps", "evolve-dt",
         "laser-dt", "evolve-site", "bloch-site", "laser-site", "engineer-theta"],
)
def test_dump_config_refuses_what_the_run_would_refuse(capsys, tmp_path, argv, message):
    code, out, err = run(argv + ["--dump-config", "d.json"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("validation error: ")
    assert message in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


_CHAIN4 = ["--geometry", "chain", "--sites", "4"]
_RWA = ["rwa", "--theta", "1.5", "--x", "0.8", "--gamma", "3+0.7i"]
_LASER = ["laser", "--delta-am", "0.5", "--delta-fm", "0.5", "--n-min", "-15", "--n-max", "15"]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["evolve", *_CHAIN4, "--t-end", "1", "--dt", "0.5"],
         "dt = 0.5 does not resolve the fastest scale (need dt <= 0.05)"),
        (["bloch", *_CHAIN4, "--force", "1", "--steps-per-period", "5"],
         "dt = 1.26 does not resolve the fastest scale (need dt <= 0.0125)"),
        (["floquet", "--sites", "6", "--steps-per-period", "5"],
         "dt = 1.2 does not resolve the drive (need dt <= 0.0477)"),
        ([*_LASER, "--t-end", "1", "--dt", "0.5"],
         "dt = 0.5 does not resolve the laser scales (need dt <= 0.0707)"),
        (["evolve", *_CHAIN4, "--t-end", "1e300", "--dt", "1e-300"],
         "t_end / dt = 1e+300 / 1e-300 is too many steps to take"),
        (["evolve", *_CHAIN4, "--t-end", "1", "--dt", "0.01", "--flux-rate", "1"],
         "flux_rate is only defined for Ring geometry"),
        (["evolve", *_CHAIN4, "--t-end", "1", "--method", "closed", "--kappa2", "1"],
         "closed form requires kappa2 = 0; use evolve_rk4"),
        (["evolve", "--geometry", "ring", "--sites", "4", "--t-end", "1", "--method", "closed",
          "--force", "1"], "closed form on a ring requires F = 0; use evolve_rk4"),
        ([*_RWA, "--t-end", "1.3"],
         "t_end = 1.3 is not an integer number of drive periods at ratio 5 (T = 1.25664)"),
        ([*_RWA, "--ratios=-1"], "omega ratios must be positive (fast drive means >= 5)"),
        ([*_RWA, "--sites", "1"], "need an integer sites >= 2"),
        ([*_RWA, "--kappa", "1e-200", "--ratios", "1e-200"],
         "drive rate ratio * |kappa| = 1e-200 * 1e-200 underflows to 0"),
        ([*_RWA, "--kappa", "1e-310"],
         "the default t_end = 2 pi / |kappa| overflows at kappa = 1e-310; give --t-end"),
        (["bloch", *_CHAIN4, "--force", "1", "--periods", "0.5"], "periods must be >= 1, got 0.5"),
    ],
    ids=["evolve-dt", "bloch-dt", "floquet-dt", "laser-dt", "evolve-steps", "evolve-flux-rate",
         "closed-kappa2", "closed-ring-force", "rwa-t-end", "rwa-ratios", "rwa-sites",
         "rwa-rate-underflow", "rwa-default-t-end", "bloch-periods"],
)
def test_run_time_refusals_come_before_any_file(capsys, tmp_path, argv, line):
    # the run and --dump-config refuse alike, so no dumped config is refused on rerun
    for extra in ([], ["--dump-config", "d.json"]):
        assert run(argv + extra, capsys) == (2, "", f"validation error: {line}\n")
        assert list(tmp_path.iterdir()) == []


_HUGE = "100000000000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--geometry", "chain", "--sites", _HUGE, "--t-end", "0"],
        ["bloch", "--geometry", "chain", "--sites", _HUGE, "--force", "1"],
        ["laser", "--delta-am", "0.5", "--delta-fm", "0.5", "--n-min", "0", "--n-max", _HUGE,
         "--t-end", "1", "--dt", "0.01"],
        ["floquet", "--sites", _HUGE],
        ["rwa", "--theta", "1.5", "--x", "0.8", "--gamma", "3+0.7i", "--sites", _HUGE],
        ["spectrum", "--geometry", "ring", "--sites", _HUGE],
    ],
    ids=["evolve", "bloch", "laser", "floquet", "rwa", "spectrum-ring"],
)
def test_site_count_beyond_physical_memory_maps_to_exit_3(capsys, tmp_path, argv):
    # numpy refuses this shape before it allocates, so a failing run allocates nothing
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert re.fullmatch(r"computation error: .* needs \d+ bytes, more than the \d+ bytes "
                        r"of physical memory\n", err)
    assert list(tmp_path.iterdir()) == []


def test_dump_config_refuses_an_rk4_run_without_dt(capsys, tmp_path):
    # a dumped rk4 config without dt would be refused by its own rerun
    argv = ["evolve", "--geometry", "chain", "--sites", "8", "--method", "rk4", "--t-end", "1"]
    code, out, err = run(argv + ["--dump-config", "c.json"], capsys)
    assert code == 1
    assert out == ""
    assert err == "usage error: --dt is required for method rk4 with t_end > 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "error, line",
    [
        (
            MemoryError("Unable to allocate 14.9 GiB for an array with shape (1000000000,)"),
            "computation error: Unable to allocate 14.9 GiB for an array with shape "
            "(1000000000,)\n",
        ),
        (MemoryError(), "computation error: out of memory\n"),
    ],
    ids=["numpy-message", "bare"],
)
def test_failed_allocation_maps_to_exit_3(monkeypatch, capsys, tmp_path, error, line):
    # stands in for a state too large to allocate; nothing is allocated for real
    def failing_state(spec, site):
        raise error

    monkeypatch.setattr(cli, "single_site_state", failing_state)
    code, out, err = run(["evolve", "--geometry", "chain", "--sites", "4", "--t-end", "0"], capsys)
    assert code == 3
    assert out == ""
    assert err == line
    assert list(tmp_path.iterdir()) == []
