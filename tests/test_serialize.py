"""Complex literals, deterministic JSON, and CSV layouts."""

import csv
import io
import json

import numpy as np
import pytest

from unihop import (
    Geometry,
    HamiltonianMatrix,
    LatticeSpec,
    StateTrajectory,
    ValidationError,
    analyze_spectrum,
    build_hamiltonian,
    evolve_closed_form,
    single_site_state,
)
from unihop.serialize import (
    complex_to_pair,
    dump_json,
    format_complex,
    matrix_to_dict,
    pair_to_complex,
    parse_complex,
    report_to_dict,
    write_observables_csv,
    write_trajectory_csv,
)


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("-1.5+0.25i", -1.5 + 0.25j),
            ("3", 3 + 0j),
            ("-0.7", -0.7 + 0j),
            ("2i", 2j),
            ("-i", -1j),
            ("i", 1j),
            ("+i", 1j),
            ("1+i", 1 + 1j),
            ("1-i", 1 - 1j),
            ("1e-3+2.5e2i", 1e-3 + 250j),
            ("1E-3-2E-4i", 1e-3 - 2e-4j),
            ("4+0j", 4 + 0j),
            (" 1 + 2 i ", 1 + 2j),
            ("-2.5J", -2.5j),
        ],
    )
    def test_parse(self, text, want):
        assert parse_complex(text) == want

    @pytest.mark.parametrize("bad", ["", "abc", "1+2", "1++2i", "i2", "1+2ii", "(1+2j)"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValidationError):
            parse_complex(bad)

    def test_format_round_trip(self):
        rng = np.random.default_rng(9)
        values = [complex(a, b) for a, b in rng.normal(size=(30, 2)) * 100]
        values += [0j, 1j, -1j, 2.5 + 0j, complex(-0.0, -0.0), 1e-300 + 1e300j]
        for z in values:
            assert parse_complex(format_complex(z)) == z

    def test_format_examples(self):
        assert format_complex(1 + 2j) == "1.0+2.0i"
        assert format_complex(1 - 2j) == "1.0-2.0i"
        assert format_complex(0.5) == "0.5+0.0i"

    def test_pair_conversions(self):
        assert complex_to_pair(1 - 2j) == [1.0, -2.0]
        assert pair_to_complex([1.0, -2.0]) == 1 - 2j
        assert pair_to_complex(3) == 3 + 0j
        assert pair_to_complex("1+2i") == 1 + 2j
        with pytest.raises(ValidationError):
            pair_to_complex({"re": 1})
        with pytest.raises(ValidationError):
            pair_to_complex([1.0, 2.0, 3.0])


class TestJson:
    def test_deterministic_bytes(self):
        buf1, buf2 = io.StringIO(), io.StringIO()
        obj = {"b": [1.5, -0.25], "a": {"z": 1, "y": [0.1]}}
        dump_json(obj, buf1)
        dump_json({"a": {"y": [0.1], "z": 1}, "b": [1.5, -0.25]}, buf2)
        assert buf1.getvalue() == buf2.getvalue()
        assert buf1.getvalue().endswith("\n")

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            dump_json({"x": float("nan")}, io.StringIO())

    def test_matrix_dict_layout(self):
        spec = LatticeSpec(
            geometry=Geometry.InfiniteChain, kappa1=1 - 2j, force=0.5, window=(-1, 0)
        )
        d = matrix_to_dict(build_hamiltonian(spec))
        assert d["dim"] == 2
        assert d["offset"] == -1
        # row-major: [H00, H01, H10, H11] with diagonal F*n at n = -1, 0
        assert d["entries"] == [[-0.5, 0.0], [1.0, -2.0], [0.0, 0.0], [0.0, 0.0]]

    def test_report_dict(self):
        spec = LatticeSpec(geometry=Geometry.FiniteChain, kappa1=1.0, sites=3)
        report = analyze_spectrum(build_hamiltonian(spec))
        d = report_to_dict(report)
        assert d["is_defective"] is True
        assert d["eigenvectors"] is None
        assert len(d["eigenvalues"]) == 3
        (cluster,) = d["clusters"]
        assert cluster["jordan_blocks"] == [3]
        assert cluster["ep_order"] == 3
        json.dumps(d)  # must be JSON-clean

    def test_report_dict_with_vectors(self):
        report = analyze_spectrum(HamiltonianMatrix(entries=np.diag([1.0, 2.0]).astype(complex)))
        d = report_to_dict(report, include_vectors=True)
        assert len(d["eigenvectors"]) == 2
        assert all(len(col) == 2 for col in d["eigenvectors"])


class TestCsv:
    def test_trajectory_layout(self):
        spec = LatticeSpec(geometry=Geometry.FiniteChain, kappa1=1.0, sites=2)
        traj = evolve_closed_form(spec, single_site_state(spec, 1), [0.0, 1.0])
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,site,re,im"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].split(",")[:2] == ["0.0", "0"]
        assert lines[4].split(",")[:2] == ["1.0", "1"]

    def test_trajectory_bytes_match_a_csv_writer(self):
        # the reference is the csv.writer loop the one-write-per-record writer replaced
        amps = np.array(
            [
                [complex(-0.0, 5e-324), complex(1e300, -0.1), complex(0.1, -1e-300)],
                [complex(1 / 3, -1e-17), complex(-2.5, 1e16), complex(-0.0, -0.0)],
            ]
        )
        zeros = np.zeros(2)
        traj = StateTrajectory(
            times=np.array([0.0, 0.1]), amps=amps, offset=-4,
            com=zeros, weight=zeros, revival=zeros, log_scale=zeros,
        )
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["t", "site", "re", "im"])
        for i, t in enumerate(traj.times):
            for n, z in zip(traj.site_indices, traj.amps[i]):
                writer.writerow([float(t), int(n), z.real, z.imag])
        got = io.StringIO()
        write_trajectory_csv(traj, got)
        assert got.getvalue() == want.getvalue()
        assert "0.0,-4,-0.0,5e-324\n" in got.getvalue()
        assert "0.1,-2,-0.0,-0.0\n" in got.getvalue()

    def test_observables_layout(self):
        spec = LatticeSpec(geometry=Geometry.FiniteChain, kappa1=1.0, sites=2)
        traj = evolve_closed_form(spec, single_site_state(spec, 1), [0.0, 1.0])
        buf = io.StringIO()
        write_observables_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,com,weight,revival"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0  # starts at site 1
        assert float(first[3]) == 0.0
