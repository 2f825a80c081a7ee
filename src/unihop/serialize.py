"""CSV/JSON serialization shared by the command-line front end.

Conventions: complex scalars are 2-arrays [re, im] in JSON and split into
re/im columns in CSV; command-line literals use the form a+bi / a-bi.
Floats are emitted via repr (shortest round-trip) and JSON objects are
dumped with sorted keys and a fixed layout, so identical inputs serialize
to identical bytes.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math

import numpy as np

from .dynamics import StateTrajectory
from .engineering import RwaSample
from .errors import ValidationError
from .lattice import HamiltonianMatrix
from .spectral import SpectrumReport

__all__ = [
    "complex_to_pair",
    "pair_to_complex",
    "parse_complex",
    "format_complex",
    "dump_json",
    "matrix_to_dict",
    "report_to_dict",
    "write_trajectory_csv",
    "write_observables_csv",
    "write_rwa_csv",
]


def complex_to_pair(z: complex) -> list[float]:
    """JSON encoding of a complex scalar: [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(value) -> complex:
    """Inverse of :func:`complex_to_pair`, tolerant of the forms a config
    file may carry: a [re, im] 2-array, a bare real number, or an a+bi
    literal string."""
    if isinstance(value, str):
        return parse_complex(value)
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ValidationError(f"cannot interpret {value!r} as a complex number")


def parse_complex(text: str) -> complex:
    """Parse an a+bi / a-bi literal (also bare reals, bare imaginaries, and
    a trailing j instead of i)."""
    s = str(text).strip().replace(" ", "")
    if s[-1:] in ("i", "I"):
        s = s[:-1] + "j"
    if "(" not in s:  # complex() alone would accept "(1+2j)"
        with contextlib.suppress(ValueError):
            return complex(s)
    raise ValidationError(f"malformed complex literal {text!r}")


def format_complex(z: complex) -> str:
    """Canonical a+bi literal; parse_complex(format_complex(z)) == z."""
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


@contextlib.contextmanager
def _writable(target):
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w", newline="") as fh:
            yield fh


def dump_json(obj, target) -> None:
    """Write obj as deterministic JSON (sorted keys, indent 2, no NaN)."""
    payload = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with _writable(target) as fh:
        fh.write(payload)


def matrix_to_dict(h: HamiltonianMatrix) -> dict:
    """Row-major JSON form of a Hamiltonian: dim, offset, [re, im] entries."""
    flat = np.asarray(h.entries, dtype=complex).reshape(-1)
    return {
        "dim": h.dim,
        "offset": h.offset,
        "entries": [complex_to_pair(z) for z in flat],
    }


def report_to_dict(report: SpectrumReport, include_vectors: bool = False) -> dict:
    """JSON form of a SpectrumReport; eigenvectors (columns) only on request."""
    out = {
        "eigenvalues": [complex_to_pair(z) for z in report.eigenvalues],
        "clusters": [
            {
                "value": complex_to_pair(c.value),
                "multiplicity": c.multiplicity,
                "jordan_blocks": list(c.jordan_blocks),
                "ep_order": c.ep_order,
                "rank_flagged": c.rank_flagged,
            }
            for c in report.clusters
        ],
        "is_defective": report.is_defective,
        "rank_flagged": report.rank_flagged,
        "eigenvectors": None,
    }
    if include_vectors and report.eigenvectors is not None:
        vecs = np.asarray(report.eigenvectors)
        out["eigenvectors"] = [
            [complex_to_pair(z) for z in vecs[:, k]] for k in range(vecs.shape[1])
        ]
    return out


def write_trajectory_csv(traj: StateTrajectory, target) -> None:
    """Columns t, site, re, im: one row per recorded time per site.

    Each record is one write.  Its floats come from the repr of a Python
    list, which spells each float as ``repr(float)`` does, the same text a
    ``csv.writer`` writes; one record at a time keeps the text small.
    """
    sites = [str(int(n)) for n in traj.site_indices]
    with _writable(target) as fh:
        fh.write("t,site,re,im\n")
        for t, row in zip(traj.times, traj.amps):
            t_text = repr(float(t))
            re = repr(row.real.tolist())[1:-1].split(", ")
            im = repr(row.imag.tolist())[1:-1].split(", ")
            fh.write("".join(f"{t_text},{n},{x},{y}\n" for n, x, y in zip(sites, re, im)))


def write_observables_csv(traj: StateTrajectory, target) -> None:
    """Columns t, com, weight, revival: one row per recorded time."""
    with _writable(target) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "com", "weight", "revival"])
        for i, t in enumerate(traj.times):
            writer.writerow(
                [float(t), float(traj.com[i]), float(traj.weight[i]), float(traj.revival[i])]
            )


def write_rwa_csv(samples: list[RwaSample], target) -> None:
    """Columns ratio, period, periods, discrepancy: one row per drive rate."""
    with _writable(target) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["ratio", "period", "periods", "discrepancy"])
        for s in samples:
            writer.writerow([s.ratio, s.period, s.periods, s.discrepancy])
