"""Experiment reports (JSON) and grid dumps (CSV).

Reports are deterministic for fixed parameters and seed: keys are sorted,
complex numbers serialize as [re, im] pairs, and only the wall-clock
duration field differs between identical runs.  Callers pass plain Python
values (dicts, lists, tuples, bool, int, float, complex, str and None);
numpy values are converted where they are computed, not here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .grid import GridFunction

# Every convention that required a decision, echoed into every report so
# results are self-describing.
BASE_CONVENTIONS = {
    "quasidet_index": "value at (i,j) is the ring inverse of entry (j,i) "
                      "of the matrix inverse; positions are 1-based on the "
                      "command line and 0-based in the library",
    "gamma_identified_with_lambda": True,
    "linear_system_factor": "chi' = -2i*lambda*chi + v*phi, the z-equation "
                            "of the zero-curvature B matrix",
    "reduction_normalization": "first integral = 0, alpha0 + alpha1 = 2, "
                               "C = alpha1 - alpha0, z = t",
    "moyal_inverse": "geometric series truncated at the degree cap "
                     "(approximate)",
    "symmetric_p3_sign": "lower-left entry of the third P block is "
                         "-sigma/2, fixed by the Lax identity",
}


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    results: dict
    duration_s: float

    def write(self, out_dir: str, filename: str) -> str:
        report = {
            "experiment": self.experiment,
            "version": __version__,
            "parameters": jsonify(self.parameters),
            "conventions": jsonify(BASE_CONVENTIONS),
            "results": jsonify(self.results),
            "duration_s": self.duration_s,
        }
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return path


def jsonify(value):
    """Recursively convert to JSON-ready types; complex -> [re, im]."""
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, complex):
        return [jsonify(value.real), jsonify(value.imag)]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_grid_csv(path: str, grid: GridFunction) -> str:
    """Dump a grid as CSV: header z,entry_11_re,entry_11_im,...

    Entries are written row-major with 1-based labels; UTF-8, LF endings.
    Masked (NaN) points serialize as nan.
    """
    n, d = len(grid), grid.batch.d
    header = ["z"] + [f"entry_{r}{c}_{part}" for r in range(1, d + 1)
                      for c in range(1, d + 1) for part in ("re", "im")]
    entries = grid.batch.data.reshape(n, d * d)
    parts = np.stack([entries.real, entries.imag], axis=-1).reshape(n, -1)
    table = np.column_stack([grid.zs(), parts])
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row.tolist())) for row in table)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
