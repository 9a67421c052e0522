"""Smoke tests of the study scripts: each ``main()`` runs in process with its
output captured."""

import importlib.util
import re
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# printed by scripts/tangent_dimension_study.py, recorded from an earlier
# version; depth-1 trees agree, deeper trees show the operator-space gap
TANGENT_TABLE = """\
instance           shape                dim_E  core total oracle formula  agree
-------------------------------------------------------------------------------
tucker d=2 rank-1  (2, 2)                   2     1     3      3       3   True
tucker d=2 rank-2  (3, 4)                   6     4    10     10      10   True
tucker d=3         (3, 3, 3)                6     8    14     14      14   True
tucker d=4         (2, 3, 2, 3)             4    16    20     20      20   True
deep d=4           (2, 2, 2, 3)             2     4     6     14      14  False
mixed d=6          (2, 2, 2, 2, 2, 2)       0     8     8     20      20  False
linear d=4         (3, 2, 2, 3)             2     4     6     16      16  False
binary d=4         (2, 3, 3, 2)             0     4     4     16      16  False
"""


def run_main(name, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name])
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), SCRIPTS / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_tangent_dimension_study_table(capsys, monkeypatch):
    assert run_main("tangent_dimension_study.py", capsys, monkeypatch) \
        == TANGENT_TABLE


def test_chart_roundtrip_sweep_recovers_small_perturbations(
        capsys, monkeypatch):
    out = run_main("chart_roundtrip_sweep.py", capsys, monkeypatch)
    rows = re.findall(
        r"^\s*(\S+e[+-]\d+)\s+(\S+)\s+(\S+)\s+(\d+)\s*$", out, re.MULTILINE
    )
    assert len(rows) == 10, out  # five magnitudes on each of two test beds
    for magnitude, coord_err, tensor_err, rejected in rows:
        assert int(rejected) == 0, out
        if float(magnitude) <= 1e-1:
            assert float(coord_err) <= 1e-8, out
            assert float(tensor_err) <= 1e-8, out
