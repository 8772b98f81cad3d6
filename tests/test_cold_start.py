"""What a fresh interpreter loads: numpy, click and the package, and scipy or
mpmath only where a function still needs them.

The pytest process already holds scipy (test_acceptance imports linprog), so
an import made lazily inside a function is checked in a child interpreter.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_legendre

import lorentzlab
from lorentzlab.hardy import _GL_W, _GL_X


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    # the package root this process imported, since a relative PYTHONPATH
    # such as "src" may not resolve in the child
    root = str(Path(lorentzlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importing_the_cli_loads_neither_scipy_nor_mpmath():
    code = (
        "import sys, lorentzlab.cli; "
        "print(sorted(k for k in sys.modules if k.split('.')[0] in ('scipy', 'mpmath')))"
    )
    assert _child(code).stdout.strip() == "[]"


def test_the_gauss_legendre_literals_are_roots_legendre_bit_for_bit():
    x, w = roots_legendre(20)
    assert _GL_X.tobytes() == np.ascontiguousarray(x, dtype=float).tobytes()
    assert _GL_W.tobytes() == np.ascontiguousarray(w, dtype=float).tobytes()


def test_fit_measure_imports_its_solver_on_first_use():
    code = (
        "import sys; from lorentzlab.cli import main; rc = main(sys.argv[1:]); "
        "assert 'scipy.optimize' in sys.modules; sys.exit(rc)"
    )
    proc = _child(code, "fit-measure", "--target", "power:0", "--sigma", "power:1")
    data = json.loads(proc.stdout)
    assert data["command"] == "fit-measure"
    assert data["fit_report"]["details"]["sup_log_ratio"] <= 1e-9


def test_a_truncated_w_embedding_takes_its_tail_in_closed_form_without_mpmath():
    # psi = phi = 1, w = chi(0, 0.37], p = 4, q = 2: the reduced exponent is 2,
    # and past w's support the tail of (W/s)^2 is 0.37^2 / 0.37, so the
    # criterion is (0.37 + 0.37)^(1/2) exactly; no quadrature reaches infinity
    code = (
        "import sys; from lorentzlab import Power, Tabulated, embedding_criterion, indicator; "
        "r = embedding_criterion(4.0, 2.0, Power(0.0), Power(0.0), Tabulated(indicator(0.0, 0.37))); "
        "print(repr(r.criterion_value), 'mpmath' in sys.modules)"
    )
    value, loaded = _child(code).stdout.split()
    assert float(value) == pytest.approx(math.sqrt(0.74), rel=1e-14, abs=0.0)
    assert loaded == "False"
