"""Start-up contract: a command imports only what it runs.

Each check runs in a fresh interpreter, since ``sys.modules`` of the
test session already holds everything.  Three contracts:

* **import budget** — ``repro mc`` and ``repro highsigma`` leave
  networkx, scipy.linalg, scipy.sparse, scipy.stats, the engines they
  do not run and the circuit libraries their workload does not build
  from unloaded, and print byte-identical reports when all of those
  are imported up front (laziness changes no bits); a highsigma run
  that prints a finite sigma level still leaves scipy.stats unloaded;
* **one dgesv pointer** — the compiled loops' LAPACK pointer, read
  without running ``scipy/linalg/__init__``, is the very capsule
  ``from scipy.linalg import cython_lapack`` exports, and scipy.linalg
  still works after it; behind a blocking ``scipy.py`` it is None;
* **same flags** — ``capability_flags()`` and ``accel_manifest()``
  answered lazily equal the answers with scipy's solvers bound up
  front, with scipy present and with scipy blocked.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: Modules no mc/highsigma command below may load.
HEAVY = ("networkx", "scipy.linalg", "scipy.sparse", "scipy.stats",
         "repro.aging.electromigration", "repro.core.aging_simulator",
         "repro.emc", "repro.digitalflow")

#: The circuit libraries; a command may load only its workload's.
CIRCUITS = ("repro.circuits.analog", "repro.circuits.digital",
            "repro.circuits.gates", "repro.circuits.opamp")

#: A highsigma run long enough to print a finite sigma level.
SIGMA_LEVEL = ("highsigma", "--samples", "256", "--snm-min-mv", "66.7",
               "--seed", "1")

#: (argv, the circuit library its workload builds from).
COMMANDS = tuple(pytest.param(argv, library, id=" ".join(argv))
                 for argv, library in (
    (("mc", "--workload", "offset"), "repro.circuits.analog"),
    (("mc", "--workload", "ring", "--samples", "1"),
     "repro.circuits.digital"),
    (("highsigma", "--samples", "1"), "repro.circuits.digital"),
    (SIGMA_LEVEL, "repro.circuits.digital"),
))

_RUN_COMMAND = """
import contextlib, importlib, io, json, sys
if sys.argv[1] == "eager":
    for name in %r:
        try:
            importlib.import_module(name)
        except ImportError:
            pass
from repro.circuit import _ckernel
from repro.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[2:])
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "kernel": _ckernel.active(),
                  "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY + CIRCUITS, HEAVY + CIRCUITS)

_FLAGS = """
import json, sys
from repro import resilience
from repro.circuit import mna
from repro.obs.runlog import capability_flags
from repro.runner import accel_manifest

def answers():
    resilience.reset_supervisor()
    snapshot = resilience.supervisor().registry.snapshot()
    return {"flags": capability_flags(), "manifest": accel_manifest(None),
            "details": {name: state["detail"]
                        for name, state in snapshot.items()}}

lazy = answers()
loaded = [m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules]
mna._bind_dgesv()
mna._bind_sparse()
print(json.dumps({"lazy": lazy, "eager": answers(), "loaded": loaded}))
"""

_POINTER = """
import ctypes, json, sys
from repro.circuit import _ckernel, mna
pointer = _ckernel.dgesv_pointer()
result = {"pointer": pointer, "linalg_loaded": "scipy.linalg" in sys.modules,
          "dgesv_available": mna.dgesv_available()}
if pointer is not None:
    import numpy as np
    import scipy.linalg
    from scipy.linalg import cython_lapack
    capsule = cython_lapack.__pyx_capi__["dgesv"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    result["capsule"] = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    a = np.array([[4.0, 1.0], [2.0, 3.0]])
    b = np.array([1.0, 2.0])
    result["solve"] = scipy.linalg.solve(a, b).tolist()
    result["dgesv"] = scipy.linalg.lapack.dgesv(a, b)[2].tolist()
else:
    from repro import telemetry
    from repro.circuit import dc_sweep
    from repro.circuits import differential_pair
    from repro.technology import get_node

    fx = differential_pair(get_node("90nm"))
    vcm = fx.circuit["vinp"].spec.dc_value()
    with telemetry.session() as session:
        dc_sweep(fx.circuit, "vinp", [vcm - 0.01, vcm, vcm + 0.01])
    result["counters"] = {
        name: value for name, value
        in session.metrics.snapshot()["counters"].items()
        if name.startswith("solver.dc.kernel.")}
print(json.dumps(result))
"""


_CAPABILITIES = """
import contextlib, io, json
from repro.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(["capabilities"])
print(json.dumps(out.getvalue()))
"""


def _child(code, *args, stub_dir=None, env=None):
    """Run ``code`` in a fresh interpreter on this source tree; its
    last stdout line parsed as JSON."""
    paths = [SRC] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else [])
    if stub_dir is not None:
        paths.insert(0, str(stub_dir))
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
                     **(env or {}))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=child_env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture
def scipy_stub(tmp_path):
    """A directory whose ``scipy.py`` refuses to import — put first on
    PYTHONPATH it hides scipy exactly as the no-accelerator CI leg
    does."""
    stub = tmp_path / "noscipy"
    stub.mkdir()
    (stub / "scipy.py").write_text(
        'raise ImportError("scipy blocked for test")\n', encoding="utf-8")
    return stub


def _scipy_importable() -> bool:
    try:
        import scipy.linalg  # noqa: F401
    except ImportError:
        return False
    return True


class TestImportBudget:
    @pytest.mark.parametrize("argv, library", COMMANDS)
    def test_command_loads_only_what_it_runs(self, argv, library, tmp_path):
        env = {"REPRO_RUNS_DIR": str(tmp_path / "runs")}
        lazy = _child(_RUN_COMMAND, "lazy", *argv, env=env)
        eager = _child(_RUN_COMMAND, "eager", *argv, env=env)
        assert lazy["code"] == eager["code"] == 0
        assert library in lazy["loaded"]
        forbidden = set(HEAVY + CIRCUITS) - {library}
        if not lazy["kernel"]:
            # Without the compiled loops the Python Newton loop solves
            # through scipy's f2py dgesv, which lives in scipy.linalg.
            forbidden.discard("scipy.linalg")
        assert not forbidden & set(lazy["loaded"]), lazy["loaded"]
        assert lazy["stdout"] == eager["stdout"]

    def test_sigma_level_needs_no_scipy_stats(self, tmp_path):
        result = _child(_RUN_COMMAND, "lazy", *SIGMA_LEVEL,
                        env={"REPRO_RUNS_DIR": str(tmp_path / "runs")})
        assert result["code"] == 0
        level = next(line for line in result["stdout"].splitlines()
                     if line.strip().startswith("sigma level"))
        assert math.isfinite(float(level.split(":")[1].split()[0])), level
        assert "scipy.stats" not in result["loaded"]


@pytest.mark.skipif(not _scipy_importable(), reason="needs scipy")
class TestDgesvPointer:
    def test_pointer_is_cython_lapack_capsule(self):
        result = _child(_POINTER)
        assert result["pointer"] is not None
        assert not result["linalg_loaded"]
        assert result["dgesv_available"]
        assert result["pointer"] == result["capsule"]
        assert result["solve"] == pytest.approx([0.1, 0.6])
        assert result["dgesv"] == pytest.approx([0.1, 0.6])


class TestDgesvPointerWithoutScipy:
    def test_blocked_scipy_leaves_no_pointer(self, scipy_stub):
        result = _child(_POINTER, stub_dir=scipy_stub)
        assert result["pointer"] is None
        assert not result["dgesv_available"]
        assert result["counters"].get("solver.dc.kernel.compiled", 0) == 0
        assert result["counters"]["solver.dc.kernel.python"] > 0


class TestSameFlags:
    """Lazy answers equal the answers of bound (eagerly imported)
    solvers, which is how every probe answered before laziness."""

    def test_lazy_flags_equal_bound_flags(self):
        result = _child(_FLAGS)
        assert result["lazy"] == result["eager"]
        assert result["loaded"] == []

    def test_blocked_scipy_flags(self, scipy_stub):
        result = _child(_FLAGS, stub_dir=scipy_stub)
        assert result["lazy"] == result["eager"]
        flags, details = result["lazy"]["flags"], result["lazy"]["details"]
        assert not flags["dgesv"] and not flags["sparse"]
        assert not result["lazy"]["manifest"]["sparse"]
        assert details["dgesv"] == \
            "scipy.linalg.lapack not importable; np.linalg.solve"
        assert details["sparse"] == \
            "scipy.sparse not importable; dense solves"

    def test_sparse_kill_switch_flags(self):
        result = _child(_FLAGS, env={"REPRO_NO_SPARSE": "1"})
        assert result["lazy"] == result["eager"]
        assert not result["lazy"]["flags"]["sparse"]
        assert result["lazy"]["details"]["sparse"] == \
            "disabled by REPRO_NO_SPARSE"

    def test_capabilities_command_blocked_scipy(self, scipy_stub, tmp_path):
        result = _child(_CAPABILITIES, stub_dir=scipy_stub,
                        env={"REPRO_RUNS_DIR": str(tmp_path / "runs")})
        rows = {line.split()[0]: line.split()[1]
                for line in result.splitlines()
                if line.split()[:1] in (["dgesv"], ["sparse"])}
        assert rows == {"dgesv": "unavailable", "sparse": "unavailable"}
