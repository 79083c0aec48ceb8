"""The workload registry: one definition serves the CLI and the daemon.

* the table declares each param once, and builders import their
  circuits lazily (importing the registry loads no solver);
* :func:`repro.workloads.resolve` refuses unknown names, analyses a
  workload does not serve, and bad param types or ranges — and the
  daemon turns each refusal into an HTTP 400 before a job exists;
* for equal params, ``repro mc`` and a serve ``mc`` job print the same
  yield and sigma and record the same ``config["workload"]``
  fingerprint.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import workloads
from repro.cli import main
from repro.obs.runlog import RunRegistry
from repro.serve import ServeApp, ServeClient, ServeConfig
from repro.technology import get_node

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestRegistry:
    def test_table_shape(self):
        assert sorted(workloads.WORKLOADS) == ["node", "offset", "ring",
                                               "sram"]
        params = [key for w in workloads.WORKLOADS.values()
                  for key in w.params]
        assert len(params) == len(set(params)) == 13
        served = {name: w.analyses
                  for name, w in workloads.WORKLOADS.items()}
        assert served == {"offset": ("mc", "corners"), "ring": ("mc",),
                          "sram": ("highsigma",),
                          "node": ("mc", "corners")}

    def test_cli_defaults_are_the_registry_defaults(self):
        from repro.cli import build_parser

        parser = build_parser()
        mc = parser.parse_args(["mc"])
        hs = parser.parse_args(["highsigma"])
        for name, args in (("offset", mc), ("ring", mc), ("sram", hs)):
            for key, param in workloads.WORKLOADS[name].params.items():
                if hasattr(args, key) and key != "snm_min_mv":
                    assert getattr(args, key) == param.default, key
        sram = workloads.WORKLOADS["sram"].params
        assert sram["cell_ratio"].default == 1.2
        assert sram["snm_points"].default == 41

    def test_import_loads_no_circuit_or_engine(self):
        code = ("import sys, repro.workloads; "
                "print(sorted(m for m in sys.modules if m.startswith("
                "('repro.circuit', 'repro.core.', 'numpy'))))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=SRC)).stdout
        assert out.strip() == "[]"

    def test_resolve_fills_defaults_and_coerces_ints(self):
        tech = get_node("90nm")
        implicit = workloads.resolve("offset", {"w_um": 2}, tech)
        explicit = workloads.resolve(
            "offset", {"w_um": 2.0, "l_um": 0.4, "limit_mv": 5.0,
                       "samples": 64}, tech)
        assert implicit.params == {"w_um": 2.0, "l_um": 0.4,
                                   "limit_mv": 5.0}
        assert implicit.fingerprint == explicit.fingerprint
        other = workloads.resolve("offset", {"w_um": 2}, get_node("45nm"))
        assert other.fingerprint != implicit.fingerprint

    @pytest.mark.parametrize("name, params, analysis, match", [
        ("nope", {}, None, "unknown workload"),
        (["offset"], {}, None, "unknown workload"),
        ("sram", {}, "mc", "does not serve mc"),
        ("offset", {}, "highsigma", "does not serve highsigma"),
        ("ring", {}, "corners", "does not serve corners"),
        ("offset", {"w_um": -1.0}, None, "'w_um' must be >= 0.01"),
        ("offset", {"w_um": "wide"}, None, "'w_um' must be float"),
        ("ring", {"n_stages": 3.0}, None, "'n_stages' must be int"),
        ("sram", {"snm_points": True}, None, "'snm_points' must be int"),
        ("node", {"node": "out", "lower": 0.1}, None, "needs a netlist"),
    ])
    def test_resolve_refusals(self, name, params, analysis, match):
        with pytest.raises(workloads.WorkloadError, match=match):
            workloads.resolve(name, params, get_node("90nm"),
                              analysis=analysis)

    def test_node_workload_checks_its_measurement(self):
        netlist = "t\nv1 a 0 dc 1\nr1 a 0 1k\n.end\n"
        for params, match in (({"lower": 0.1}, "params.node"),
                              ({"node": "a"}, "lower and/or"),
                              ({"node": "a", "lower": 1.0, "upper": 0.5},
                               "below")):
            with pytest.raises(workloads.WorkloadError, match=match):
                workloads.resolve("node", params, None, netlist=netlist)
        with pytest.raises(workloads.WorkloadError, match="no netlist"):
            workloads.resolve("offset", {}, get_node("90nm"),
                              netlist=netlist)


# ----------------------------------------------------------------------
# Both front ends, one workload
# ----------------------------------------------------------------------

@pytest.fixture()
def daemon(tmp_path, monkeypatch):
    """An in-process daemon recording runs into ``tmp_path/runs``."""
    runs_dir = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(runs_dir))
    monkeypatch.delenv("REPRO_NO_RUNLOG", raising=False)
    app = ServeApp(ServeConfig(port=0, workers=1, record_runs=True))
    thread = threading.Thread(target=app.run, daemon=True)
    thread.start()
    assert app.wait_ready(20), "server did not bind"
    try:
        yield app, ServeClient("127.0.0.1", app.port), runs_dir
    finally:
        app.request_stop()
        thread.join(40)


def _cli_rows(argv, capsys):
    assert main(argv + ["--quiet"]) == 0
    out = capsys.readouterr().out
    return {key.strip(): value.strip() for key, _, value in
            (line.partition(" : ") for line in out.splitlines()) if value}


def _workload_config(runs_dir, command):
    return [r["config"]["workload"] for r in RunRegistry(runs_dir).list()
            if r["command"] == command]


@pytest.mark.parametrize("name, flags, params, rows", [
    ("offset", ["--w-um", "2"], {"w_um": 2}, ("81.2 %", "3.80 mV")),
    ("ring", ["--ring-dt", "1e-11"], {"ring_dt": 1e-11}, None),
])
def test_cli_and_serve_agree(daemon, capsys, name, flags, params, rows):
    _app, client, runs_dir = daemon
    cli = _cli_rows(["mc", "--workload", name, "--samples", "64",
                     "--seed", "7", *flags], capsys)
    reply = client.run({"analysis": "mc", "tech": "90nm", "seed": 7,
                        "params": {"samples": 64, "workload": name,
                                   **params}}, timeout=300)
    assert reply["outcome"] == "ok", reply
    result = reply["result"]
    metric = "offset" if name == "offset" else "swing"
    served = (f"{result['yield_fraction'] * 100:.1f} %",
              f"{result['metrics'][metric]['sigma'] * 1e3:.2f} mV")
    assert (cli["yield"], cli[f"{metric} sigma"]) == served
    if rows is not None:
        assert served == rows
    cli_fp = _workload_config(runs_dir, "mc")
    serve_fp = _workload_config(runs_dir, "serve.mc")
    expected = workloads.resolve(name, params, get_node("90nm")).fingerprint
    assert cli_fp == serve_fp == [expected]


@pytest.mark.parametrize("payload, match", [
    ({"analysis": "highsigma", "tech": "65nm",
      "params": {"workload": "offset"}}, "does not serve highsigma"),
    ({"analysis": "highsigma", "tech": "65nm",
      "params": {"workload": "ring"}}, "does not serve highsigma"),
    ({"analysis": "mc", "tech": "90nm", "params": {"w_um": -1.0}},
     "'w_um' must be >= 0.01"),
    ({"analysis": "mc", "tech": "90nm", "params": {"workload": "nope"}},
     "unknown workload"),
    ({"analysis": "mc", "tech": "90nm", "params": {"workload": "sram"}},
     "does not serve mc"),
    ({"analysis": "corners", "tech": "90nm",
      "params": {"workload": "ring"}}, "does not serve corners"),
    ({"analysis": "highsigma", "tech": "65nm",
      "params": {"cell_ratio": "big"}}, "'cell_ratio' must be float"),
    ({"analysis": "highsigma", "tech": "65nm",
      "netlist": "t\nv1 a 0 dc 1\nr1 a 0 1k\n.end\n"},
     "does not serve highsigma"),
])
def test_serve_refuses_bad_workload_at_submit(payload, match):
    app = ServeApp(ServeConfig(port=0, workers=1, record_runs=False))
    status, response = app.submit(payload)
    assert status == 400, response
    assert response["outcome"] == "refused"
    assert match in response["error"]
    assert app.get_job("j000001") is None
