"""Smoke test of the benchmark's workloads and its layer tracer.

`perfbench/workloads.py` and `perfbench/layertrace.py` call public entry
points of the package by name, so a renamed function or a changed result
would otherwise show only when the benchmark runs.  Both modules are
loaded by path and registered in sys.modules first, because the workloads'
dataclass looks its module up there.  The train-784 pass runs one epoch:
this test checks entry points, not speed.
"""
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_passes_run(tmp_path, monkeypatch, capsys):
    workloads = _load("workloads", monkeypatch)
    layertrace = _load("layertrace", monkeypatch)
    main = workloads.cli.main

    ais = workloads.WORKLOADS["ais-64"]
    (tmp_path / "ais").mkdir()
    state = ais.prepare(tmp_path / "ais", 0)
    ops = ais.run_pass(state, 1)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        ops += ais.run_pass(state, 1)
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert workloads.cli.main is main
    ais.finish(state, ops)

    train = workloads.WORKLOADS["train-784"]
    monkeypatch.setattr(train, "epochs", 1)
    (tmp_path / "train").mkdir()
    train_state = train.prepare(tmp_path / "train", 0)
    train_ops = train.run_pass(train_state, 0)
    train.finish(train_state, train_ops)

    assert len(ops) == 8 and len(train_ops) == 1
    assert all(op.ok for op in ops + train_ops), capsys.readouterr().err
    assert metrics["cli.main_s"] > 0
    assert metrics["partition.ais_estimate_s"] > 0
