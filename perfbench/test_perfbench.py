"""Tests of the benchmark itself, at tiny sizes:

    python -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)], tiny=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    context, result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert context["error_rate"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def perturbed(sol):
    """The same answer with its first coefficient off by one."""
    if not sol:
        return sol
    first = sol[0].field.scalar(sol[0].value + 1)
    return (first,) + tuple(sol[1:])


def corrupt_solve_many(monkeypatch, lib):
    solve_many = lib.core.solve_many

    def wrong(seq, targets):
        sols = solve_many(seq, targets)
        i = next(i for i, s in enumerate(sols) if s is not None)
        return sols[:i] + [perturbed(sols[i])] + sols[i + 1:]

    monkeypatch.setattr(lib.core, "solve_many", wrong)


def corrupt_cli_member(monkeypatch, lib):
    solve_in_span = lib.cli.solve_in_span

    def wrong(seq, x):
        sol = solve_in_span(seq, x)
        return None if sol is None else perturbed(sol)

    monkeypatch.setattr(lib.cli, "solve_in_span", wrong)


@pytest.mark.parametrize("workload, corrupt", [
    ("solve-large", corrupt_solve_many),
    ("cli-files", corrupt_cli_member),
])
def test_a_perturbed_witness_is_counted_as_failed(capsys, monkeypatch, workload, corrupt):
    build = run.WORKLOADS[workload]

    def corrupted_build(lib, *args, **kwargs):
        corrupt(monkeypatch, lib)
        return build(lib, *args, **kwargs)

    monkeypatch.setitem(run.WORKLOADS, workload, corrupted_build)
    context, result = bench(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert context["error_rate"] == result["failed"] / result["attempted"] > 0


def test_tracer_attributes_eliminations_and_restores_bindings():
    lib = run.fresh_import()
    field = lib.GF(5)
    e_rows, f_rows, _ = gen.frame_pair(random.Random(0), 5, 3, 4)
    e, f = lib.Frame(lib.sequence(field, e_rows)), lib.Frame(lib.sequence(field, f_rows))
    originals = {name: getattr(lib.spans, name) for name in ("span_of", "solve_many", "reduced_form")}
    with tracing.Tracer() as tracer:
        lib.trace_induction(e, f)
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["lemma.trace_induction.eliminations"] == metrics["core.reduced_form.calls"] > 0
    assert metrics["spans.frame_checks"] > 0 and metrics["field.scalar_calls"] > 0
    assert {name: getattr(lib.spans, name) for name in originals} == originals


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
