"""Fast self-test of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

from oimsim import cli  # noqa: E402


def _validator(inputs):
    schema = Path(cli.__file__).parent / "schemas" / inputs.schema
    return jsonschema.Draft202012Validator(json.loads(schema.read_text()))


def test_failed_check_is_counted_not_dropped(tmp_path):
    inputs = bench.oracle_inputs(1, tmp_path, n=8)
    calls = []
    real_check = inputs.check

    def fail_second(doc):
        calls.append(doc)
        return ["forced failure"] if len(calls) == 2 else real_check(doc)

    inputs.check = fail_second
    ops = bench.measure(cli.main, inputs, _validator(inputs), seconds=0, trace=True,
                        tracer=bench.Tracer())
    assert len(ops) == 3
    assert [bool(op["problems"]) for op in ops] == [False, True, False]
    assert ops[1]["seconds"] > 0


def test_times_are_cpu_times_scaled_by_the_kernel_around_them(tmp_path):
    inputs = bench.oracle_inputs(1, tmp_path, n=8)
    inputs.reference = bench.Yardstick(lambda: bench.python_kernel(20_000), 0.5)
    ops = bench.measure(cli.main, inputs, _validator(inputs), seconds=0, trace=False)
    (op,) = ops
    assert op["kernel_s"] > 0
    assert op["seconds"] == op["cpu_s"] * 0.5 / op["kernel_s"]


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    inputs = bench.oracle_inputs(1, tmp_path, n=8)
    inputs.argv[1] = str(tmp_path / "missing.graph")
    ops = bench.measure(cli.main, inputs, _validator(inputs), seconds=0, trace=False)
    assert len(ops) == 1
    assert all(op["problems"] == ["exit 2"] for op in ops)


def test_traced_counts_repeat_and_match_the_stepper(tmp_path):
    inputs = bench.solve_inputs(1, tmp_path, n=12, density=0.5, attempts=1)
    tracer = bench.Tracer()
    ops = bench.measure(cli.main, inputs, _validator(inputs), seconds=0, trace=True, tracer=tracer)
    assert [op["traced"] for op in ops] == [True, False, True]
    assert not any(op["problems"] for op in ops)
    per_op = [bench.layer_metrics([s for s in tracer.spans if s.op == op["index"]])
              for op in ops if op["traced"]]
    first, second = per_op
    # solve defaults: Euler-Maruyama, one RHS call per step, t_end 20, dt 0.01
    assert first["integrate.runs"] == 1
    assert first["integrate.steps"] == first["dynamics.rhs_calls"] == 2000
    assert first["integrate.samples"] == 201
    for key in bench.EXACT_COUNTS:
        assert first[key] == second[key]
    assert set(first) | {"trace.overhead_frac"} == set(bench.LAYERS)
    # untraced operations run the package unmodified
    assert cli.solve.__module__ == "oimsim.experiments"


def test_tail_percentile():
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    assert bench.tail([float(v) for v in range(1, 101)]) == (90.0, "p90.0")


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle_n22", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: unit for name, (unit, _, _) in bench.LAYERS.items()}
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(bench.WORKLOADS)
