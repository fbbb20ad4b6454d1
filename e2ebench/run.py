#!/usr/bin/env python3
"""Build and run the bsld end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test

The first call configures and builds the library and the benchmark (Release)
under .bench_build/e2ebench; later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. That line is fitted to the metric lists of BENCHMARK.json, the one
place metric names and units are declared: --trace 0 prints the
`end_to_end` metrics and --trace 1 the `per_layer` metrics, in declared
order. A per-layer metric the workload does not reach reads 0; a missing
end-to-end metric, a unit that differs from the declared one or a metric
that is not declared makes the result incorrect. The exit code is 0 when
every output check passed, 1 when one failed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "e2ebench")
DECLARED = os.path.join(ROOT, "BENCHMARK.json")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configured = any(os.path.exists(os.path.join(BUILD, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def fit(result, declared, trace):
    """Returns `result` with its metrics fitted to BENCHMARK.json, and the
    problems found (an empty list when it fits)."""
    wanted = declared["per_layer" if trace else "end_to_end"]
    names = {metric["name"] for metric in wanted}
    measured = result["metrics"]
    problems = [f"{name} is not declared in BENCHMARK.json"
                for name in measured if name not in names]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        value = measured.get(name, {"value": 0.0, "unit": unit})
        if name not in measured and not trace:
            problems.append(f"{name} was not measured")
        if value["unit"] != unit:
            problems.append(f"{name} is in {value['unit']}, declared {unit}")
        metrics[name] = {"value": value["value"], "unit": unit}
    fitted = dict(result, metrics=metrics)
    fitted["correct"] = result["correct"] and not problems
    return fitted, problems


def check_fit():
    """Self-test of fit(); returns the number of failed checks."""
    declared = {"end_to_end": [{"name": "a", "unit": "s"}],
                "per_layer": [{"name": "x", "unit": "ns"},
                              {"name": "y", "unit": "count"}]}
    ok = {"correct": True, "attempted": 1, "failed": 0}
    cases = [
        (dict(ok, metrics={"a": {"value": 2.0, "unit": "s"}}), False, True),
        (dict(ok, metrics={}), False, False),
        (dict(ok, metrics={"a": {"value": 2.0, "unit": "ms"}}), False, False),
        (dict(ok, metrics={"a": {"value": 2.0, "unit": "s"},
                           "b": {"value": 1.0, "unit": "s"}}), False, False),
        (dict(ok, metrics={"x": {"value": 5.0, "unit": "ns"}}), True, True),
    ]
    failures = 0
    for result, trace, correct in cases:
        fitted, _ = fit(result, declared, trace)
        if fitted["correct"] != correct:
            print(f"fit self-test: {result['metrics']} trace={trace}: "
                  f"correct={fitted['correct']}", file=sys.stderr)
            failures += 1
    fitted, _ = fit(cases[-1][0], declared, True)
    if list(fitted["metrics"]) != ["x", "y"] or \
            fitted["metrics"]["y"] != {"value": 0.0, "unit": "count"}:
        print(f"fit self-test: not zero-filled in order: {fitted}",
              file=sys.stderr)
        failures += 1
    return failures


def run_benchmark(binary, argv):
    """Runs the benchmark program and prints its output with the result
    line fitted to BENCHMARK.json; returns the exit code."""
    with open(DECLARED) as file:
        declared = json.load(file)
    done = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        for line in lines:
            print(line)
        return done.returncode or 3
    trace = argv[argv.index("--trace") + 1] == "1"  # the program checked it.
    fitted, problems = fit(json.loads(lines[-1]), declared, trace)
    for line in lines[:-1]:
        print(line)
    for problem in problems:
        print(f"# failed={problem}")
    print(json.dumps(fitted))
    return 0 if fitted["correct"] else 1


def main(argv):
    try:
        if argv == ["--self-test"]:
            binary = build("e2ebench_selftest")
        else:
            binary = build("bsld_e2e")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    if argv == ["--self-test"]:
        failures = check_fit()
        code = subprocess.run([binary], cwd=ROOT).returncode
        return code or (1 if failures else 0)
    return run_benchmark(binary, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
