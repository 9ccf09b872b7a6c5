"""The gpdkit benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; gpdkit is imported from the
checkout's ``src``, never from an installed copy.  With ``--trace 0`` the run
repeats whole passes of the workload for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it makes one pass of the workload and
one round of direct, span-wrapped calls into every layer, and reports the
per-layer metrics.  Pass, command and set-up times are scaled to a nominal
host speed with the gauge in ``gauge.py``; the raw times go to the run
record.  The last line of stdout is one JSON object; details go to
``perfbench/out/``.  Everything runs one command at a time: no thread
pool, no parallel children.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import checks
import oracle
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "src" / "gpdkit" / "data"
OUT = HERE / "out"
WORKER = str(HERE / "worker.py")
CHILD_TIMEOUT_S = 150
# Setup samples are taken half before and half after the passes, so that a
# slow spell of the host at one end of the run does not set the median.
SETUP_REPEATS = 5

UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# About the gauge chunk's mean time on the reference host (README): a time
# measured while the chunk took c seconds is scaled by NOMINAL_CHUNK_S / c.
NOMINAL_CHUNK_S = 140e-6


def at_nominal_speed(net_s: float, chunk_s: float) -> float:
    """A time with the gauge's own chunks taken out, at the nominal host speed."""
    return net_s * NOMINAL_CHUNK_S / chunk_s


def spawn(args, stdin: str | None = None) -> tuple[float, subprocess.CompletedProcess]:
    """Run the interpreter on ``args`` from the checkout root; wall seconds and result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *map(str, args)], input=stdin, capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def reference_loop_ms() -> float:
    """A fixed pure-Python loop that touches no gpdkit code, timed at both ends
    of a run and kept in its record, so runs can be set against the host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def _op(label: str, seconds: float, norm_s: float, status: str, problems: list[str],
        interactive: bool = True) -> dict:
    return {"label": label, "s": seconds, "norm_s": norm_s, "status": status,
            "problems": problems, "interactive": interactive}


def spawn_worker(args) -> tuple[float, float, dict | None, str]:
    """One fresh-interpreter pass of ``worker.py``.

    Returns its spawn-to-exit wall time, that time at the nominal host speed,
    the worker's document (None if it failed) and its stderr.
    """
    wall, proc = spawn([WORKER, *args])
    if proc.returncode != 0:
        return wall, wall, None, proc.stderr.strip()[-400:]
    doc = json.loads(proc.stdout)
    gauge = doc["gauge"]
    if gauge["chunk_s"] is None:
        raise RuntimeError(f"no gauge chunk ran during {args[0]}")
    return wall, at_nominal_speed(wall - gauge["busy_s"], gauge["chunk_s"]), doc, proc.stderr


def setup_samples(repeats: int) -> list[dict]:
    """Fresh interpreters that import gpdkit.cli: spawn-to-exit wall time, that
    time at the nominal host speed, and the numpy and gpdkit.cli imports."""
    samples = []
    for _ in range(repeats):
        wall, norm, doc, err = spawn_worker(["setup"])
        if doc is None:
            raise RuntimeError(f"import probe failed: {err}")
        samples.append({"wall_s": wall, "norm_s": norm,
                        "numpy_s": doc["numpy_s"], "cli_s": doc["cli_s"]})
    return samples


# -- workloads: each returns (passes, problems found across passes) --------------
#
# A pass is {"wall_s": seconds to all of its verdicts, "norm_s": the same at
# the nominal host speed, "ops": [...]}; passes repeat until ``seconds`` have
# gone by, and there is always at least one.

def interchange_passes(seed: int, seconds: float):
    passes, start = [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall, norm, doc, err = spawn_worker(["criterion4", "--seed", seed])
        if doc is None:
            op = _op("criterion-4", wall, norm, "failed", [err])
        else:
            problems = checks.check_criterion4(doc)
            op = _op("criterion-4", wall, norm, "incorrect" if problems else "ok", problems)
        passes.append({"wall_s": wall, "norm_s": norm, "ops": [op]})
    return passes, []


def lambda_passes(seed: int, seconds: float):
    workspace = OUT / "auts3.vk"
    workspace.write_text(checks.AUTS3_WORKSPACE)
    op = checks.Op("xmod-lambda", ["--format", "machine", "--seed", str(seed), "xmod", "lambda",
                                   str(workspace)], 0, checks.check_lambda)
    passes, parsed, start = [], [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall, norm, result, err = spawn_worker(["cli", *op.argv])
        status, problems = checks.judge(op, result) if result else ("failed", [err])
        if status == "ok":
            parsed.append(checks.parse_machine(result["out"]))
        passes.append({"wall_s": wall, "norm_s": norm,
                       "ops": [_op(op.label, wall, norm, status, problems)]})
    return passes, checks.check_same_checks(parsed) if len(parsed) > 1 else []


def session_passes(seed: int, seconds: float):
    seeded = OUT / f"session-seed{seed}.vk"
    seeded.write_text(checks.seeded_workspace(seed))
    missing = OUT / "no-such-workspace.vk"
    missing.unlink(missing_ok=True)
    plan = checks.session_plan(DATA, seeded, missing, seed)
    _, proc = spawn([WORKER, "session", "--seed", seed, "--seconds", seconds],
                    stdin=json.dumps([[op.label, op.argv] for op in plan]))
    if proc.returncode != 0:
        raise RuntimeError(f"session worker failed: {proc.stderr.strip()[-400:]}")
    doc = json.loads(proc.stdout)
    problems = []
    for op, result in zip(plan, doc["warmup"]):  # checked, not counted
        status, found = checks.judge(op, result)
        if status == "incorrect":
            problems += [f"warm-up {op.label}: {p}" for p in found]
    passes = []
    for p in doc["passes"]:
        ops = [_op(op.label, r["s"], at_nominal_speed(r["net_s"], r["chunk_s"] or p["chunk_s"]),
                   *checks.judge(op, r), op.interactive)
               for op, r in zip(plan, p["results"])]
        passes.append({"wall_s": p["wall_s"], "norm_s": at_nominal_speed(p["net_s"], p["chunk_s"]),
                       "ops": ops})
    return passes, problems


WORKLOADS = {
    "interchange-a3s3": interchange_passes,
    "lambda-auts3": lambda_passes,
    "vk-session": session_passes,
}


def tally(passes, problems):
    """(correct, attempted, failed, problem lines) over every op of every pass."""
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["status"] == "failed"]
    unexpected = sorted({op["label"] for op in failed} - set(checks.KNOWN_FAILING))
    lines = list(problems)
    lines += [f"{op['label']}: {pr}" for op in ops if op["status"] == "incorrect" for pr in op["problems"]]
    lines += [f"{label}: failed, and is not a known fault" for label in unexpected]
    return not lines, len(ops), len(failed), lines


# -- the traced layer round -------------------------------------------------------

def layer_metrics(spec: list[dict], spans: list[dict]) -> dict:
    durations = {}
    for s in spans:
        per_call = (s["end"] - s["start"]) / s.get("calls", 1)
        durations.setdefault(s["name"], []).append(per_call)
    metrics = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        if name == "dgt.interchange_quads_per_s":
            a3s3 = checks.A3S3
            quads = oracle.quadruple_count(a3s3["n"], a3s3["m"])
            value = quads / statistics.median(durations["dgt.interchange_exhaustive_s"])
        else:
            value = statistics.median(durations[name]) * UNIT_SCALE[unit]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gpdkit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gpdkit" / "cli.py").is_file():
        print(f"perfbench: no gpdkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    t_run = time.perf_counter()
    ref_before = reference_loop_ms()
    setup_samples(1)  # warm-up: compiles bytecode in a fresh checkout
    setup = setup_samples(SETUP_REPEATS)
    tracer = Tracer()
    # A traced run makes one pass, under a span, so its wall time can be set
    # against the untraced passes' (the tracing overhead in the README).
    with tracer.span("workload.pass", workload=args.workload) if args.trace else nullcontext():
        passes, problems = WORKLOADS[args.workload](args.seed, 0.0 if args.trace else args.seconds)
    setup += setup_samples(SETUP_REPEATS)
    if args.trace:
        _, proc = spawn([WORKER, "layers", "--seed", args.seed, "--data", DATA])
        if proc.returncode != 0:
            raise RuntimeError(f"layer worker failed: {proc.stderr.strip()[-400:]}")
        doc = json.loads(proc.stdout)
        problems += [f"layers: {p}" for p in checks.check_layer_facts(doc["facts"], DATA)]
        spans = doc["spans"] + [
            {"name": name, "start": 0.0, "end": value}
            for sample in setup
            for name, value in (("import.numpy_s", sample["numpy_s"]),
                                ("import.gpdkit_cli_s", sample["cli_s"]))
        ]
        metrics = layer_metrics(spec["per_layer"], spans)
        trace_doc = {"workload": args.workload, "seed": args.seed,
                     "benchmark_spans": tracer.spans, "layer_spans": spans,
                     "pass_ops": [[op["label"], op["s"], op["status"]] for op in passes[0]["ops"]]}
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace_doc))
    else:
        # Battery runs inside a session are batch work: they count in the
        # pass time, not in the latency of an interactive command.
        latencies = [op["norm_s"] for p in passes for op in p["ops"] if op["interactive"]]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "wall_norm_s": statistics.median(p["norm_s"] for p in passes),
            "cmd_p50_norm_ms": statistics.median(latencies) * 1e3,
            "setup_s": statistics.median(s["norm_s"] for s in setup),
            "peak_rss_mb": peak_kb / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct, attempted, failed, lines = tally(passes, problems)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "problems": lines[:50],
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_norm_s": [p["norm_s"] for p in passes],
        "op_norm_ms": {op["label"]: statistics.median(
            q["norm_s"] for p in passes for q in p["ops"] if q["label"] == op["label"]) * 1e3
            for op in passes[0]["ops"]},
        "raw": {"wall_s": statistics.median(p["wall_s"] for p in passes),
                "setup_s": statistics.median(s["wall_s"] for s in setup),
                "cmd_p50_ms": statistics.median(
                    [op["s"] for p in passes for op in p["ops"] if op["interactive"]]) * 1e3},
        "reference_loop_ms": [ref_before, reference_loop_ms()],
        "run_s": time.perf_counter() - t_run,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for line in lines[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
