"""Benchmark of the instanton package: three workloads, a correctness gate and
an outside-in layer trace.

    python3 perfbench/run.py --workload verify|model|cli|all --seed N \
        --seconds S --trace 0|1

Every child is a fresh interpreter started from ``src/`` of this checkout, one
at a time.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced sample and reports the
per-layer metrics, the tracing overhead, and writes the spans to
``.perfbench_runs/trace-<workload>-seed<N>.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit code
is 0 only if every output matched its reference.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

perf = time.perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
REFERENCE = BENCH / "reference.json"

RUN_LIMIT_S = 170.0      # every run must end within 180 s
SETUP_PROBES = 9

MODEL_CASES = [("4", "+", "-"), ("3", "-", "-"), ("3", "+", "2")]
THETAS = ["3/2", "2", "5/3"]


def model_key(g: str, sign: str, theta: str) -> str:
    return f"g{g}{sign}" + ("" if theta == "-" else f"theta={theta}")


def cli_commands(theta: str) -> List[tuple]:
    """(id, floer arguments) of one cli pass; every id is a reference key."""
    return [
        ("xi", ["xi", "--k", "4", "--n", "3", "--json"]),
        ("rho_series", ["rho", "--k", "5", "--r", "3", "--method", "series", "--json"]),
        ("rho_proj", ["rho", "--k", "5", "--r", "3", "--json"]),
        ("igen", ["igen", "--g", "2", "--n", "3", "--parity", "even", "--json"]),
        ("jgen", ["jgen", "--g", "3", "--local", "--json"]),
        ("hilbert", ["hilbert", "--g", "1", "--n", "3", "--source", "total",
                     "--max-degree", "20", "--json"]),
        ("eigen_g3_minus", ["eigen", "--g", "3", "--sign", "minus", "--json"]),
        (f"eigen_g2_theta={theta}", ["eigen", "--g", "2", "--theta", theta, "--json"]),
        ("solve", ["solve", "--g", "2", "--json"]),
        ("verify_rho", ["verify", "--suite", "rho"]),
    ]


# -- metric tables (BENCHMARK.json lists the same names) ----------------------------

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("wall_s", "s"), ("model_build_s", "s"),
    ("eigen_check_s", "s"), ("peak_rss_mb", "MB"),
]
# Printed with the end-to-end metrics where they apply; not in the JSON line,
# because they do not exist on every workload (the pass times) or are 0 by
# design (failed_share, which the JSON line carries as failed/attempted).
CLI_ONLY = [("miss_pass_s", "s"), ("hit_pass_s", "s")]

# name, unit, better, (kind, key): kind is calls|incl|self|extra|derived
PER_LAYER = (
    [(f"acceptance.A{i}_s", "s", "lower", ("incl", f"acceptance.A{i}")) for i in range(1, 14)]
    + [
        ("quotient.canonical_rep.calls", "count", "lower", ("calls", "quotient.canonical_rep")),
        ("quotient.canonical_rep.self_s", "s", "lower", ("self", "quotient.canonical_rep")),
        ("quotient.canonical_rep.terms_out", "count", "lower",
         ("extra", "quotient.canonical_rep.terms_out")),
        ("quotient.canonical_monomials.calls", "count", "lower",
         ("calls", "quotient.canonical_monomials")),
        ("quotient.canonical_monomials.s", "s", "lower", ("incl", "quotient.canonical_monomials")),
        ("floer.hilbert_compare.calls", "count", "lower", ("calls", "floer.hilbert_compare")),
        ("floer.hilbert_compare.s", "s", "lower", ("incl", "floer.hilbert_compare")),
        ("floer.graded.self_s", "s", "lower", ("self", "floer.graded")),
        ("floer.model_build.s", "s", "lower", ("incl", "floer.model_build")),
        ("floer.normal_form.calls", "count", "lower", ("calls", "floer.normal_form")),
        ("floer.normal_form.self_s", "s", "lower", ("self", "floer.normal_form")),
        ("floer.operator.calls", "count", "lower", ("calls", "floer.operator")),
        ("floer.operator.s", "s", "lower", ("incl", "floer.operator")),
        ("floer.model_dim.max", "count", "lower", ("extra", "floer.model_dim.max")),
        ("floer.memo.entries", "count", "lower", ("extra", "floer.memo.entries")),
        ("floer.eigen_verify.self_s", "s", "lower", ("self", "floer.eigen_verify")),
        ("floer.solve_subleading.s", "s", "lower", ("incl", "floer.solve_subleading")),
        ("floer.gamma_power_witness.s", "s", "lower", ("incl", "floer.gamma_power_witness")),
        ("linalg.rref.calls", "count", "lower", ("calls", "linalg.rref")),
        ("linalg.rref.self_s", "s", "lower", ("self", "linalg.rref")),
        ("linalg.rref.max_cells", "count", "lower", ("extra", "linalg.rref.max_cells")),
        ("linalg.rref.max_entry_bits", "bits", "lower", ("extra", "linalg.rref.max_entry_bits")),
        ("linalg.restrict.calls", "count", "lower", ("calls", "linalg.restrict")),
        ("linalg.restrict.s", "s", "lower", ("incl", "linalg.restrict")),
        ("linalg.kernel_basis.calls", "count", "lower", ("calls", "linalg.kernel_basis")),
        ("linalg.kernel_basis.s", "s", "lower", ("incl", "linalg.kernel_basis")),
        ("linalg.matmul.calls", "count", "lower", ("calls", "linalg.matmul")),
        ("linalg.matmul.self_s", "s", "lower", ("self", "linalg.matmul")),
        ("linalg.subspace_intersection.s", "s", "lower", ("incl", "linalg.subspace_intersection")),
        ("poly.mul.calls", "count", "lower", ("calls", "poly.mul")),
        ("poly.mul.self_s", "s", "lower", ("self", "poly.mul")),
        ("poly.change_coordinates.calls", "count", "lower", ("calls", "poly.change_coordinates")),
        ("poly.change_coordinates.self_s", "s", "lower", ("self", "poly.change_coordinates")),
        ("poly.flip.calls", "count", "lower", ("calls", "poly.flip")),
        ("poly.monomials_of_degree.s", "s", "lower", ("incl", "poly.monomials_of_degree")),
        ("relations.xi.s", "s", "lower", ("incl", "relations.xi")),
        ("relations.rho_proj.s", "s", "lower", ("incl", "relations.rho_proj")),
        ("relations.rho_series.s", "s", "lower", ("incl", "relations.rho_series")),
        ("relations.r_poly.s", "s", "lower", ("incl", "relations.r_poly")),
        ("relations.generators.s", "s", "lower", ("incl", "relations.generators")),
        ("relations.memo.entries", "count", "lower", ("extra", "relations.memo.entries")),
        ("series.expand_rational_fn.calls", "count", "lower", ("calls", "series.expand_rational_fn")),
        ("series.expand_rational_fn.s", "s", "lower", ("incl", "series.expand_rational_fn")),
        ("series.binom_sqrt_dets.s", "s", "lower", ("incl", "series.binom_sqrt_dets")),
        ("cli.process_start_s", "s", "lower", ("derived", "process_start")),
        ("cli.cache.gets", "count", "lower", ("extra", "cli.cache.gets")),
        ("cli.cache.hits", "count", "higher", ("extra", "cli.cache.hits")),
        ("cli.cache.hit_ratio", "ratio", "higher", ("derived", "hit_ratio")),
        ("cli.cache.puts", "count", "lower", ("extra", "cli.cache.puts")),
        ("cli.cache.put_bytes", "bytes", "lower", ("extra", "cli.cache.put_bytes")),
        ("cli.cache.io_s", "s", "lower", ("derived", "cache_io")),
        ("cli.compute_on_hit_s", "s", "lower", ("extra", "cli.compute_on_hit_s")),
        ("trace.overhead_s", "s", "lower", ("derived", "overhead")),
        ("trace.overhead_share", "ratio", "lower", ("derived", "overhead_share")),
    ]
)
MAX_KEYS = {"floer.model_dim.max", "linalg.rref.max_cells", "linalg.rref.max_entry_bits"}

# Boundaries that must record at least one call in the traced sample of each
# workload; a silent zero means a wrapper was bypassed and fails the run.
_NUMERIC = ["floer.model_build", "floer.normal_form", "floer.operator",
            "floer.eigen_verify", "linalg.rref", "linalg.restrict",
            "linalg.kernel_basis", "linalg.matmul", "linalg.subspace_intersection",
            "poly.mul", "poly.change_coordinates", "poly.monomials_of_degree",
            "relations.xi", "relations.generators", "series.expand_rational_fn"]
EXPECTED_CALLS = {
    "verify": [f"acceptance.A{i}" for i in range(1, 14)] + _NUMERIC + [
        "quotient.canonical_rep", "quotient.canonical_monomials",
        "floer.hilbert_compare", "floer.graded", "floer.solve_subleading",
        "floer.gamma_power_witness", "poly.flip", "relations.rho_proj",
        "relations.rho_series", "relations.r_poly", "series.binom_sqrt_dets"],
    "model": _NUMERIC,
    "cli": ["cli.run", "cli.cache.get", "cli.cache.put", "acceptance.A5",
            "acceptance.A6", "acceptance.A12", "acceptance.A13",
            "quotient.canonical_rep", "floer.hilbert_compare", "floer.graded",
            "floer.model_build", "floer.eigen_verify", "floer.solve_subleading",
            "linalg.rref", "poly.mul", "relations.xi", "relations.rho_proj",
            "relations.rho_series", "relations.generators",
            "series.binom_sqrt_dets"],
}


# -- processes ------------------------------------------------------------------------


class Proc:
    """One finished child: its spawn/reap times, exit code, stdout and result."""

    def __init__(self, label, t0, t1, code, stdout, stderr, result):
        self.label, self.t0, self.t1 = label, t0, t1
        self.code, self.stdout, self.result = code, stdout, result
        lines = stderr.decode(errors="replace").strip().splitlines()
        self.error = f" [{lines[-1]}]" if code and lines else ""

    def stat(self, metric: str, field: str) -> float:
        if not self.result or "trace" not in self.result:
            return 0.0
        return self.result["trace"]["stats"].get(metric, {}).get(field, 0.0)


class Runner:
    """Starts children one at a time inside a scratch directory of the checkout."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        RUNS.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RUNS))
        self.count = 0

    def fresh_dir(self) -> Path:
        self.count += 1
        d = self.tmp / f"s{self.count}"
        (d / "home").mkdir(parents=True)
        (d / "cache").mkdir()
        return d

    def spawn(self, label: str, args: List[str], where: Path, sample: str,
              trace: bool = False) -> Proc:
        self.count += 1
        result_path = where / f"result-{self.count}.json"
        out_path = where / f"stdout-{self.count}"
        env = dict(os.environ, PYTHONPATH=str(SRC), HOME=str(where / "home"),
                   FLOER_CACHE_DIR=str(where / "cache"),
                   PERFBENCH_RESULT=str(result_path), PERFBENCH_SAMPLE=sample,
                   PERFBENCH_TRACE="1" if trace else "0")
        err_path = where / f"stderr-{self.count}"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf()
            proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                                    stdout=out, stderr=err, env=env, cwd=str(where))
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - perf()))
            except BaseException:   # the run limit, or SIGTERM: never leave a child behind
                proc.kill()
                proc.wait()
                raise
            t1 = perf()
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        return Proc(label, t0, t1, code, out_path.read_bytes(), err_path.read_bytes(), result)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- samples ------------------------------------------------------------------------


# The calibration loop of child.py takes this long at the reference speed.
# Neither this constant nor the loop may change, or every time metric moves.
CALIBRATION_REF_S = 2.0e-4


class SpeedClock:
    """Time at the reference speed, from the children's calibration points.

    Every child runs a fixed calibration loop each 20 ms and reports when it ran
    and how long it took.  From one calibration to the next the machine is taken
    to run at CALIBRATION_REF_S / duration, and an interval's length at the
    reference speed is the integral of that rate over it.  On a shared host the
    speed drifts by up to 2x within seconds; smoothing over neighbouring points
    tracked it worse than each point alone."""

    def __init__(self, procs: List[Proc]):
        points = sorted(tuple(c) for p in procs for c in (p.result or {}).get("calibration", []))
        if not points:
            raise RuntimeError("no calibration points: a child did not run")
        self.t = [t for t, _d in points]
        self.rate = [CALIBRATION_REF_S / d for _t, d in points]
        self.v = [0.0]
        for i in range(1, len(points)):
            self.v.append(self.v[-1] + self.rate[i - 1] * (self.t[i] - self.t[i - 1]))

    def at(self, x: float) -> float:
        i = max(bisect.bisect_right(self.t, x) - 1, 0)
        return self.v[i] + self.rate[i] * (x - self.t[i])

    def span(self, a: float, b: float) -> float:
        return self.at(b) - self.at(a)


class Sample:
    """The processes of one sample, the operations checked and their failures."""

    def __init__(self, workload: str, index: int, traced: bool):
        self.id = f"{workload}#{index}{'-traced' if traced else ''}"
        self.traced = traced
        self.procs: List[Proc] = []
        self.passes: Dict[str, tuple] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    @property
    def wall(self) -> float:
        return self.procs[-1].t1 - self.procs[0].t0

    def end_to_end(self) -> tuple:
        """(reference-speed values, raw values) of the end-to-end metrics."""
        clock = SpeedClock(self.procs)
        raw = {"wall_s": self.wall, "model_build_s": 0.0, "eigen_check_s": 0.0}
        ref = {"wall_s": clock.span(self.procs[0].t0, self.procs[-1].t1),
               "model_build_s": 0.0, "eigen_check_s": 0.0}
        for proc in self.procs:
            spans = (proc.result or {}).get("trace", {}).get("spans", [])
            for name, t0, t1, parent, _sample in spans:
                in_eigen = parent is not None and spans[parent][0] == "floer.eigen_verify"
                for out, d in ((raw, t1 - t0), (ref, clock.span(t0, t1))):
                    if name == "floer.model_build":
                        out["model_build_s"] += d
                        if in_eigen:    # eigen_check_s excludes the model build
                            out["eigen_check_s"] -= d
                    elif name == "floer.eigen_verify":
                        out["eigen_check_s"] += d
        for name, (t0, t1) in self.passes.items():
            raw[f"{name}_pass_s"] = t1 - t0
            ref[f"{name}_pass_s"] = clock.span(t0, t1)
        rss = max((p.result or {}).get("maxrss_kb", 0) for p in self.procs) / 1024
        raw["peak_rss_mb"] = ref["peak_rss_mb"] = rss
        return ref, raw


def _isolation(sample: Sample, where: Path) -> None:
    sample.check(not (where / "home" / ".cache").exists(),
                 f"{sample.id}: a child wrote under $HOME/.cache")


def run_verify(runner: Runner, ref: dict, index: int, traced: bool, seed: int) -> Sample:
    sample = Sample("verify", index, traced)
    where = runner.fresh_dir()
    proc = runner.spawn("verify", ["verify"], where, sample.id, traced)
    sample.procs.append(proc)
    got = (proc.result or {}).get("output") or []
    for i, want in enumerate(ref["verify"]):
        have = got[i] if i < len(got) else None
        sample.check(proc.code == 0 and have == want,
                     f"{sample.id}: {want[0]} gave {have}, reference {want}{proc.error}")
    _isolation(sample, where)
    return sample


def run_model(runner: Runner, ref: dict, index: int, traced: bool, seed: int) -> Sample:
    sample = Sample("model", index, traced)
    where = runner.fresh_dir()
    for g, sign, theta in MODEL_CASES:
        key = model_key(g, sign, theta)
        proc = runner.spawn(f"model {key}", ["model", g, sign, theta], where,
                            sample.id, traced)
        sample.procs.append(proc)
        have = (proc.result or {}).get("output")
        sample.check(proc.code == 0 and have == ref["model"][key],
                     f"{sample.id}: model {key} gave {have}{proc.error}")
    _isolation(sample, where)
    return sample


def run_cli(runner: Runner, ref: dict, index: int, traced: bool, seed: int) -> Sample:
    rng = random.Random(seed * 1000 + index)
    theta = THETAS[random.Random(seed).randrange(len(THETAS))]
    sample = Sample("cli", index, traced)
    where = runner.fresh_dir()
    cache_dir = str(where / "cache")
    first: Dict[str, bytes] = {}
    for pass_name in ("miss", "hit"):
        commands = cli_commands(theta)
        rng.shuffle(commands)
        start = len(sample.procs)
        for cid, args in commands:
            proc = runner.spawn(f"cli {pass_name} {cid}", ["cli", *args, "--cache-dir", cache_dir],
                                where, sample.id, traced)
            sample.procs.append(proc)
            want = ref["cli"][cid]
            digest = want.get(f"sha256_{pass_name}", want.get("sha256"))
            ok = proc.code == want["exit"] and hashlib.sha256(proc.stdout).hexdigest() == digest
            if pass_name == "hit" and "sha256_hit" not in want:
                ok = ok and proc.stdout == first[cid]   # a hit serves the miss bytes
            first.setdefault(cid, proc.stdout)
            sample.check(ok, f"{sample.id}: {pass_name} pass `floer {' '.join(args)}` "
                             f"exit {proc.code}, stdout differs from the reference{proc.error}")
        sample.passes[pass_name] = (sample.procs[start].t0, sample.procs[-1].t1)
    _isolation(sample, where)
    return sample


WORKLOADS = {"verify": run_verify, "model": run_model, "cli": run_cli}


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(sample: Sample, plain: Sample) -> Dict[str, float]:
    stats: Dict[str, Dict[str, float]] = {}
    extra: Dict[str, float] = {}
    for proc in sample.procs:
        trace = (proc.result or {}).get("trace") or {"stats": {}, "extra": {}}
        for name, st in trace["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
            for field in acc:
                acc[field] += st[field]
        for key, value in trace["extra"].items():
            extra[key] = max(extra.get(key, 0), value) if key in MAX_KEYS \
                else extra.get(key, 0) + value
    traced_wall = sample.end_to_end()[0]["wall_s"]
    plain_wall = plain.end_to_end()[0]["wall_s"]
    cli_procs = [p for p in sample.procs if p.label.startswith("cli")]
    gets = extra.get("cli.cache.gets", 0)
    derived = {
        "process_start": sum(p.result["t_run_entry"] - p.t0 for p in cli_procs
                             if p.result and p.result.get("t_run_entry")),
        "hit_ratio": extra.get("cli.cache.hits", 0) / gets if gets else 0.0,
        "cache_io": sum(stats.get(k, {}).get("incl", 0.0)
                        for k in ("cli.cache.get", "cli.cache.put")),
        "overhead": traced_wall - plain_wall,
        "overhead_share": (traced_wall - plain_wall) / plain_wall,
    }
    out = {}
    for name, _unit, _better, (kind, key) in PER_LAYER:
        if kind == "extra":
            out[name] = extra.get(key, 0)
        elif kind == "derived":
            out[name] = derived[key]
        else:
            out[name] = stats.get(key, {}).get(kind, 0)
    return out


def coverage(workload: str, sample: Sample) -> None:
    for metric in EXPECTED_CALLS[workload]:
        calls = sum(p.stat(metric, "calls") for p in sample.procs)
        sample.check(calls > 0, f"{sample.id}: boundary {metric} recorded no call")


def write_spans(workload: str, seed: int, samples: List[Sample], metrics: dict) -> Path:
    """All spans of the traced samples: the sample, each child process, each cli
    pass, and every kept boundary span inside the children."""
    spans = []

    def add(name, start, end, parent, sample_id):
        spans.append({"id": len(spans), "name": name, "start": start, "end": end,
                      "parent": parent, "sample": sample_id})
        return len(spans) - 1

    for sample in samples:
        if not sample.traced:
            continue
        root = add("sample", sample.procs[0].t0, sample.procs[-1].t1, None, sample.id)
        pass_ids = {name: add(f"cli.{name}_pass", t0, t1, root, sample.id)
                    for name, (t0, t1) in sample.passes.items()}
        for proc in sample.procs:
            parent = pass_ids.get(proc.label.split()[1], root) if pass_ids else root
            pid = add(f"process {proc.label}", proc.t0, proc.t1, parent, sample.id)
            base = len(spans)
            for name, t0, t1, sparent, sid in (proc.result or {}).get("trace", {}).get("spans", []):
                spans.append({"id": len(spans), "name": name, "start": t0, "end": t1,
                              "parent": pid if sparent is None else base + sparent,
                              "sample": sid})
    path = RUNS / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "metrics": metrics, "spans": spans}))
    return path


# -- the run ----------------------------------------------------------------------------


def _snapshot() -> Dict[str, tuple]:
    """Files of the checkout outside the benchmark's scratch and bytecode dirs."""
    skip = {".perfbench_runs", "__pycache__", ".bench_build", ".git"}
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for f in filenames:
            st = os.stat(os.path.join(dirpath, f))
            files[os.path.relpath(os.path.join(dirpath, f), ROOT)] = (st.st_size, st.st_mtime_ns)
    return files


def _check_declared() -> None:
    """The metric names in BENCHMARK.json must be the ones this file reports."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    if e2e != END_TO_END or layer != [row[:3] for row in PER_LAYER] \
            or sorted(w["name"] for w in doc["workloads"]) != sorted(WORKLOADS):
        raise SystemExit("BENCHMARK.json does not match the metrics of perfbench/run.py")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 ref: dict, deadline: float) -> tuple:
    runner = Runner(deadline)
    try:
        probe_dir = runner.fresh_dir()
        runner.spawn("setup", ["setup"], probe_dir, "setup")   # warm-up: compiles bytecode
        probes = [] if trace else [runner.spawn("setup", ["setup"], probe_dir, "setup")
                                   for _ in range(SETUP_PROBES)]
        samples: List[Sample] = []
        t_begin = perf()
        index = 0
        while True:
            if trace:
                plain = WORKLOADS[workload](runner, ref, index, False, seed)
                traced = WORKLOADS[workload](runner, ref, index, True, seed)
                coverage(workload, traced)
                samples += [plain, traced]
                last = plain.wall + traced.wall
            else:
                samples.append(WORKLOADS[workload](runner, ref, index, False, seed))
                last = samples[-1].wall
            index += 1
            elapsed = perf() - t_begin
            if elapsed + last > seconds or perf() + last > deadline:
                break
        return probes, samples
    finally:
        runner.close()


def setup_times(probes: List[Proc]) -> tuple:
    """(reference-speed, raw) times from spawn to the end of `import instanton`."""
    clock = SpeedClock(probes)
    return ([clock.span(p.t0, p.result["t_imported"]) for p in probes],
            [p.result["t_imported"] - p.t0 for p in probes])


def report(workload: str, seed: int, trace: bool, probes, samples) -> dict:
    attempted = sum(s.attempted for s in samples)
    failures = [f for s in samples for f in s.failures]
    for f in failures:
        print(f"FAIL {f}")
    plain = [s for s in samples if not s.traced]
    print(f"workload {workload}  seed {seed}  samples {len(plain)}"
          + ("  (+ traced)" if trace else ""))
    metrics = {}
    if not trace:
        ref_setup, raw_setup = setup_times(probes)
        e2e = [s.end_to_end() for s in plain]
        ref = {"setup_s": statistics.median(ref_setup)}
        raw = {"setup_s": statistics.median(raw_setup)}
        for k in e2e[0][0]:
            ref[k] = statistics.median([m[0][k] for m in e2e])
            raw[k] = statistics.median([m[1][k] for m in e2e])
        for name, unit in END_TO_END + CLI_ONLY:
            if name in ref:
                n = len(probes) if name == "setup_s" else len(e2e)
                print(f"  {name:<16} {ref[name]:>12.4f} {unit:<3} (raw {raw[name]:.4f})"
                      f"  median of {n}")
        metrics = {name: {"value": ref[name], "unit": unit} for name, unit in END_TO_END}
    else:
        traced = [s for s in samples if s.traced]
        layers = [layer_metrics(t, p) for p, t in zip(plain, traced)]
        for name, unit, _better, _src in PER_LAYER:
            value = statistics.median([m[name] for m in layers])
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<36} {value:>14.4f} {unit}")
        path = write_spans(workload, seed, samples, metrics)
        print(f"  spans written to {path.relative_to(ROOT)}")
    print(f"  failed_share     {len(failures) / attempted:>12.4f}     "
          f"({len(failures)} of {attempted} operations)")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = perf()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "instanton" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'instanton'}", file=sys.stderr)
        return 2
    _check_declared()
    ref = json.loads(REFERENCE.read_text())
    before = _snapshot()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        probes, samples = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                       ref, t_start + RUN_LIMIT_S * len(names))
        results[name] = report(name, args.seed, bool(args.trace), probes, samples)
    changed = sorted(set(before.items()) ^ set(_snapshot().items()))
    if changed:
        print(f"FAIL the run changed files of the checkout: {sorted({c[0] for c in changed})}")
    if len(names) == 1:
        doc = results[names[0]]
    else:
        doc = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    if changed:
        doc["correct"] = False
        doc["failed"] += 1
        doc["attempted"] += 1
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
