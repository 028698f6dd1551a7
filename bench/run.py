"""Benchmark for mavl: corpus scoring, mock translation and the remote round trip.

    python3 bench/run.py --workload eval-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  Every
input is generated from ``--seed`` (see ``corpus.py``) and every measured step
is a fresh process calling the real entry point, ``mavl.cli.main``, as a user's
shell would (see ``worker.py``).  Repeats run until ``--seconds`` are used.

Times are reference seconds (``ref-s``): a step's CPU time scaled by the speed
of a reference loop running on the same CPU at the same time (see
``pacer.py``).  On a shared host the CPU speed swings by up to a factor of two
within seconds, which wall and CPU times follow and reference seconds cancel.
Wall-time throughputs are printed too, but not reported as metrics.  Set-up
time, ``setup_s``, is the median over fresh processes of set-up CPU time over
the CPU time of a fixed set of stdlib imports in the next fresh process,
times ``BASELINE_S``.

Workloads (closed loop, one command at a time):

* ``eval-corpus`` -- ``mavl evaluate`` of about 4,000 rows (EN originals plus
  ES/FR/KO/JA dubbed lines, a third of them chorus repeats) with the offline
  hash embedder.  CPU-bound in phonetics, syllables and embedding.
* ``translate-mock`` -- ``mavl translate --provider mock --variant full``
  EN->KO on 2,000 lines with a keyed script: a third reprompt once, 2% reply
  with no payload and 2% put a brace in the translation.  CPU-bound in
  prompts, reply parsing, the mock's key scan and trace writes.
* ``roundtrip-remote`` -- ``mavl translate`` EN->KO+JA on 150 lines at
  ``--parallelism 2``, then ``mavl evaluate``, against a fake endpoint on
  127.0.0.1 with a 5 ms service delay.  Latency-bound in wall time; CPU layers
  idle.  Its ``lines_per_ref_s`` counts the program's own CPU time, mostly
  HTTP round trips, so fewer or cheaper requests raise it; time spent waiting
  on the endpoint shows only in the printed wall-time throughputs.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced repeats (alternated with
untraced ones, which give the tracing overhead).  The lines above it are a
human-readable record: environment, input properties, and every metric with
its unit and sample count.  A run whose outputs fail a check (``checks.py``)
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROCESSES = 11
# set-up CPU time of the stdlib imports in ``worker.py baseline`` that
# ``setup_s`` counts as its unit; about what a 2020s server core needs
BASELINE_S = 0.12
# weights of the pacer's units for each workload (see pacer.py): evaluate
# runs edit-distance tables, translate and HTTP handle strings and dicts
WORKLOAD_WEIGHTS = {
    "eval-corpus": {"edit": 1.0},
    "translate-mock": {"scan": 0.5, "text": 0.5},
    "roundtrip-remote": {"scan": 0.5, "text": 0.5},
}
DEADLINE_S = 170.0
REMOTE_PARALLELISM = 2
API_KEY_ENV = "MAVL_API_KEY"

class Failure(Exception):
    """A step of the benchmark went wrong; the run reports incorrect."""


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _percentile_report(values: list[float], higher_is_better: bool) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return "-"
    ordered = sorted(values)
    if higher_is_better:  # the bad tail is the low end
        return f"p{100 * 10 / n:.0f}={ordered[10]:.6g}"
    return f"p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Bench:
    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.started = time.monotonic()
        self.work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env[API_KEY_ENV] = "bench-dummy-key"
        self.endpoint: subprocess.Popen | None = None
        self.endpoint_url = ""
        self.pacer: subprocess.Popen | None = None
        # every measured process inherits this CPU; the endpoint gets the rest
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[0]})
        self.endpoint_cpus = set(cpus[1:]) or {cpus[0]}
        self.attempted = 0
        self.failed = 0

    # -- processes ---------------------------------------------------------

    def _timeout(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1:
            raise Failure("out of time")
        return left

    def setup_steps(self) -> list[tuple[float, float]]:
        """CPU seconds of fresh set-up processes, each with a baseline's.

        Each set-up process is followed by a fresh process making the fixed
        stdlib imports of ``worker.py baseline``, which slows with the host
        as the set-up does; their ratio does not.
        """
        values = []
        for i in range(SETUP_PROCESSES + 1):
            pair = []
            for mode in ("setup", "baseline"):
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "worker.py"), mode],
                    cwd=ROOT, env=self.env, capture_output=True, text=True,
                    timeout=self._timeout(),
                )
                if proc.returncode != 0:
                    raise Failure(f"{mode} process failed: {proc.stderr.strip()[-500:]}")
                pair.append(json.loads(proc.stdout.strip().splitlines()[-1])["cpu_s"])
            if i:  # the first one also compiles bytecode, which users pay once
                values.append(tuple(pair))
        return values

    def mavl(self, argv: list[str], tag: str, spans: bool = False,
             must_succeed: bool = True) -> dict:
        """One ``mavl.cli.main`` call in a fresh process; returns its record."""
        result = self.work / f"{tag}.result.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "run", "--result", str(result)]
        if spans:
            cmd += ["--spans", str(self.work / f"{tag}.spans.jsonl"), "--run-id", tag]
        proc = subprocess.run(
            cmd + ["--"] + argv, cwd=ROOT, env=self.env, capture_output=True,
            text=True, timeout=self._timeout(),
        )
        if proc.returncode != 0 or not result.is_file():
            raise Failure(f"worker for {tag} failed: {proc.stderr.strip()[-800:]}")
        record = json.loads(result.read_text(encoding="utf-8"))
        if must_succeed and record["code"] != 0:
            raise Failure(
                f"mavl {argv[0]} exited {record['code']}: "
                f"{record['error'] or record['stderr_tail']}"
            )
        if record["missing_hooks"]:
            print(f"# tracer could not hook: {record['missing_hooks']}", file=sys.stderr)
        return record

    def start_pacer(self) -> None:
        self.pacer = subprocess.Popen(
            [sys.executable, str(BENCH / "pacer.py"),
             str(self.work / "pace.json")],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
        )
        if self.pacer.stdout.readline().strip() != "ready":
            raise Failure("the pacer did not start")
        time.sleep(0.1)  # samples before the first measured step

    def stop_pacer(self):
        """Stop the pacer and read its samples back (a ``pacer.Pace``)."""
        import pacer

        proc, self.pacer = self.pacer, None
        _stop(proc)
        if proc.returncode != 0:
            raise Failure(f"the pacer exited {proc.returncode}")
        return pacer.Pace(str(self.work / "pace.json"))

    def start_endpoint(self) -> None:
        self.endpoint = subprocess.Popen(
            [sys.executable, str(BENCH / "endpoint.py")],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, self.endpoint_cpus),
        )
        line = self.endpoint.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            raise Failure("fake endpoint did not start")
        self.endpoint_url = f"http://127.0.0.1:{line[1]}"

    def endpoint_stats(self) -> dict:
        with urllib.request.urlopen(self.endpoint_url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        for proc in (self.endpoint, self.pacer):
            if proc is not None:
                _stop(proc)
        self.endpoint = self.pacer = None

    # -- inputs ------------------------------------------------------------

    def write(self, built, subdir: str = "inputs") -> dict[str, Path]:
        directory = self.work / subdir
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, data in built.files.items():
            paths[name] = directory / name
            paths[name].write_bytes(data)
        return paths

    # -- measuring ---------------------------------------------------------

    def repeat_loop(self, one_repeat) -> list[dict]:
        """Run repeats until the measuring time is used; alternate tracing."""
        samples: list[dict] = []
        begin = time.monotonic()
        while True:
            traced = self.trace and len(samples) % 2 == 1
            samples.append(one_repeat(len(samples), traced))
            elapsed = time.monotonic() - begin
            # at least two repeats, so reruns can be compared; then start
            # another only if it is expected to end within half a repeat of
            # the measuring time
            if len(samples) >= 2 and elapsed + elapsed / len(samples) / 2 > self.seconds:
                return samples


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _median(values):
    return statistics.median(values) if values else 0.0


def _line_count(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def measure_commands(bench: Bench, steps, inputs_check) -> dict:
    """Shared repeat logic: ``steps`` yields (command, argv) for one repeat.

    Each repeat writes into its own output root.  The first repeat's outputs
    are checked in depth by ``inputs_check``; every later repeat must hash the
    same.
    """
    import checks
    import spans

    first_hashes: dict[str, dict] = {}
    span_summaries: list[dict] = []

    def one_repeat(i: int, traced: bool) -> dict:
        out = bench.work / f"rep{i}"
        before = bench.endpoint_stats() if bench.endpoint else None
        record = {"traced": traced, "walls": {}, "steps": {}, "rss": []}
        span_files = []
        for command, argv in steps(out):
            tag = f"{command}-{i}"
            bench.attempted += 1
            res = bench.mavl(argv + ["--out", str(out)], tag, spans=traced)
            record["walls"][command] = res["wall_s"]
            record["steps"][command] = {k: res[k] for k in ("cpu_s", "start", "end")}
            record["rss"].append(res["peak_rss_mb"])
            directory = checks.run_dir(out, command)
            digest = checks.hashes(directory, command)
            if command not in first_hashes:
                first_hashes[command] = digest
                inputs_check(command, directory)
            elif digest != first_hashes[command]:
                raise checks.CheckFailed(
                    f"{command} outputs of repeat {i} differ from repeat 0: "
                    f"{sorted(k for k in digest if digest[k] != first_hashes[command][k])}"
                )
            if traced:
                span_files.append(bench.work / f"{tag}.spans.jsonl")
        if before is not None:
            after = bench.endpoint_stats()
            record["endpoint"] = {
                path: after["requests"].get(path, 0) - before["requests"].get(path, 0)
                for path in ("/complete", "/embed")
            }
            texts = after["embed_texts"][len(before["embed_texts"]):]
            record["endpoint"]["texts_per_embed"] = sum(texts) / len(texts) if texts else 0.0
        if traced:
            runs = []
            for path in span_files:
                run_id, _, recorded = spans.load(str(path))
                runs.append((run_id, recorded))
                path.unlink()
            summary = spans.summarize(runs)
            if "endpoint" in record:
                summary["endpoint.complete_requests"] = record["endpoint"]["/complete"]
                summary["endpoint.embed_requests"] = record["endpoint"]["/embed"]
                summary["endpoint.texts_per_embed"] = record["endpoint"]["texts_per_embed"]
            span_summaries.append(summary)
        if i > 0:
            shutil.rmtree(out)
        return record

    samples = bench.repeat_loop(one_repeat)
    return {"samples": samples, "spans": span_summaries}


# ---------------------------------------------------------------------------
# workloads


def _score_facts(directory: Path, seed: int) -> dict:
    """Check an evaluate run's scores and count what the metrics need."""
    import checks

    rows = checks.read_scores(directory)
    return {
        "rows": sum(1 for r in rows if r["status"] == "scored"),
        "recomputed_rows": checks.check_scores(directory, rows, seed),
        "score_error_ratio": checks.score_error_ratio(rows),
    }


def workload_eval(bench: Bench) -> dict:
    import corpus

    built = corpus.build_eval_corpus(bench.seed)
    paths = bench.write(built)
    argv = ["evaluate", "--dataset", str(paths["corpus.json"]),
            "--hypotheses", str(paths["hypotheses.jsonl"]), "--provider", "mock"]
    for lang in corpus.DUBBED_LANGS:
        argv += ["--target-lang", lang.value]
    facts: dict = {}

    def steps(out):
        yield "evaluate", argv

    def inspect(command, directory):
        facts.update(_score_facts(directory, bench.seed))

    measured = measure_commands(bench, steps, inspect)
    rows = facts["rows"]
    per_repeat = [{"evaluate_rows_per_s": rows / s["walls"]["evaluate"]}
                  for s in measured["samples"] if not s["traced"]]
    return {"built": built, "measured": measured, "facts": facts,
            "per_repeat": per_repeat, "lines": rows}


def _translate_facts(directory: Path, tasks: int) -> dict:
    import checks

    results, failures = checks.read_translate(directory)
    return {
        "translated_lines": len(results),
        "constraint_met_ratio": (
            sum(r["constraint_met"] for r in results.values()) / len(results)
            if results else 0.0
        ),
        "failed_line_ratio": len(failures) / tasks,
    }


def workload_translate(bench: Bench) -> dict:
    import checks
    import corpus

    built = corpus.build_translate_mock(bench.seed)
    paths = bench.write(built)
    tasks = len(built.expected)
    facts: dict = {}

    def steps(out):
        yield "translate", [
            "translate", "--dataset", str(paths["corpus.json"]), "--target-lang", "KO",
            "--provider", "mock", "--mock-script", str(paths["script.json"]),
            "--variant", "full", "--parallelism", "1",
        ]

    def inspect(command, directory):
        checks.check_translations(directory, built.expected)
        facts.update(_translate_facts(directory, tasks))
        # the mock never raises, so every completion left one trace record
        facts["attempts_per_line"] = _line_count(directory / "trace.jsonl") / tasks

    measured = measure_commands(bench, steps, inspect)
    per_repeat = [{"translate_lines_per_s": tasks / s["walls"]["translate"]}
                  for s in measured["samples"] if not s["traced"]]
    return {"built": built, "measured": measured, "facts": facts,
            "per_repeat": per_repeat, "lines": tasks}


def workload_roundtrip(bench: Bench) -> dict:
    import checks
    import corpus

    built = corpus.build_roundtrip(bench.seed)
    paths = bench.write(built)
    tasks = len(built.expected)
    remote = ["--provider", "remote", "--endpoint", bench.endpoint_url,
              "--model-id", "bench-model", "--api-key-env", API_KEY_ENV]
    targets = ["--target-lang", "KO", "--target-lang", "JA"]
    facts: dict = {}

    def translate_argv(parallelism: int) -> list[str]:
        return (["translate", "--dataset", str(paths["corpus.json"])] + targets
                + remote + ["--parallelism", str(parallelism)])

    # one untimed run at parallelism 1: the parallel runs must match it
    serial_out = bench.work / "serial"
    bench.mavl(translate_argv(1) + ["--out", str(serial_out)], "translate-serial")
    serial_dir = checks.run_dir(serial_out, "translate")
    checks.check_translations(serial_dir, built.expected)
    serial_hashes = checks.hashes(serial_dir, "translate")

    def steps(out):
        yield "translate", translate_argv(REMOTE_PARALLELISM)
        hyps = checks.run_dir(out, "translate") / "hypotheses.jsonl"
        yield "evaluate", (["evaluate", "--dataset", str(paths["corpus.json"]),
                            "--hypotheses", str(hyps)] + targets + remote)

    def inspect(command, directory):
        if command == "translate":
            checks.check_translations(directory, built.expected)
            if checks.hashes(directory, command) != serial_hashes:
                raise checks.CheckFailed(
                    "translate outputs at parallelism 2 differ from parallelism 1")
            facts.update(_translate_facts(directory, tasks))
        else:
            facts.update(_score_facts(directory, bench.seed))

    measured = measure_commands(bench, steps, inspect)
    per_repeat = []
    for s in measured["samples"]:
        if s["traced"]:
            continue
        t, e = s["walls"]["translate"], s["walls"]["evaluate"]
        per_repeat.append({
            "translate_lines_per_s": tasks / t,
            "evaluate_rows_per_s": facts["rows"] / e,
            "attempts_per_line": s["endpoint"]["/complete"] / tasks,
            "embed_requests": s["endpoint"]["/embed"],
        })
    facts["attempts_per_line"] = _median([r["attempts_per_line"] for r in per_repeat])
    return {"built": built, "measured": measured, "facts": facts,
            "per_repeat": per_repeat, "lines": tasks}


WORKLOADS = {
    "eval-corpus": workload_eval,
    "translate-mock": workload_translate,
    "roundtrip-remote": workload_roundtrip,
}


# ---------------------------------------------------------------------------
# odd-input probe


def odd_input_probe(bench: Bench) -> dict[str, bool]:
    """Run each odd input on a one-line corpus; True where the run aborted.

    An abort is a run that exits without writing its outputs, instead of
    turning the odd input into a per-line record; its exit code is not judged.
    """
    import corpus

    aborted = {}
    for case in corpus.PROBE_CASES:
        paths = bench.write(corpus.build_probe_case(case), f"probe/{case.name}")
        out = bench.work / "probe" / case.name / "out"
        argv = [case.command, "--dataset", str(paths["corpus.json"]),
                "--target-lang", "KO", "--provider", "mock", "--out", str(out)]
        if case.command == "translate":
            argv += ["--mock-script", str(paths["script.json"])]
            wanted = ("hypotheses.jsonl", "failures.json")
        else:
            argv += ["--hypotheses", str(paths["hypotheses.jsonl"])]
            wanted = ("scores.csv",)
        bench.mavl(argv, f"probe-{case.name}", must_succeed=False)
        dirs = list(out.glob(f"{case.command}-*"))
        aborted[case.name] = not (
            len(dirs) == 1 and all((dirs[0] / name).is_file() for name in wanted)
        )
    return aborted


# ---------------------------------------------------------------------------
# reporting


def _metric_line(name, value, unit, samples="", tail="-") -> str:
    return f"# {name:<36} {value:>14.6g} {unit:<10} n={samples!s:<4} {tail}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "mavl" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'mavl'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import pacer
    # a terminated benchmark still stops its endpoint and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = Bench(args)
    if bench.work.exists():
        shutil.rmtree(bench.work)
    bench.work.mkdir(parents=True)
    import checks

    error = None
    report: dict = {}
    try:
        if not args.trace:
            pairs = bench.setup_steps()
            report["setup"] = [BASELINE_S * cpu / base for cpu, base in pairs]
            report["setup_cpu"] = [cpu for cpu, _ in pairs]
        bench.start_pacer()
        if args.workload == "roundtrip-remote":
            bench.start_endpoint()
        report.update(WORKLOADS[args.workload](bench))
        pace = bench.stop_pacer()

        def ref_s(weights: dict[str, float]) -> list[float]:
            return [sum(pace.ref_seconds(st["cpu_s"], st["start"], st["end"], weights)
                        for st in sample["steps"].values())
                    for sample in report["measured"]["samples"]]

        report["ref_s"] = ref_s(WORKLOAD_WEIGHTS[args.workload])
        # what each unit alone would give, to check the weights against
        report["ref_s_by_unit"] = {kind: ref_s({kind: 1.0}) for kind in pacer.NOMINAL}
        if not args.trace:
            report["probe"] = odd_input_probe(bench)
    except (Failure, checks.CheckFailed, subprocess.TimeoutExpired, ValueError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        bench.failed += 1
    finally:
        bench.close()
        shutil.rmtree(bench.work, ignore_errors=True)

    env = {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "source_sha256": _source_digest(),
    }
    print(f"# mavl benchmark {json.dumps(env, ensure_ascii=False)}")
    metrics: dict[str, dict] = {}
    if error is None:
        print(f"# inputs {json.dumps(report['built'].properties, ensure_ascii=False)}")
        values = _trace_metrics(report) if args.trace else _end_to_end(report)
        declared = _declared("per_layer" if args.trace else "end_to_end")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared.items()}
    else:
        print(f"# FAILED {error}")
    result = {
        "correct": error is None,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if error is None else 1


def _end_to_end(report: dict) -> dict[str, float]:
    per_repeat = report["per_repeat"]
    facts = report["facts"]
    probe = report["probe"]
    throughput = [report["lines"] / ref_s for ref_s in report["ref_s"]]  # all untraced
    setup, setup_cpu = report["setup"], report["setup_cpu"]
    rss = [max(s["rss"]) for s in report["measured"]["samples"]]
    n = len(per_repeat)
    print("# metric                               value          unit       "
          "samples  tail")
    values = {
        "lines_per_ref_s": _median(throughput),
        "setup_s": _median(setup),
        "peak_rss_mb": _median(rss),
        "odd_input_kept_ratio": 1.0 - sum(probe.values()) / len(probe),
    }
    print(_metric_line("lines_per_ref_s", values["lines_per_ref_s"], "lines/ref-s", n,
                       _percentile_report(throughput, True)))
    for kind, ref_s in report["ref_s_by_unit"].items():
        print(_metric_line(f"lines_per_ref_s.{kind}",
                           _median([report["lines"] / r for r in ref_s]), "lines/ref-s", n))
    # wall-time throughputs as a user times them; they follow the host's speed
    for key, unit in (("evaluate_rows_per_s", "rows/s"),
                      ("translate_lines_per_s", "lines/s")):
        if key in per_repeat[0]:
            series = [r[key] for r in per_repeat]
            print(_metric_line(key, _median(series), unit, n,
                               _percentile_report(series, True)))
    for key, unit in (("attempts_per_line", "calls/line"),
                      ("constraint_met_ratio", "ratio"),
                      ("failed_line_ratio", "ratio"),
                      ("score_error_ratio", "ratio")):
        if key in facts:
            print(_metric_line(key, facts[key], unit, 1))
    print(_metric_line("odd_input_aborts", sum(probe.values()), "count", len(probe),
                       " ".join(k for k, v in probe.items() if v) or "-"))
    print(_metric_line("odd_input_kept_ratio", values["odd_input_kept_ratio"], "ratio",
                       len(probe)))
    print(_metric_line("setup_s", values["setup_s"], "s", len(setup),
                       _percentile_report(setup, False)))
    print(_metric_line("setup_cpu_s", _median(setup_cpu), "s", len(setup_cpu),
                       _percentile_report(setup_cpu, False)))
    print(_metric_line("peak_rss_mb", values["peak_rss_mb"], "MiB", len(rss)))
    if "embed_requests" in per_repeat[0]:
        print(_metric_line("endpoint_embed_requests",
                           _median([r["embed_requests"] for r in per_repeat]),
                           "count", n))
    return values


def _trace_metrics(report: dict) -> dict[str, float]:
    import spans

    samples = report["measured"]["samples"]
    summaries = report["measured"]["spans"]
    plain = [r for s, r in zip(samples, report["ref_s"]) if not s["traced"]]
    traced = [r for s, r in zip(samples, report["ref_s"]) if s["traced"]]
    values = spans.median_metrics(summaries)
    for key in ("endpoint.complete_requests", "endpoint.embed_requests",
                "endpoint.texts_per_embed"):
        values.setdefault(key, 0)
    values["trace.overhead_ratio"] = _median(traced) / _median(plain)
    print(f"# traced repeats {len(traced)}, untraced repeats {len(plain)}; "
          f"tracing overhead x{values['trace.overhead_ratio']:.3f}")
    print("# layer           self_s    share     calls")
    for layer in spans.LAYERS:
        print(f"# {layer:<12} {values[f'layer_self_s.{layer}']:>9.4f} "
              f"{values[f'layer_share.{layer}']:>8.1%} {values[f'layer_calls.{layer}']:>9.0f}")
    for name, unit in _declared("per_layer").items():
        print(_metric_line(name, values[name], unit, len(summaries)))
    return values


if __name__ == "__main__":
    sys.exit(main())
