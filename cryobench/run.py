#!/usr/bin/env python3
"""The cryosoc benchmark.

    python3 cryobench/run.py --workload {cold_corner,serve_mix,paper_flow,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run builds the system under test
from the checkout's own sources (cryobench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build); every daemon and flow process runs
in a scratch directory under it, over a private copy of the committed
lib/cryo5_{300k,10k}.lib artifacts, so the checkout's lib/ is never written.

cold_corner and serve_mix drive the real cryosocd daemon over its NDJSON
stdin/stdout; paper_flow runs the paper's flow through the library's public
C++ API (cryobench_harness). --trace 1 adds an in-process replay of the same
seeded inputs with a span around every layer call and reports the per-layer
metrics instead of the end-to-end ones. NOTES.md says what each workload
loads and bypasses.

Human-readable lines go to stdout; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COMMITTED_LIBS = ("cryo5_300k.lib", "cryo5_300k.lib.manifest",
                  "cryo5_10k.lib", "cryo5_10k.lib.manifest")
WORKLOADS = ("cold_corner", "serve_mix", "paper_flow")
# Seed kept out of every tuning run; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
VDD = 0.7
WINDOW = 64            # cryosocd's default reorder window
OPEN_LOOP_RPS = 60.0   # about a third of the measured batch capacity
SESSION_TIMEOUT_S = 150.0

END_TO_END = {"setup_s": "s", "answer_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
# Figures only some workloads have: printed by every run that measures
# them, and per-layer metrics of the traced run.
WORKLOAD_FIGURES = {
    "cold_corner_s": "s", "serve_rps": "req/s", "serve_p50_ms": "ms",
    "serve_p99_ms": "ms", "pipeline_s": "s", "iss_mips": "Minstr/s",
    "gatesim_meps": "Mevents/s", "failed_frac": "ratio",
}
PER_LAYER = {
    **WORKLOAD_FIGURES,
    # Tracing itself.
    "obs.overhead_s": "s", "trace.uncovered_share": "ratio",
    # Layers.
    "device.ids_cache_s": "s", "charlib.characterize_s": "s",
    "charlib.tasks": "count", "charlib.grid_points": "count",
    "charlib.retry_ratio": "ratio", "charlib.failed_arcs": "count",
    "spice.nr_iterations": "count", "spice.transient_steps": "count",
    "spice.step_accept_ratio": "ratio", "spice.fallbacks": "count",
    "spice.nr_per_cpu_s": "1/s", "exec.cpu_util": "ratio",
    "exec.queue_wait_s": "s", "liberty.write_s": "s", "liberty.read_s": "s",
    "core.artifact_check_s": "s", "synth.soc_s": "s",
    "sta.engine_build_s": "s", "sta.run_s": "s",
    "core.cold_reload_mismatches": "count",
    "serve.queue_ms.p50": "ms", "serve.queue_ms.p99": "ms",
    "serve.exec_ms.timing": "ms", "serve.exec_ms.power": "ms",
    "serve.exec_ms.leakage": "ms", "serve.exec_ms.sram": "ms",
    "serve.exec_ms.sweep": "ms", "serve.hold_ms.p50": "ms",
    "serve.coalesced_ratio": "ratio", "serve.cpu_util": "ratio",
    "serve.parse_us": "us", "serve.render_us": "us",
    "sta.run_ms": "ms", "sta.runs_per_request": "ratio",
    "power.analyze_ms": "ms", "sram.model_ms": "ms", "sweep.run_ms": "ms",
    "core.corner_cache_hit_ratio": "ratio",
    "calib.campaign_s": "s", "calib.extract_s": "s",
    "calib.lm_iterations": "count", "calib.rms_log_err_10k": "dec",
    "riscv.kernel_s": "s", "riscv.instructions": "count",
    "riscv.cycles": "count", "riscv.stall_cycles": "count",
    "riscv.l1d_misses": "count", "riscv.l2_misses": "count",
    "classify.knn_cpc": "cycles", "classify.hdc_cpc": "cycles",
    "gatesim.deck_s": "s", "gatesim.extract_s": "s",
    "gatesim.events": "count", "gatesim.glitches": "count",
    "gatesim.ns_per_event": "ns",
    "power.measured_ms": "ms", "power.uniform_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build...)."""


# ---- small helpers ----------------------------------------------------------

def say(text=""):
    print(text, flush=True)


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_q(n):
    """The highest percentile with at least ten samples beyond it, capped
    at 99; the median when there are too few samples."""
    if n <= 10:
        return 50.0
    return min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / n)))


def fnv1a64(text):
    h = 0xcbf29ce484222325
    for b in text.encode():
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def payload_of(line):
    """The response line without its trailing "meta" member: the bytes
    serve::response_payload_json renders."""
    cut = line.rfind(',"meta":')
    return line[:cut] + "}" if cut >= 0 else line


def snapshot(directory):
    """{file name: bytes} of a lib dir (a few MB; cheap to compare)."""
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())
            if p.is_file()}


def child_env(threads=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CRYOSOC_")}
    if threads is not None:
        env["CRYOSOC_THREADS"] = str(threads)
    return env


class Checks:
    """Correctness checks and operation counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append("%d of %d %s failed" % (failed, attempted, what))

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ---- build ------------------------------------------------------------------

def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def check_spec():
    """BENCHMARK.json must name exactly the metrics this script measures."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        raise BenchError("cannot read BENCHMARK.json: %s" % e)
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec.get(key, [])}
        if declared != units:
            raise BenchError("BENCHMARK.json %s differs from run.py's metrics" % key)


def build():
    """Configures and builds cryosocd + the harness; returns their paths."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no cryosoc sources at %s/src" % ROOT)
    missing = [n for n in COMMITTED_LIBS if not (ROOT / "lib" / n).is_file()]
    if missing:
        raise BenchError("committed artifacts missing: lib/" + ", lib/".join(missing))
    out = build_dir() / "cryobench"
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(os.cpu_count() or 1)
    with open(log, "ab") as sink:
        if not (out / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", *generator, "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.call(cmd, stdout=sink, stderr=sink) != 0:
                raise BenchError("cmake configure failed; see %s" % log)
        cmd = ["cmake", "--build", str(out), "-j", jobs,
               "--target", "cryosocd", "cryobench_harness"]
        if subprocess.call(cmd, stdout=sink, stderr=sink) != 0:
            raise BenchError("build failed; see %s" % log)
    return out / "cryosoc" / "serve" / "cryosocd", out / "cryobench_harness"


# ---- the daemon over its pipes ------------------------------------------------

class Session:
    """One cryosocd process with its stdin/stdout pipe pair. The caller's
    thread writes; one reader thread timestamps every response line."""

    def __init__(self, daemon, lib_dir, run_dir, name):
        self.name = name
        self.stderr_path = Path(run_dir) / (name + ".stderr")
        self.responses = []  # (monotonic seconds, line)
        with open(self.stderr_path, "wb") as err:
            self.launched = time.monotonic()
            self.proc = subprocess.Popen(
                [str(daemon), "--no-calibrate", "--lib-dir", str(lib_dir)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                cwd=run_dir, env=child_env())
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.rusage = None
        self.ended = None

    def _read(self):
        for raw in self.proc.stdout:
            self.responses.append((time.monotonic(), raw.decode().rstrip("\n")))

    def write(self, lines):
        """Writes lines as fast as the daemon reads them; returns the time
        just before the first byte went out."""
        t = time.monotonic()
        self.proc.stdin.write("".join(l + "\n" for l in lines).encode())
        self.proc.stdin.flush()
        return t

    def close(self):
        """EOF, drain, reap."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.reader.join(SESSION_TIMEOUT_S)
        if self.reader.is_alive():
            self.kill()
            raise BenchError("%s: daemon did not finish" % self.name)
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        self.ended = time.monotonic()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError("%s: cryosocd exited %d" % (self.name, self.proc.returncode))

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0

    def summary(self):
        """(lines, executed, coalesced, rejected) from the daemon's EOF
        summary on stderr."""
        for line in self.stderr_path.read_text().splitlines():
            if "line(s):" in line:
                words = line.replace(",", " ").split()
                nums = [int(w) for w in words if w.isdigit()]
                if len(nums) == 4:
                    return tuple(nums)
        raise BenchError("%s: no summary on stderr" % self.name)


SESSIONS = []


def session(daemon, lib_dir, run_dir, name):
    s = Session(daemon, lib_dir, run_dir, name)
    SESSIONS.append(s)
    return s


def parsed(session, checks, what):
    """Responses as dicts; counts ok:false (incl. admission rejections)."""
    docs = [json.loads(line) for _, line in session.responses]
    bad = sum(1 for d in docs if not d.get("ok"))
    checks.ops(len(docs), bad, what + " responses")
    return docs


# ---- requests ---------------------------------------------------------------

def corner(t):
    return {"vdd": VDD, "temperature_k": t}


def request(kind, rid, t=None, **payload):
    doc = {"schema": "cryosoc-req-v1", "kind": kind, "id": rid}
    if t is not None:
        doc["corner"] = corner(t)
    doc.update(payload)
    return json.dumps(doc, separators=(",", ":"))


def power_profile(activity):
    return {"clock_frequency_hz": 0, "default_activity": activity}


def sweep_query(activity):
    return {"corners": [corner(300), corner(10)], "run_timing": True,
            "run_power": True, "run_leakage": True, "run_feasibility": True,
            "profile": power_profile(activity), "threads": 1}


MIX_SHARES = (("timing", 0.25), ("power", 0.20), ("leakage", 0.20),
              ("sram", 0.25), ("sweep", 0.10))


def serve_mix(rng, n, first_id=0):
    """n requests of the seeded serve_mix traffic: timing (2 distinct
    requests, so copies coalesce), power at fmax, leakage, sram and 2-corner
    sweeps in exactly MIX_SHARES proportions, in seeded order. Exact shares
    keep the work per batch from varying with the seed."""
    kinds = [k for k, share in MIX_SHARES[1:] for _ in range(round(share * n))]
    kinds = ["timing"] * (n - len(kinds)) + kinds
    rng.shuffle(kinds)
    out = []
    for i, kind in enumerate(kinds, start=first_id):
        t = rng.choice((300, 10))
        rid = "m%d" % i
        if kind in ("timing", "leakage"):
            out.append(request(kind, rid, t))
        elif kind == "power":
            a = round(rng.uniform(0.05, 0.30), 4)
            out.append(request("power", rid, t, profile=power_profile(a)))
        elif kind == "sram":
            macro = {"rows": 2 ** rng.randint(6, 12), "cols": 2 ** rng.randint(4, 8)}
            out.append(request("sram", rid, t, macro=macro))
        else:
            a = round(rng.uniform(0.05, 0.30), 4)
            out.append(request("sweep", rid, sweep=sweep_query(a)))
    return out


def warmup_lines():
    """One request of each kind per committed corner."""
    lines = []
    for t in (300, 10):
        lines += [request("timing", "w-t%d" % t, t),
                  request("power", "w-p%d" % t, t, profile=power_profile(0.1)),
                  request("leakage", "w-l%d" % t, t),
                  request("sram", "w-s%d" % t, t, macro={"rows": 512, "cols": 64})]
    lines.append(request("sweep", "w-sweep", sweep=sweep_query(0.1)))
    return lines


# ---- trace folding ------------------------------------------------------------

class Spans:
    """The spans one traced harness run wrote (name, request, start, end,
    parent; seconds since the harness started)."""

    def __init__(self, path, window):
        self.spans = json.loads(Path(path).read_text())
        self.window = window

    def times(self, name, traced_window=False, request=None):
        lo, hi = self.window if traced_window else (float("-inf"), float("inf"))
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and lo <= s["start"] <= hi
                and request in (None, s["request"])]

    def total(self, name):
        return sum(self.times(name))

    def median(self, name, traced_window=False):
        t = self.times(name, traced_window)
        return statistics.median(t) if t else 0.0

    def report(self, m):
        """Prints the per-layer table and sets trace.uncovered_share."""
        layers, m["trace.uncovered_share"] = fold_spans(self.spans, self.window)
        say("per-layer spans (benchmark-side, around public calls):")
        say("  %-10s %7s %12s %12s" % ("layer", "count", "inclusive s", "self s"))
        for name, (count, inclusive, self_s) in sorted(layers.items(),
                                                       key=lambda kv: -kv[1][2]):
            say("  %-10s %7d %12.4f %12.4f" % (name, count, inclusive, self_s))


def fold_spans(spans, window):
    """Per-layer table (count, inclusive s, self s) and the share of the
    traced window that no span covers. A layer's inclusive time counts only
    its outermost spans; its self time excludes its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    layers = {}
    covered = 0.0
    lo, hi = window
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        layer = s["name"].split(".")[0]
        row = layers.setdefault(layer, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += dur - child[i]
        parent_layer = (spans[s["parent"]]["name"].split(".")[0]
                        if s["parent"] >= 0 else None)
        if parent_layer != layer:
            row[1] += dur
        if s["parent"] < 0:
            covered += max(0.0, min(s["end"], hi) - max(s["start"], lo))
    uncovered = 1.0 - covered / (hi - lo) if hi > lo else 0.0
    return layers, max(0.0, uncovered)


def run_harness(harness, args, run_dir):
    """Runs the harness to completion; returns its stdout lines."""
    proc = subprocess.Popen([str(harness), *map(str, args)], cwd=run_dir,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    try:
        out, err = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("harness %s timed out" % args[0])
    if proc.returncode != 0:
        raise BenchError("harness %s exited %d: %s" % (args[0], proc.returncode,
                                                      err.decode()[-500:]))
    return out.decode().splitlines()


# ---- host probe -----------------------------------------------------------------

def host_probe(harness, run_dir):
    """Fixed-work spin loop at 1 thread and at nproc threads: context for
    reading this run's numbers, not a metric."""
    n = os.cpu_count() or 1
    iters = 50_000_000
    one = json.loads(run_harness(harness, ["probe", 1, iters], run_dir)[-1])
    all_ = json.loads(run_harness(harness, ["probe", n, iters], run_dir)[-1])
    ceiling = n * one["seconds"] / all_["seconds"]
    say("host probe: spin %.3f s at 1 thread, %.3f s at %d threads -> "
        "parallel ceiling %.2fx of %d" % (one["seconds"], all_["seconds"], n,
                                         ceiling, n))


# ---- workloads ------------------------------------------------------------------

def fresh_lib(run_dir):
    lib = Path(run_dir) / "lib"
    lib.mkdir()
    for name in COMMITTED_LIBS:
        shutil.copyfile(ROOT / "lib" / name, lib / name)
    return lib


def cold_corner(ctx):
    """First answer at a corner nobody has characterized, then the reload
    of its fresh artifact by new daemons."""
    checks, rng, m = ctx["checks"], ctx["rng"], ctx["metrics"]
    lib = fresh_lib(ctx["run_dir"])
    temperature = rng.randint(20, 280)
    rows, cols = 2 ** rng.randint(6, 12), 2 ** rng.randint(4, 8)
    kinds = [request("timing", "cold-t%d" % i, temperature) for i in range(4)]
    kinds += [request("leakage", "cold-l", temperature),
              request("sram", "cold-s", temperature, macro={"rows": rows, "cols": cols})]
    say("cold_corner: %d K at %.1f V (sram %dx%d), full catalog" %
        (temperature, VDD, rows, cols))
    before = snapshot(lib)

    s = session(ctx["daemon"], lib, ctx["run_dir"], "cold")
    sent = s.write(kinds)
    s.close()
    docs = parsed(s, checks, "cold")
    cold_corner_s = s.responses[0][0] - sent
    after = snapshot(lib)
    new = sorted(set(after) - set(before))
    stem = "cryo5_%dk" % temperature
    checks.check(new == [stem + ".lib", stem + ".lib.manifest"],
                 "cold burst wrote exactly one new artifact (got %s)" % new)
    checks.check(all(after[k] == before[k] for k in before),
                 "cold burst left the committed artifacts alone")
    timing = [d for d in docs if d.get("kind") == "timing"]
    checks.check(len(docs) == 6 and len(timing) == 4, "cold burst answered 6 lines")
    checks.check(len({payload_of(l) for _, l in s.responses[:4]}) == 1,
                 "4 cold timing payloads byte-identical")
    checks.check(all(d["meta"]["coalesced"] == 3 for d in timing) and
                 len({d["meta"]["sequence"] for d in timing}) == 1,
                 "cold timing burst ran 1 execution with 3 coalesced")
    _, executed, coalesced, rejected = s.summary()
    checks.check((executed, coalesced, rejected) == (3, 3, 0),
                 "cold daemon executed 3, coalesced 3 (got %d, %d)" % (executed, coalesced))
    cold_payloads = [payload_of(l) for _, l in s.responses[3:]]  # timing, leakage, sram

    # Reload: new daemons on the same lib dir answer the same three kinds
    # from the fresh artifact. Repeated to fill the run; their median is
    # the set-up time.
    reload_lines = [kinds[0], kinds[4], kinds[5]]
    setups, reload_digests, reload_payloads = [], set(), None
    deadline = ctx["started"] + ctx["seconds"]
    while len(setups) < 3 or (time.monotonic() < deadline and len(setups) < 40
                              and not ctx["trace"]):
        r = session(ctx["daemon"], lib, ctx["run_dir"], "reload%d" % len(setups))
        r.write(reload_lines)
        r.close()
        parsed(r, checks, "reload")
        setups.append(r.responses[-1][0] - r.launched)
        reload_payloads = [payload_of(l) for _, l in r.responses]
        reload_digests.add(fnv1a64("\n".join(reload_payloads)))
    checks.check(snapshot(lib) == after, "reload sessions wrote no artifact")
    checks.check(len(reload_digests) == 1, "reload payloads identical across reloads")
    mismatches = sum(1 for a, b in zip(cold_payloads, reload_payloads) if a != b)

    m["setup_s"] = statistics.median(setups)
    m["answer_s"] = cold_corner_s
    m["cpu_s"] = s.cpu_s()
    m["peak_rss_mb"] = s.rss_mb()
    m["cold_corner_s"] = cold_corner_s
    m["core.cold_reload_mismatches"] = mismatches
    fmax_cold = timing[0]["result"]["timing"]["fmax_hz"]
    fmax_reload = json.loads(r.responses[0][1])["result"]["timing"]["fmax_hz"]
    say("cold answer %.3f s (cpu %.1f s, peak rss %.1f MB); reload set-up median "
        "%.3f s over %d daemons" % (cold_corner_s, s.cpu_s(), s.rss_mb(),
                                    m["setup_s"], len(setups)))
    say("cold vs reload: %d of 3 payloads differ (fmax %.2f Hz cold, %.2f Hz "
        "reload) -- ROADMAP 4a, reported not gated" % (mismatches, fmax_cold, fmax_reload))
    served_layers(m, docs, docs, s, len(kinds), executed,
                  [t - sent for t, _ in s.responses])

    if ctx["trace"]:
        path = Path(ctx["run_dir"]) / "spans.json"
        out = run_harness(ctx["harness"], ["cold_replay", lib, temperature,
                                           lib / (stem + ".lib"),
                                           Path(ctx["run_dir"]) / "replay", path],
                          ctx["run_dir"])
        rep = json.loads(out[-1])
        t = rep["traced"]
        spans = Spans(path, rep["window"])
        checks.check(rep["identical_to_daemon"],
                     "replayed cold library byte-identical to the daemon's artifact")
        checks.check(all(p["fresh"] for p in rep["passes"]), "replayed artifact is fresh")
        walls = [p["wall_s"] for p in rep["passes"]]
        tasks = max(t["charlib.tasks"], 1)
        steps = t["spice.transient_steps"]
        characterize_s = spans.total("charlib.characterize")
        m.update({
            "device.ids_cache_s": spans.total("device.ids_cache"),
            "charlib.characterize_s": characterize_s,
            "charlib.tasks": t["charlib.tasks"],
            "charlib.grid_points": t["charlib.grid_points"],
            "charlib.retry_ratio": (t["charlib.arc_retries"] +
                                    t["charlib.settle_retries"]) / tasks,
            "charlib.failed_arcs": t["charlib.failed_arcs"],
            "spice.nr_iterations": t["spice.nr_iterations"],
            "spice.transient_steps": steps,
            "spice.step_accept_ratio":
                steps / max(steps + t["spice.transient_rejected_steps"], 1),
            "spice.fallbacks": sum(t[k] for k in (
                "spice.gmin_fallbacks", "spice.source_step_fallbacks",
                "spice.transient_retries", "spice.transient_be_fallbacks")),
            "spice.nr_per_cpu_s": t["spice.nr_iterations"] / t["characterize_cpu_s"],
            "exec.cpu_util": t["characterize_cpu_s"] / (characterize_s * t["threads"]),
            "exec.queue_wait_s": t["exec.queue_wait_s"],
            "liberty.write_s": spans.total("liberty.write"),
            "liberty.read_s": spans.total("liberty.read"),
            "core.artifact_check_s": spans.total("core.artifact_check"),
            "synth.soc_s": spans.total("synth.soc"),
            "sta.engine_build_s": spans.total("sta.engine_build"),
            "sta.run_s": spans.total("sta.run"),
            "sta.run_ms": 1e3 * spans.total("sta.run"),
            "sram.model_ms": 1e3 * spans.total("sram.model"),
            "obs.overhead_s": walls[0] - walls[1],
        })
        spans.report(m)


def served_layers(m, queue_docs, exec_docs, s, requests, executed, latencies):
    """serve.* per-layer figures from response metadata and the daemon's
    own summary."""
    def ms(docs, key, q):
        return 1e3 * percentile([d["meta"][key] for d in docs], q) if docs else 0.0
    m["serve.queue_ms.p50"] = ms(queue_docs, "queue_seconds", 50)
    m["serve.queue_ms.p99"] = ms(queue_docs, "queue_seconds", tail_q(len(queue_docs)))
    for kind in ("timing", "power", "leakage", "sram", "sweep"):
        m["serve.exec_ms." + kind] = ms([d for d in exec_docs if d["kind"] == kind],
                                        "service_seconds", 50)
    holds = [lat - d["meta"]["queue_seconds"] - d["meta"]["service_seconds"]
             for lat, d in zip(latencies, queue_docs)]
    m["serve.hold_ms.p50"] = 1e3 * percentile(holds, 50)
    m["serve.coalesced_ratio"] = 1.0 - executed / requests
    workers = os.cpu_count() or 1
    m["serve.cpu_util"] = s.cpu_s() / ((s.ended - s.launched) * workers)


def serve_mix_workload(ctx):
    """Warm served traffic over the committed 300 K / 10 K corners."""
    checks, rng, m = ctx["checks"], ctx["rng"], ctx["metrics"]
    lib = fresh_lib(ctx["run_dir"])
    before = snapshot(lib)
    # The batch and the open loop send the same n requests; the open loop
    # adds a window of untimed ones so every timed request sees a full one.
    n = max(100, round(40 * ctx["seconds"]))
    mix = serve_mix(rng, n) + serve_mix(rng, WINDOW, first_id=n)

    # 1. Warm-up sessions: launch until the warm-up answers.
    setups, warm_digests = [], set()
    for i in range(3):
        w = session(ctx["daemon"], lib, ctx["run_dir"], "warmup%d" % i)
        w.write(warmup_lines())
        w.close()
        parsed(w, checks, "warm-up")
        setups.append(w.responses[-1][0] - w.launched)
        warm_digests.add(fnv1a64("\n".join(payload_of(l) for _, l in w.responses)))
    checks.check(len(warm_digests) == 1, "warm-up payloads identical across sessions")

    # 2. Batch: the mix piped as fast as the daemon reads it.
    b = session(ctx["daemon"], lib, ctx["run_dir"], "batch")
    first = b.write(mix[:n])
    b.close()
    batch = parsed(b, checks, "batch")
    checks.check([d["meta"]["id"] for d in batch] == ["m%d" % i for i in range(n)],
                 "batch answered every request in order")
    batch_s = b.responses[-1][0] - first
    _, executed, coalesced, rejected = b.summary()
    batch_payloads = [payload_of(l) for _, l in b.responses]

    # 3. Open loop at a fixed rate, timed from each request's scheduled
    # send. The warm-up lines go first and the schedule starts after twice
    # the warm-up time, so the timed requests meet resident corners.
    o = session(ctx["daemon"], lib, ctx["run_dir"], "open")
    warm = warmup_lines()
    o.write(warm)
    start = o.launched + 2.0 * statistics.median(setups) + 0.25
    scheduled, actual = [], []
    for i, line in enumerate(mix):
        due = start + i / OPEN_LOOP_RPS
        pause = due - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        scheduled.append(due)
        actual.append(o.write([line]))
    o.close()
    docs = parsed(o, checks, "open-loop")
    timed = docs[len(warm):len(warm) + n]
    checks.check([d["meta"]["id"] for d in timed] == ["m%d" % i for i in range(n)],
                 "open loop answered every request in order")
    latencies = [o.responses[len(warm) + i][0] - scheduled[i] for i in range(n)]
    late = [a - d for a, d in zip(actual, scheduled)]
    late_p99, late_max = percentile(late, 99), max(late)
    # Sends are scheduled on absolute times, so a late send does not delay
    # the next one; the generator fell behind only if lateness builds up.
    checks.check(late_p99 <= 3.0 / OPEN_LOOP_RPS,
                 "open-loop generator kept its schedule (p99 late %.1f ms)" % (1e3 * late_p99))
    open_payloads = [payload_of(l) for _, l in o.responses[len(warm):len(warm) + n]]
    checks.check(open_payloads == batch_payloads,
                 "open-loop payloads byte-identical to the batch's")
    checks.check(snapshot(lib) == before, "serve_mix wrote no artifact")

    q = tail_q(n)
    p50, ptail = 1e3 * percentile(latencies, 50), 1e3 * percentile(latencies, q)
    m["setup_s"] = statistics.median(setups)
    m["answer_s"] = ptail / 1e3
    m["cpu_s"] = b.cpu_s()
    m["peak_rss_mb"] = max(b.rss_mb(), o.rss_mb())
    m["serve_rps"] = n / batch_s
    m["serve_p50_ms"] = p50
    m["serve_p99_ms"] = ptail
    say("serve_mix: warm-up set-up median %.3f s over 3 daemons" % m["setup_s"])
    say("batch: %d requests in %.3f s = %.1f req/s (daemon cpu %.1f s, %d executed, "
        "%d coalesced, %d rejected)" % (n, batch_s, m["serve_rps"], b.cpu_s(),
                                        executed, coalesced, rejected))
    say("open loop at %.0f req/s: p50 %.1f ms, p%g %.1f ms over %d requests; "
        "generator late p99 %.2f ms, max %.2f ms" % (
            OPEN_LOOP_RPS, p50, q, ptail, n, 1e3 * late_p99, 1e3 * late_max))
    served_layers(m, timed, batch, b, n, executed, latencies)

    if ctx["trace"]:
        requests = Path(ctx["run_dir"]) / "mix.ndjson"
        requests.write_text("".join(l + "\n" for l in mix))
        path = Path(ctx["run_dir"]) / "spans.json"
        count = max(20, round(5 * ctx["seconds"]))
        rep = json.loads(run_harness(ctx["harness"], ["serve_replay", lib, requests,
                                                      count, path], ctx["run_dir"])[-1])
        t = rep["traced"]
        spans = Spans(path, rep["window"])
        checks.check(rep["digests"] == [fnv1a64(p) for p in batch_payloads[:count]],
                     "in-process replay payloads byte-identical to the daemon's")
        hits, misses = t["corner_cache_hit"], t["corner_cache_miss"]
        per_request = lambda name, scale: scale * spans.median(name, traced_window=True)
        m.update({
            "liberty.read_s": spans.median("liberty.read"),
            "core.artifact_check_s": spans.median("core.artifact_check"),
            "synth.soc_s": spans.total("synth.soc"),
            "sta.engine_build_s": spans.median("sta.engine_build"),
            "sta.run_s": spans.median("sta.run"),
            "serve.parse_us": per_request("serve.parse", 1e6),
            "serve.render_us": per_request("serve.render", 1e6),
            "sta.run_ms": per_request("sta.timing", 1e3),
            "sta.runs_per_request": t["sta.runs"] / t["requests"],
            "power.analyze_ms": per_request("power.analyze", 1e3),
            "sram.model_ms": per_request("sram.model", 1e3),
            "sweep.run_ms": per_request("sweep.run", 1e3),
            "core.corner_cache_hit_ratio": hits / max(hits + misses, 1),
            "obs.overhead_s": rep["traced_wall_s"] - rep["untraced_wall_s"],
        })
        spans.report(m)
        checks.check(snapshot(lib) == before, "serve replay wrote no artifact")


PAPER_SHOTS = 5000         # 27-qubit Falcon shots: ISS share of the run
PAPER_DHRY_ITERS = 200     # dhrystone-like iterations traced for the deck
PAPER_WINDOW = 9000        # gatesim deck cycles: gatesim share of the run


def paper_flow(ctx):
    """The paper's measurements-to-verdict flow, single-threaded, on the
    committed libraries: one fresh process per repetition."""
    checks, m = ctx["checks"], ctx["metrics"]
    lib = fresh_lib(ctx["run_dir"])
    before = snapshot(lib)
    seed = ctx["rng"].randrange(1 << 32)
    args = ["paper_flow", lib, seed, PAPER_SHOTS, PAPER_DHRY_ITERS, PAPER_WINDOW]
    reps = []
    deadline = ctx["started"] + ctx["seconds"]

    def rep(traced, spans="-"):
        err_path = Path(ctx["run_dir"]) / "paper_flow.stderr"
        with open(err_path, "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen([str(ctx["harness"]), *map(str, args), str(int(traced)),
                                     str(spans)], cwd=ctx["run_dir"], stdout=subprocess.PIPE,
                                    stderr=err, env=child_env(threads=1))
        watchdog = threading.Timer(SESSION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline().decode().strip()
            t_ready = time.monotonic()
            last = proc.stdout.readline().decode().strip()
            t_done = time.monotonic()
        finally:
            _, status, ru = os.wait4(proc.pid, 0)
            watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
        if proc.returncode != 0 or ready != "ready":
            raise BenchError("paper_flow harness exited %d: %s" % (
                proc.returncode, err_path.read_text()[-500:]))
        doc = json.loads(last)
        doc.update(setup_s=t_ready - launched, wall_s=t_done - t_ready,
                   rss_mb=ru.ru_maxrss / 1024.0)
        return doc

    while len(reps) < 3 or (time.monotonic() < deadline and len(reps) < 20):
        reps.append(rep(False))
    checks.ops(len(reps), 0, "pipelines")
    for r in reps:
        checks.check(r["labels_match_host"], "kNN/HDC kernel labels match the host classifiers")
    checks.check(len({r["activity_fingerprint"] for r in reps}) == 1,
                 "extracts of one deck give one MeasuredActivity fingerprint")
    checks.check(len({r["digest"] for r in reps}) == 1,
                 "simulated statistics identical across repeats of the seed")

    r0 = reps[0]
    med = lambda key: statistics.median(r[key] for r in reps)
    m["setup_s"] = med("setup_s")
    m["answer_s"] = med("wall_s")
    m["cpu_s"] = med("cpu_s")
    m["peak_rss_mb"] = max(r["rss_mb"] for r in reps)
    m["pipeline_s"] = m["answer_s"]
    m["iss_mips"] = r0["instructions"] / med("kernel_s") / 1e6
    m["gatesim_meps"] = r0["events"] / med("gatesim_s") / 1e6
    slowdown = 100.0 * (r0["critical_delay_10k_s"] / r0["critical_delay_300k_s"] - 1.0)
    say("paper_flow: shot seed %d, %d shots x 27 qubits, %d-cycle deck, %d repetitions"
        % (seed, PAPER_SHOTS, r0["gatesim_cycles"], len(reps)))
    say("pipeline median %.3f s (cpu %.3f s), set-up median %.3f s, peak rss %.1f MB"
        % (m["answer_s"], m["cpu_s"], m["setup_s"], m["peak_rss_mb"]))
    say("ISS %.2f M instr/s over %d instructions; gatesim %.2f M events/s over %d events"
        % (m["iss_mips"], r0["instructions"], m["gatesim_meps"], r0["events"]))
    say("Table 1 10 K slowdown: %+.1f %% (paper +4.6 %%, EXPERIMENTS.md +4.5 %%); "
        "verdict: %d qubits inside the decoherence time, 10 K power %.1f mW %s"
        % (slowdown, r0["max_qubits"], 1e3 * r0["power_10k_w"],
           "fits 100 mW" if r0["fits_budget"] else "EXCEEDS 100 mW"))

    if ctx["trace"]:
        path = Path(ctx["run_dir"]) / "spans.json"
        t = rep(True, path)
        spans = Spans(path, t["window"])
        checks.check(t["digest"] == r0["digest"], "traced pipeline gives the same statistics")
        m.update({
            "obs.overhead_s": t["wall_s"] - m["answer_s"],
            "liberty.read_s": spans.median("liberty.read"),
            "core.artifact_check_s": spans.median("core.artifact_check"),
            "synth.soc_s": spans.total("synth.soc"),
            "sta.engine_build_s": spans.median("sta.engine_build"),
            "sta.run_s": spans.median("sta.run"),
            "sta.run_ms": 1e3 * sum(spans.times("sta.timing", request="warm")),
            "power.analyze_ms": 1e3 * spans.median("power.uniform"),
            "calib.campaign_s": spans.total("calib.campaign"),
            "calib.extract_s": spans.total("calib.extract"),
            "calib.lm_iterations": t["lm_iterations"],
            "calib.rms_log_err_10k": t["rms_log_err_10k"],
            "riscv.kernel_s": t["kernel_s"],
            "riscv.instructions": t["instructions"],
            "riscv.cycles": t["cycles"],
            "riscv.stall_cycles": t["stall_cycles"],
            "riscv.l1d_misses": t["l1d_misses"],
            "riscv.l2_misses": t["l2_misses"],
            "classify.knn_cpc": t["knn_cpc"],
            "classify.hdc_cpc": t["hdc_cpc"],
            "gatesim.deck_s": spans.total("gatesim.deck"),
            "gatesim.extract_s": t["gatesim_s"],
            "gatesim.events": t["events"],
            "gatesim.glitches": t["glitches"],
            "gatesim.ns_per_event": 1e9 * t["gatesim_s"] / t["events"],
            "power.measured_ms": 1e3 * spans.median("power.measured"),
            "power.uniform_ms": 1e3 * spans.median("power.uniform"),
        })
        spans.report(m)
    checks.check(snapshot(lib) == before, "paper_flow wrote no artifact")


RUNNERS = {"cold_corner": cold_corner, "serve_mix": serve_mix_workload,
           "paper_flow": paper_flow}


# ---- main -----------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, daemon, harness):
    run_dir = build_dir() / "runs" / ("%s-%d-%d" % (name, seed, os.getpid()))
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    checks = Checks()
    metrics = {k: 0.0 for k in (PER_LAYER if trace else END_TO_END)}
    # Sub-seeded per workload, so "all" draws the same inputs as a single run.
    ctx = {"checks": checks, "rng": random.Random("%s/%d" % (name, seed)),
           "metrics": metrics, "run_dir": run_dir, "seconds": seconds,
           "trace": trace, "daemon": daemon, "harness": harness}
    say("== %s (seed %d, %g s, trace %d) ==" % (name, seed, seconds, trace))
    host_probe(harness, run_dir)
    ctx["started"] = time.monotonic()
    lib_before = snapshot(ROOT / "lib")
    RUNNERS[name](ctx)
    checks.check(snapshot(ROOT / "lib") == lib_before, "the checkout's lib/ is untouched")
    metrics["failed_frac"] = checks.failed / max(checks.attempted, 1)
    for failure in checks.failures:
        say("CHECK FAILED: " + failure)
    say("checks: %d operations/checks, %d failed" % (checks.attempted, checks.failed))
    if not checks.failures:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    shown = dict(units) if trace else {
        **END_TO_END, **{k: u for k, u in WORKLOAD_FIGURES.items() if k in metrics}}
    for key, unit in shown.items():
        say("  %-28s %14.6g %s" % (key, metrics[key], unit))
    return checks, {k: metrics[k] for k in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (tuning used 1-10; %d is held out)"
                        % HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_spec()
        daemon, harness = build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                                daemon, harness) for n in names]
    except BenchError as e:
        print("cryobench: %s" % e, file=sys.stderr)
        return 2
    finally:
        for s in SESSIONS:
            s.kill()
    attempted = sum(c.attempted for c, _ in results)
    failed = sum(c.failed for c, _ in results)
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {"%s.%s" % (n, k): v for n, (_, ms) in zip(names, results)
                   for k, v in ms.items()}
    units = PER_LAYER if args.trace else END_TO_END
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k.split(".", 1)[1] if
                                                    len(results) > 1 else k]}
                       for k, v in metrics.items()}}
    print(json.dumps(out), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
