"""The citescreen benchmark: seeded workloads, timed end to end, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``gen.py`` or ``all``.  Each workload's
inputs are generated from the seed, then a single client runs the
workload's topics back to back through ``citescreen pipeline``, one
fresh process per invocation, until ``--seconds`` have passed (a closed
loop with one client).  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced
invocations and prints the per-layer metrics, each layer's share of
``run_s`` and the tracing overhead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct.

Correctness gate, per run: ``tests/fixtures`` must reproduce
``tests/fixtures/expected`` byte for byte; each topic's fetched set must
equal the planted match set; each ranked list must agree with the dense
tf-idf reference in ``oracle.py`` at 1e-9; every invocation must write
the same bytes; and at the default seed the ranked TSVs and report must
hash to the digest in ``digests.json``.  A topic that raised or failed a
check counts in ``failed`` (so ``failed / attempted`` is the ops-failed
ratio).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field

import gen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
CHILD = os.path.join(HERE, "child.py")
STUB = os.path.join(HERE, "stub.py")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
MIN_PLAIN = 5        # untraced invocations per run, at least
MIN_TRACED = 2       # of each kind in a traced run, at least
HARD_LIMIT = 150.0   # seconds into a workload after which no invocation starts
KILL_AFTER = 170.0   # seconds into a workload after which an invocation is killed

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("citations_per_s", "1/s"),
    ("topic_p50_s", "s"),
    ("topic_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("micro_f", "%"),
    ("p_at_gold_k", "%"),
)



def layer_unit(name: str) -> str:
    if name.startswith("share.") or name.endswith("_pct"):
        return "%"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes_received"):
        return "B"
    if name.endswith(("_ratio", "_per_record", "_per_citation", "_exp")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Invocations of the program
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    directory: str
    code: int | None
    run_s: float
    start: float
    stats: dict = field(default_factory=dict)
    report: bytes = b""
    tsvs: dict[str, bytes] = field(default_factory=dict)
    trace: dict | None = None
    stub_requests: int = 0

    @property
    def setup_s(self) -> float:
        return self.stats["first_topic"] - self.start

    def latencies(self) -> list[float]:
        return [end - start for _, start, end, _ in self.stats["topics"]]

    def fetched(self) -> dict[str, list[int]]:
        return {tid: sorted(pmids) for tid, _, _, pmids in self.stats["topics"]}


def invoke(directory: str, cli_args: list[str], *, timeout: float = KILL_AFTER,
           trace: bool = False, http: bool = False, capture: bool = False) -> Invocation:
    """Run the program once in a fresh process; time it from spawn to exit."""
    os.makedirs(directory)
    stats_path = os.path.join(directory, "stats.json")
    trace_path = os.path.join(directory, "trace.json")
    out_dir = os.path.join(directory, "ranked")
    cmd = [sys.executable, CHILD, "--stats", stats_path]
    if trace:
        cmd += ["--trace", trace_path]
    if http:
        cmd.append("--http")
    if capture:
        cmd += ["--capture-rank", os.path.join(directory, "rank.json")]
    cmd += ["--", *cli_args, "--out-dir", out_dir]
    with open(os.path.join(directory, "stdout"), "wb") as out, \
            open(os.path.join(directory, "stderr"), "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        end = time.monotonic()
    inv = Invocation(directory, code, end - start, start)
    if os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            inv.stats = json.load(fh)
    with open(os.path.join(directory, "stdout"), "rb") as fh:
        inv.report = fh.read()
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                inv.tsvs[name[:-len(".tsv")]] = fh.read()
    if trace and os.path.exists(trace_path):
        with open(trace_path, encoding="utf-8") as fh:
            inv.trace = json.load(fh)
    return inv


def stderr_tail(inv: Invocation) -> str:
    with open(os.path.join(inv.directory, "stderr"), encoding="utf-8",
              errors="replace") as fh:
        return fh.read()[-400:].strip()


class Stub:
    """The E-utilities stub, in a process of its own for the whole run."""

    def __init__(self, data_path: str, directory: str):
        port_file = os.path.join(directory, "stub.port")
        self._err = open(os.path.join(directory, "stub.stderr"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, STUB, "--data", data_path, "--port-file", port_file],
            stdout=subprocess.DEVNULL, stderr=self._err, cwd=ROOT)
        deadline = time.monotonic() + 20
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("E-utilities stub did not start")
            time.sleep(0.02)
        with open(port_file, encoding="utf-8") as fh:
            self.url = f"http://127.0.0.1:{fh.read().strip()}"

    def requests(self) -> int:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.load(resp)["requests"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._err.close()


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def outputs_digest(inv: Invocation) -> str:
    h = hashlib.sha256()
    for topic_id in sorted(inv.tsvs):
        h.update(topic_id.encode() + b"\0" + inv.tsvs[topic_id] + b"\0")
    h.update(inv.report)
    return h.hexdigest()


def check_fixtures(directory: str, timeout: float) -> tuple[int, set[str], list[str]]:
    """``tests/fixtures`` must still give the frozen outputs byte for byte."""
    expected_dir = os.path.join(FIXTURES, "expected")
    inv = invoke(directory, ["--fixture-dir", os.path.join(FIXTURES, "corpus"),
                             "--output", "json", "--gold-k", "5", "pipeline",
                             os.path.join(FIXTURES, "gold.tsv")], timeout=timeout)
    topic_ids = sorted(n[:-4] for n in os.listdir(expected_dir) if n.endswith(".tsv"))
    with open(os.path.join(expected_dir, "report.json"), "rb") as fh:
        report_ok = inv.code == 0 and fh.read() == inv.report
    failed = set()
    for topic_id in topic_ids:
        with open(os.path.join(expected_dir, f"{topic_id}.tsv"), "rb") as fh:
            if not report_ok or fh.read() != inv.tsvs.get(topic_id):
                failed.add(topic_id)
    problems = [f"tests/fixtures: topic {t} differs from tests/fixtures/expected"
                for t in sorted(failed)]
    if inv.code != 0:
        problems.append(f"tests/fixtures: exit code {inv.code}: {stderr_tail(inv)}")
    return len(topic_ids), failed, problems


def check_invocation(inv: Invocation, wl: gen.Workload,
                     ref: Invocation | None) -> tuple[set[str], list[str]]:
    """Topics of one invocation that failed; ``ref`` is the checked reference."""
    topic_ids = [t.topic_id for t in wl.topics]
    if inv.code != 0 or "first_topic" not in inv.stats:
        return set(topic_ids), [f"exit code {inv.code}: {stderr_tail(inv)}"]
    failed, problems = set(), []
    fetched = inv.fetched()
    for topic_id in topic_ids:
        if fetched.get(topic_id) != wl.planted[topic_id]:
            failed.add(topic_id)
            problems.append(f"{topic_id}: fetched set differs from the planted match set")
        if ref is not None and inv.tsvs.get(topic_id) != ref.tsvs.get(topic_id):
            failed.add(topic_id)
            problems.append(f"{topic_id}: ranked TSV differs between invocations")
    if ref is not None and inv.report != ref.report:
        failed.update(topic_ids)
        problems.append("report differs between invocations")
    return failed, problems


def check_reference(inv: Invocation, wl: gen.Workload, seed: int) -> tuple[set[str], list[str]]:
    """Ranking oracle and default-seed digest, on the untimed first invocation."""
    from citescreen.preprocess import stem_and_filter
    import oracle

    failed, problems = set(), []
    with open(os.path.join(inv.directory, "rank.json"), encoding="utf-8") as fh:
        calls = json.load(fh)["rank_calls"]
    topic_order = [tid for tid, *_ in inv.stats["topics"]]
    if len(calls) != len(topic_order):
        return ({t.topic_id for t in wl.topics},
                [f"saw {len(calls)} rank calls for {len(topic_order)} topics"])
    for topic_id, call in zip(topic_order, calls):
        found = oracle.check_ranking(call, stem_and_filter)
        rows = [line.split("\t") for line in
                inv.tsvs.get(topic_id, b"").decode().splitlines()[1:]]
        written = [(int(r[1]), r[5]) for r in rows]
        if written != [(r[0], f"{r[4]:.6f}") for r in call["results"]]:
            found.append("ranked TSV does not match the ranking that was checked")
        if found:
            failed.add(topic_id)
            problems.extend(f"{topic_id}: {p}" for p in found[:3])
    if seed == DEFAULT_SEED:
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh).get(wl.name)
        digest = outputs_digest(inv)
        if digest != recorded:
            failed.update(t.topic_id for t in wl.topics)
            problems.append(f"outputs digest {digest} != recorded {recorded}")
    return failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten topics beyond it, and that percentile.

    With ten topics or fewer there is no such percentile; the slowest
    topic is reported as the 100th.
    """
    values = sorted(latencies)
    n = len(values)
    if n <= 10:
        return values[-1], 100.0
    return values[n - 11], 100.0 * (n - 10) / n


def end_to_end(plain: list[Invocation], report: dict) -> tuple[dict[str, float], dict]:
    med = statistics.median
    tails = [tail(inv.latencies()) for inv in plain]
    values = {
        "setup_s": med(inv.setup_s for inv in plain),
        "run_s": med(inv.run_s for inv in plain),
        "citations_per_s": med(
            sum(len(p) for p in inv.fetched().values()) / (inv.run_s - inv.setup_s)
            for inv in plain),
        "topic_p50_s": med(med(inv.latencies()) for inv in plain),
        "topic_tail_s": med(value for value, _ in tails),
        "peak_rss_mb": med(inv.stats["maxrss_kb"] / 1024 for inv in plain),
        "micro_f": report["overall_micro"]["f_score"],
        "p_at_gold_k": report["overall_gold_k_micro"]["precision"],
    }
    notes = {"invocations": len(plain), "topic_runs": sum(len(inv.latencies()) for inv in plain),
             "tail_percentile": tails[0][1]}
    return values, notes


def per_layer(plain: list[Invocation], traced: list[Invocation]) -> tuple[dict, dict, list]:
    rows, share_rows, unmeasured = [], [], set()
    for inv in traced:
        m, shares = spans.summarize(inv.trace, inv.run_s, inv.setup_s,
                                    sum(inv.latencies()), inv.stats["first_topic"])
        m["stub.requests"] = inv.stub_requests
        rows.append(m)
        share_rows.append(shares)
        unmeasured.update(inv.trace["unmeasured"])
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    shares = {k: statistics.median(r[k] for r in share_rows) for k in share_rows[0]}
    plain_s = statistics.median(inv.run_s for inv in plain)
    traced_s = statistics.median(inv.run_s for inv in traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    for layer, value in shares.items():
        metrics[f"share.{layer}"] = value
    return metrics, shares, sorted(unmeasured)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

@dataclass
class Result:
    name: str
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    began = time.monotonic()
    wl = gen.generate(name, seed)
    paths = gen.write_inputs(wl, os.path.join(work, "inputs"))
    lines = [f"workload {name} (seed {seed}): {len(wl.topics)} topics, "
             f"{len(wl.records)} citations, gold-k {wl.gold_k}"]
    lines += [f"  property {k} = {v:.4g}" for k, v in wl.properties.items()]

    attempted, failed_count, problems = 0, 0, []
    stub = Stub(paths["stub"], work) if wl.live else None
    try:
        gen.write_config(paths["config"], wl, paths.get("corpus"),
                         stub.url if stub else None)
        cli_args = ["--config", paths["config"], "--output", "json",
                    "--gold-k", str(wl.gold_k), "pipeline", paths["gold"]]

        def remaining() -> float:
            return max(1.0, KILL_AFTER - (time.monotonic() - began))

        n, failed, found = check_fixtures(os.path.join(work, "fixtures"), remaining())
        attempted, failed_count = n, len(failed)
        problems += found

        ref = invoke(os.path.join(work, "reference"), cli_args, timeout=remaining(),
                     http=wl.live, capture=True)
        failed, found = check_invocation(ref, wl, None)
        if not failed:
            more, found_more = check_reference(ref, wl, seed)
            failed |= more
            found += found_more
        attempted += len(wl.topics)
        failed_count += len(failed)
        problems += found
        set_up = time.monotonic() - began

        plain: list[Invocation] = []
        traced: list[Invocation] = []
        deadline = time.monotonic() + seconds
        while ref.code == 0:
            traced_turn = trace and len(traced) < len(plain)
            before = stub.requests() if stub else 0
            inv = invoke(os.path.join(work, f"inv{len(plain) + len(traced):03d}"), cli_args,
                         timeout=remaining(), trace=traced_turn, http=wl.live)
            inv.stub_requests = stub.requests() - before if stub else 0
            failed, found = check_invocation(inv, wl, ref)
            attempted += len(wl.topics)
            failed_count += len(failed)
            problems += found
            if failed:
                break
            (traced if traced_turn else plain).append(inv)
            shutil.rmtree(os.path.join(inv.directory, "ranked"))
            now = time.monotonic()
            enough = (len(plain) >= MIN_TRACED and len(traced) >= MIN_TRACED if trace
                      else len(plain) >= MIN_PLAIN)
            if (now >= deadline and enough) or now - began > HARD_LIMIT:
                break
    finally:
        if stub:
            stub.stop()

    correct = failed_count == 0 and not problems and bool(plain) and (not trace or bool(traced))
    lines.append(f"  set-up before timing (generate, fixtures check, reference run): "
                 f"{set_up:.2f} s")
    lines.append(f"  ops_failed_ratio = {failed_count}/{attempted} topics")
    lines += [f"  FAIL {p}" for p in problems[:20]]
    metrics: dict[str, tuple[float, str]] = {}
    if correct and not trace:
        values, notes = end_to_end(plain, json.loads(ref.report))
        metrics = {k: (values[k], unit) for k, unit in END_TO_END}
        lines.append(f"  {notes['invocations']} timed invocations, "
                     f"{notes['topic_runs']} topic runs; run_s samples "
                     + " ".join(f"{inv.run_s:.3f}" for inv in plain))
        for k, (v, unit) in metrics.items():
            extra = f"  (p{notes['tail_percentile']:.1f})" if k == "topic_tail_s" else ""
            lines.append(f"  {k:<16} {v:>12.6g} {unit}{extra}")
    elif correct:
        values, shares, unmeasured = per_layer(plain, traced)
        metrics = {k: (v, layer_unit(k)) for k, v in values.items()}
        lines.append(f"  {len(traced)} traced and {len(plain)} untraced invocations; "
                     f"tracing overhead {values['trace.overhead_s']:.3f} s "
                     f"({values['trace.overhead_pct']:.1f}% of run_s)")
        if unmeasured:
            lines.append(f"  unmeasured (name no longer exists): {', '.join(unmeasured)}")
        lines.append("  share of traced run_s by layer (self time):")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {layer:<11} {share:6.1f}%")
        for k, (v, unit) in metrics.items():
            if not k.startswith("share."):
                lines.append(f"  {k:<38} {v:>12.6g} {unit}")
    return Result(name, correct, attempted, failed_count, metrics, lines)


def _program_present() -> str | None:
    for path in (os.path.join(ROOT, "src", "citescreen", "cli.py"),
                 os.path.join(FIXTURES, "expected", "report.json")):
        if not os.path.exists(path):
            return f"missing {os.path.relpath(path, ROOT)}: run from a citescreen checkout"
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="citescreen benchmark")
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = _program_present()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(result.lines), flush=True)
        results.append(result)
    shutil.rmtree(WORK, ignore_errors=True)
    correct = all(r.correct for r in results)
    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.name}.{k}": v for r in results for k, v in r.metrics.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
