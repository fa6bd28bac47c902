"""End-to-end GAC/OLAK benchmark: checked greedy runs, one in flight at a time.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]

One process (this one) generates all of the load. Each workload is a
closed loop with one client: its next greedy call is issued only after
the previous one returned. Each workload runs in its own process
(``serve.py``) that sets up, warms up and then waits; this process issues
the timed runs round-robin across the workloads, so host noise that
comes in bursts is spread over all of them. A workload stops before the
run that would take it past ``--seconds`` (after at least
:data:`MIN_RUNS` runs).

Every run is checked: its result digest must equal the workload's
warm-up run, the pinned digest in ``baseline.json`` and, for a workload
with ``same_as``, that workload's warm-up run; the warm-up's gain is
also checked against a reference peel. A mismatch or an exception is a
failed attempt, and the workload continues.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced runs and measures the
per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (keyed
``workload/metric`` when several workloads ran). ``--out DIR`` also
writes ``DIR/results.json`` and, when tracing, one Chrome trace per
workload. The exit code is 0 when every check passed, 1 when one
failed, 2 on bad usage and 3 when the one workload asked for needs more
cores than the host schedules.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Fewest timed runs per workload (and per kind when tracing).
MIN_RUNS = 2
#: Longest wait for one answer from a workload process.
REPLY_TIMEOUT_S = 150.0


def load_bench() -> dict[str, Any]:
    return dict(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))


def load_pins() -> dict[str, dict[str, Any]]:
    """Per workload: the pinned result ``digest`` and the ``calibration_s``
    the host-speed samples are scaled to (``baseline.json``)."""
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    return dict(baseline["pins"])


def schedulable_cores() -> int:
    return len(os.sched_getaffinity(0))


class WorkloadGone(Exception):
    """The workload process died or stopped answering."""


class Session:
    """One workload process and everything it answered."""

    def __init__(self, workload: Workload, reference_s: float) -> None:
        self.workload = workload
        #: The calibration time, per pass, of the host the metrics are
        #: scaled to.
        self.reference_s = reference_s
        self.proc: subprocess.Popen[bytes] | None = None
        self.ready: dict[str, Any] = {}
        self.runs: list[dict[str, Any]] = []
        self.final: dict[str, Any] = {}
        #: First failure of each failed attempt, by attempt label.
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.spent = 0.0
        self._buffer = b""

    def fail(self, label: str, message: str) -> None:
        self.failures.setdefault(label, message)

    # -- process -------------------------------------------------------
    def start(self, seed: int, trace_out: Path | None) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = str(SRC)
        command = [
            sys.executable,
            str(HERE / "serve.py"),
            "--spec",
            json.dumps(dataclasses.asdict(self.workload)),
            "--seed",
            str(seed),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.attempted += 1
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env
        )
        self.ready = self._receive()
        if self.ready["error"]:
            self.fail("warm-up", f"raised: {self.ready['error']}")
        elif self.ready["gain"] != self.ready["reference_gain"]:
            self.fail(
                "warm-up",
                f"gain {self.ready['gain']} != reference peel "
                f"{self.ready['reference_gain']}",
            )

    def run(self, traced: bool) -> None:
        self.attempted += 1
        label = f"run {len(self.runs) + 1}"
        began = time.monotonic()
        self._send({"cmd": "run", "traced": traced})
        reply = self._receive()
        self.spent += time.monotonic() - began
        self.runs.append(reply)
        if reply["error"]:
            self.fail(label, f"raised: {reply['error']}")

    def finish(self) -> None:
        self._send({"cmd": "finish"})
        self.final = self._receive()

    def stop(self) -> None:
        """Reap the process: closing stdin ends an idle one, else kill."""
        if self.proc is None:
            return
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def _send(self, message: dict[str, Any]) -> None:
        assert self.proc is not None and self.proc.stdin is not None
        try:
            self.proc.stdin.write((json.dumps(message) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkloadGone("the workload process exited") from exc

    def _receive(self) -> dict[str, Any]:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                self.proc.kill()
                raise WorkloadGone(f"no answer in {REPLY_TIMEOUT_S:.0f} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkloadGone("the workload process exited")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return dict(json.loads(line))

    # -- scheduling ----------------------------------------------------
    def next_traced(self, tracing: bool) -> bool:
        """When tracing, runs alternate untraced and traced."""
        return tracing and len(self.runs) % 2 == 1

    def done(self, seconds: float, tracing: bool) -> bool:
        if len(self.runs) < MIN_RUNS * (2 if tracing else 1):
            return False
        # Stop before the run that would take the workload past its budget.
        return self.spent * (1 + 1 / len(self.runs)) > seconds

    # -- results -------------------------------------------------------
    def walls(self, traced: bool) -> list[float]:
        return [
            r["wall"]
            for r in self.runs
            if r["traced"] == traced and r["wall"] is not None
        ]

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics, with times scaled to the reference host.

        Other tenants of a shared host only ever add time, so the fastest
        timed run is the estimate of the program's own cost, and the
        fastest calibration sample that of the host's speed in this
        session. Times are multiplied by the reference calibration time
        over the fastest sample: what they would have taken on the
        reference host.
        """
        metrics: dict[str, float] = {}
        timed = [r for r in self.runs if not r["traced"] and r["wall"] is not None]
        if timed:
            speed = self.reference_s / min(r["calibration_s"] for r in timed)
            fastest = min(timed, key=lambda r: float(r["wall"]))
            metrics["run_s"] = fastest["wall"] * speed
            metrics["anchors_per_s"] = fastest["anchors"] / metrics["run_s"]
            metrics["setup_s"] = statistics.median(self.ready["setup_s"]) * speed
        if self.ready.get("gain") is not None:
            metrics["gain"] = float(self.ready["gain"])
        if self.final:
            metrics["peak_rss_mb"] = self.final["peak_rss_mb"]
        return metrics

    def per_layer(self) -> dict[str, float]:
        traced = [r["layers"] for r in self.runs if r.get("layers")]
        metrics = {
            name: statistics.median(layers[name] for layers in traced)
            for name in (traced[0] if traced else {})
        }
        if self.ready:
            metrics["datasets.generate_s"] = statistics.median(self.ready["generate_s"])
        if self.final:
            metrics["parallel.worker_rss_mb"] = self.final["worker_rss_mb"]
        # Runs alternate untraced and traced; neighbours share host speed.
        ratios = [
            traced["wall"] / plain["wall"]
            for plain, traced in zip(self.runs[0::2], self.runs[1::2])
            if plain["wall"] and traced["wall"]
        ]
        if ratios:
            metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        return metrics


def check(sessions: dict[str, Session], pins: dict[str, dict[str, Any]]) -> None:
    """Compare every answered digest against its three references."""
    for name, session in sessions.items():
        workload = session.workload
        peer = sessions.get(workload.same_as or "")
        references = (
            ("the warm-up run", session.ready.get("digest")),
            ("the pinned digest", pins[name]["digest"]),
            (f"{workload.same_as}'s warm-up", peer and peer.ready.get("digest")),
        )
        answers = [("warm-up", session.ready)] + [
            (f"run {i}", reply) for i, reply in enumerate(session.runs, 1)
        ]
        for label, reply in answers:
            got = reply.get("digest")
            if got is None:
                continue  # it raised, and that is already a failure
            for what, want in references:
                if want is not None and got != want:
                    session.fail(label, f"digest {got} != {what} {want}")
                    break


def run_sessions(
    names: list[str],
    pins: dict[str, dict[str, Any]],
    seed: int,
    seconds: float,
    tracing: bool,
    out: Path | None,
) -> dict[str, Session]:
    """Set up every workload, then issue timed runs round-robin."""
    sessions: dict[str, Session] = {}
    active: list[Session] = []
    try:
        for name in names:
            session = Session(WORKLOADS[name], pins[name]["calibration_s"])
            sessions[name] = session
            trace_out = out / f"{name}.trace.json" if out and tracing else None
            try:
                session.start(seed, trace_out)
                active.append(session)
            except WorkloadGone as exc:
                session.fail("warm-up", str(exc))
        while active:
            for session in list(active):
                if session.done(seconds, tracing):
                    active.remove(session)
                    continue
                try:
                    session.run(session.next_traced(tracing))
                except WorkloadGone as exc:
                    session.fail(f"run {len(session.runs) + 1}", str(exc))
                    active.remove(session)
        for session in sessions.values():
            try:
                session.finish()
            except WorkloadGone as exc:
                session.fail("finish", str(exc))
    finally:
        for session in sessions.values():
            if session.proc is not None and not session.final:
                session.proc.kill()  # stopped before it reported: nothing to keep
            session.stop()
    return sessions


def git_head() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    bench = load_bench()
    listed = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=listed + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: the program's source is missing ({SRC})", file=sys.stderr)
        return 2

    tracing = bool(args.trace)
    cores = schedulable_cores()
    names = listed if args.workload == "all" else [args.workload]
    starved = [n for n in names if WORKLOADS[n].workers > 1 and cores < 2]
    if starved and len(names) == 1:
        print(f"e2e: {names[0]} skipped: starved ({cores} core)", file=sys.stderr)
        return 3
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    runnable = [n for n in names if n not in starved]
    pins = load_pins()
    sessions = run_sessions(runnable, pins, args.seed, args.seconds, tracing, args.out)
    check(sessions, pins)

    kind = "per_layer" if tracing else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    report: dict[str, Any] = {}
    metrics: dict[str, dict[str, Any]] = {}
    for name in names:
        if name in starved:
            report[name] = {"skipped": "starved"}
            print(f"{name}: skipped: starved ({cores} core)")
            continue
        session = sessions[name]
        measured = session.per_layer() if tracing else session.end_to_end()
        missing = sorted(set(units) - set(measured))
        if missing:
            session.fail("metrics", f"not measured: {', '.join(missing)}")
        failed = len(session.failures)
        untraced, traced = session.walls(False), session.walls(True)
        report[name] = {
            "kernel": session.ready.get("kernel"),
            "workers": session.workload.workers,
            "digest": session.ready.get("digest"),
            "attempted": session.attempted,
            "failed": failed,
            "failed_frac": failed / max(session.attempted, 1),
            "failures": session.failures,
            "walls_s": {"untraced": untraced, "traced": traced},
            "calibration_s": [
                r["calibration_s"] for r in session.runs if "calibration_s" in r
            ],
            "reference_s": session.reference_s,
            "metrics": {m: measured[m] for m in units if m in measured},
        }
        print(
            f"{name}: {len(untraced)} untraced + {len(traced)} traced runs, "
            f"failed {failed}/{session.attempted}"
        )
        for label, failure in session.failures.items():
            print(f"  FAILED {label}: {failure.strip().splitlines()[-1]}")
        for metric, value in report[name]["metrics"].items():
            print(f"  {metric:34} {value:>14.6g} {units[metric]}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}

    attempted = sum(sessions[n].attempted for n in runnable)
    failed = sum(len(sessions[n].failures) for n in runnable)
    correct = failed == 0
    if args.out is not None:
        results = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": tracing,
            "env": {
                "python": platform.python_version(),
                "schedulable_cores": cores,
                "git_head": git_head(),
            },
            "correct": correct,
            "workloads": report,
        }
        (args.out / "results.json").write_text(
            json.dumps(results, indent=2) + "\n", encoding="utf-8"
        )
    summary = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)  # unwinds through the reaping ``finally``


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
