"""Benchmark of the ``sfpa`` command line, run in-process as a closed loop.

    python3 perfbench/run.py --workload c2_256k --seed 1 --seconds 10 --trace 0

A set-up process (``workloads.py``) generates the workload's inputs from
the seed and writes them as Galileo files.  This process then calls
``sfpa.cli.main`` on those files one call after another, in rounds, until
``--seconds`` have gone by and at least MIN_ROUNDS rounds are done.  A
round is one pass over every input, then one round of the set-up process:
for about a second, set-up again and write every input back with
``serialize_ft``.  Every
answer is checked against a reference the benchmark computed itself; a
call that exits non-zero or whose answer fails its check counts as failed.

An input's time is the median over the run's passes, and ``pass_s`` is
the sum of those medians; ``write_s`` is built the same way from the
rounds, and ``setup_s`` is the median of every set-up repetition.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of
``tracing.py`` instead, taken from traced rounds and compared with
untraced passes made after them, and the spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: rounds per run, at the least; the 256k tree takes about 16 s a round
MIN_ROUNDS = 3
#: a per-input percentile is printed only with this many inputs beyond it
TAIL_INPUTS = 10
#: self times of functions only exact_audit calls; they would read exactly
#: 0 on every run of the other workloads, so they are printed, not reported
CALLED_ON_EXACT_AUDIT_ONLY = ("solver.plain_s", "solver.mcs_s")
_clock = time.perf_counter


class SetUp:
    """A run's set-up process (``workloads.py``): the first set-up when it
    starts, then one round per request."""

    def __init__(self, workload, seed):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(OUT / "inputs" / workload)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.first = self._reply()

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise SystemExit("set-up failed with exit code %s" % self.proc.returncode)
        return json.loads(line)

    def round(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self):
        """End of input: the process deletes the extra directories and exits."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Run:
    """One workload's inputs, the calls made on them and their outcomes."""

    def __init__(self, workload, seed, expected, call):
        self.workload = workload
        self.seed = seed
        self.inputs = expected["inputs"]
        self.checks = expected["checks"]
        self.call = call
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # answers or written files that failed their check
        self.reported = set()  # inputs whose failure was already printed
        for item in self.inputs:
            if "column" in item:
                item["column"] = int(item["column"], 16)

    def one_pass(self, items=None):
        """Run every call once; return each input's seconds in this pass."""
        gc.collect()
        times = []
        for item in self.inputs if items is None else items:
            spent = 0.0
            for argv in item["calls"]:
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        start = _clock()
                        code = self.call(argv)
                        spent += _clock() - start
                except Exception:  # a crash is a failed call, not a failed run
                    code, err = None, io.StringIO(traceback.format_exc())
                self.attempted += 1
                if code == 0:
                    problem = self.check(item, argv, out.getvalue())
                    self.wrong += problem is not None
                else:
                    problem = "exit code %s: %s" % (code, err.getvalue().strip())
                if problem:
                    self.failed += 1
                    if item["file"] not in self.reported:
                        self.reported.add(item["file"])
                        print("FAILED %s: %s" % (" ".join(argv), problem))
            times.append(spent)
        return times

    def check(self, item, argv, output):
        """None if the output is right, else what is wrong with it."""
        if argv[0] == "mcs":
            names = output.split()
            if reference.is_minimal_cut_set(item["bes"], item["column"], names):
                return None
            return "%s is not a minimal cut set" % names
        try:
            raw = json.loads(output)["raw_unreliability"]
        except (ValueError, KeyError):
            return "no unreliability in %r" % output[:200]
        if "exact" in item:
            if Fraction(str(raw)) == Fraction(item["exact"]):
                return None
            return "%s != enumerated %s" % (raw, item["exact"])
        if "mc" in item:
            n = item["samples"]
            width = 5 * max(reference.standard_error(item["mc"], n),
                            reference.standard_error(raw, n))
            if -1e-9 <= raw <= 1 + 1e-9 and abs(raw - item["mc"]) <= width:
                return None
            return "%r outside %r +- %.3g" % (raw, item["mc"], width)
        if abs(raw - item["value"]) <= 1e-9:
            return None
        return "%r != reference %r" % (raw, item["value"])

    def note(self, problems):
        """Count and print what the set-up process found wrong."""
        for problem in problems:
            self.wrong += 1
            print("WRONG %s" % problem)

    def rounds(self, seconds, setup=None, min_rounds=MIN_ROUNDS, on_pass=None):
        """Whole rounds until ``seconds`` have gone by and at least
        ``min_rounds`` are done.  Returns each pass's per-input seconds and
        the set-up process's reply to each round (none without ``setup``)."""
        per_pass, replies = [], []
        start = _clock()
        while len(per_pass) < min_rounds or _clock() - start < seconds:
            per_pass.append(self.one_pass())
            if on_pass is not None:
                on_pass()
            if setup is not None:
                reply = setup.round()
                self.note(reply["problems"])
                replies.append(reply)
        return per_pass, replies


def per_input_total(per_round):
    """Sum over inputs of each input's median seconds over the rounds."""
    return sum(statistics.median(ts) for ts in zip(*per_round))


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def input_percentiles(per_pass):
    """Each input's median seconds over the passes, then p50 and p90 of
    those across inputs in ms; a percentile without TAIL_INPUTS inputs
    beyond it is None."""
    medians = [statistics.median(ts) for ts in zip(*per_pass)]
    n = len(medians)
    p50 = statistics.median(medians) * 1000 if n >= 2 * TAIL_INPUTS else None
    p90 = (statistics.quantiles(medians, n=10)[8] * 1000
           if n >= 10 * TAIL_INPUTS else None)
    return medians, p50, p90


def setup_reps(setup, replies, key="setup_s"):
    """Every set-up repetition's figure, the first set-up's included."""
    return setup.first[key] + [x for reply in replies for x in reply[key]]


def end_to_end(run, seconds, setup):
    per_pass, replies = run.rounds(seconds, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = setup_reps(setup, replies)
    writes = [w for reply in replies for w in reply["write_s"]]
    totals = [sum(ts) for ts in per_pass]
    medians, p50, p90 = input_percentiles(per_pass)
    print("rounds: %d, whole-pass quartiles %s; set-up repetitions: %d, "
          "write-backs: %d" % (len(totals), " ".join("%.4f" % q for q in quartiles(totals)),
                               len(setups), len(writes)))
    print("inputs: %d, per-input median over passes: input_p50_ms %s, "
          "input_p90_ms %s" % (
              len(run.inputs),
              "%.3f" % p50 if p50 is not None else "n/a (fewer than 20 inputs)",
              "%.3f" % p90 if p90 is not None else "n/a (fewer than 100 inputs)"))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (sum(medians), "s"),
        "write_s": (per_input_total(writes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {"pass_totals_s": totals, "write_totals_s": [sum(w) for w in writes],
           "setup_reps_s": setups, "input_p50_ms": p50, "input_p90_ms": p90,
           "input_medians_s": medians}
    return metrics, raw


def per_layer(run, seconds, setup):
    from sfpa import cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    run.call = tracer.wrap(cli.main, "cli.main")
    snapshots = []

    def snapshot():
        reports = tracer.reports
        snapshots.append({
            "galileo.parse_s": tracer.self_time["galileo.parse"],
            "tree.build_s": tracer.total["tree.build"],
            "dominators.topo_s": tracer.total["dominators.topo"],
            "dominators.idom_s": tracer.self_time["dominators.idom"],
            "solver.solve_s": tracer.self_time["solver.solve"],
            "solver.plain_s": tracer.self_time["solver.plain"],
            "solver.mcs_s": tracer.self_time["solver.mcs"],
            "solver.max_terms": max((r.max_terms for r in reports), default=0),
            "solver.max_live_vars": max((r.max_live_vars for r in reports), default=0),
            "solver.multiplications": sum(r.multiplications for r in reports),
            "solver.substitutions": sum(r.substitutions for r in reports),
            "algebra.mul_calls": tracer.counts["mul_calls"],
            "algebra.mul_s": tracer.self_time["algebra.mul"],
            "algebra.term_pairs": tracer.counts["term_pairs"],
            "algebra.terms_out": tracer.counts["terms_out"],
            "algebra.substitute_calls": tracer.counts["substitute_calls"],
            "algebra.substitute_s": tracer.self_time["algebra.substitute"],
            "cli.overhead_s": tracer.self_time["cli.main"],
            "pass_s": tracer.total["cli.main"],
        })
        tracer.reset()

    try:
        tracer.reset()
        _, replies = run.rounds(seconds, setup, on_pass=snapshot)
        tracer.alloc = True
        run.one_pass()
        tracer.alloc = False
        alloc = dict(tracer.alloc_peak_mb)
    finally:
        tracer.uninstall()
        run.call = cli.main
    # the baseline comes last, so that neither side includes the first pass
    untraced = statistics.median(
        sum(ts) for ts in run.rounds(seconds / 4, min_rounds=2)[0])

    metrics = {name: statistics.median(s[name] for s in snapshots)
               for name in snapshots[0]}
    traced = metrics.pop("pass_s")
    print("trace overhead: traced pass %.4f s against untraced pass %.4f s "
          "(medians): %+.1f%%" % (traced, untraced, 100 * (traced / untraced - 1)))
    metrics["galileo.serialize_s"] = per_input_total(
        [w for reply in replies for w in reply["write_s"]])
    metrics["tree.build_alloc_mb"] = alloc.get("tree.build", 0.0)
    metrics["solver.alloc_mb"] = max(alloc.get("solver.solve", 0.0),
                                     alloc.get("solver.plain", 0.0))
    metrics["generator.generate_s"] = statistics.median(
        setup_reps(setup, replies, "generate_s"))
    for name in CALLED_ON_EXACT_AUDIT_ONLY:
        value = metrics.pop(name)
        if value:
            print("%-26s %14.6f s (not in the result line)" % (name, value))
    units = {"_s": "s", "_mb": "MB"}
    result = {name: (value, next((u for suffix, u in units.items()
                                  if name.endswith(suffix)), "count"))
              for name, value in sorted(metrics.items())}
    OUT.mkdir(parents=True, exist_ok=True)
    raw = {"untraced_pass_s": untraced, "per_pass": snapshots}
    tracer.write(OUT / ("trace_%s_s%d.json" % (run.workload, run.seed)),
                 dict(raw, workload=run.workload, seed=run.seed))
    return result, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sfpa" / "cli.py").is_file():
        print("perfbench: no sfpa sources at %s" % SRC, file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from sfpa import cli

    with SetUp(args.workload, args.seed) as setup:
        expected = json.loads(Path(setup.first["expected"]).read_text(encoding="utf-8"))
        run = Run(args.workload, args.seed, expected, cli.main)
        run.note(setup.first["problems"])
        print("workload %s, seed %d, %d inputs, %d calls per pass; first set-up "
              "%.4f s" % (args.workload, args.seed, len(run.inputs),
                          sum(len(i["calls"]) for i in run.inputs),
                          setup.first["setup_s"][0]))
        measure = per_layer if args.trace else end_to_end
        metrics, raw = measure(run, args.seconds, setup)
        # untimed checks on inputs of their own (the c2 body)
        run.one_pass(run.checks)
        for item in run.checks:
            print("checked %s (%d nodes) against its reference %.12g" % (
                item["file"], item["nodes"], item["value"]))
    print("operations: attempted %d, failed %d" % (run.attempted, run.failed))
    for name, (value, unit) in metrics.items():
        print("%-26s %14.6f %s" % (name, value, unit))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / ("result_%s_s%d_t%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(raw), encoding="utf-8")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
