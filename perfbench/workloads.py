"""The benchmark's workloads: their inputs, the calls made on them and the
reference answers those calls are checked against.

Run as a script, this is a run's set-up process:

    python3 perfbench/workloads.py --workload c2_256k --seed 1 --out DIR

It generates the workload's inputs with ``sfpa.generator`` and writes them
as Galileo files into a new directory under DIR, timed.  Untimed, it then
computes the reference answers with ``reference.py``, writes them to
``expected.json`` next to the inputs, parses every file back and prints
one JSON line.  After that each line read from standard input asks for
one round: for at least SETUP_ROUND_SECONDS, set-up again, each time into
a new directory, then ``serialize_ft`` of every parsed input, timed per
input; each round's reply is one JSON line.  The rounds are asked for
between the passes of ``run.py``, so that set-up and write-back are
sampled over the same stretch of time as the passes.  It runs in its own
process so that its memory does not count towards the peak of the process
that solves.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

import reference  # noqa: E402
from reference import Model  # noqa: E402

#: shared_dense inputs as (n_multiparent, generator seed) for
#: GenConfig(n_be=120, n_gates=80).  Picked from a scan of n_multiparent
#: 20..30 x seeds 0..11 so that single solves take 0.01 s to 0.4 s and no
#: input carries more than a seventh of the pass; seeds that ran past
#: 1.5 s (22 of 132) are left out.  The generator's own probabilities are
#: kept: drawing new ones changes how many coefficients round to zero, and
#: with it the work and memory of a solve by up to 15 % and 45 %.
SHARED_DENSE = [
    (21, 6), (22, 2), (21, 9), (26, 3), (20, 11), (20, 7), (23, 6),
    (28, 9), (24, 6), (27, 0), (20, 8), (28, 0), (27, 3), (23, 9),
    (22, 8), (29, 2), (30, 9), (30, 0), (25, 6), (27, 10),
]
C2_NODES = 256_000
EXACT_AUDIT_MODELS = 300
MC_SAMPLES = 1 << 16

WORKLOADS = ("c2_256k", "shared_dense", "exact_audit")
#: each round repeats set-up and write-back at least once and for at
#: least this long
SETUP_ROUND_SECONDS = 1.0


def model_of(t):
    """The benchmark's own description of an ``sfpa`` FaultTree."""
    gates = {}
    probs = {}
    for v, name in enumerate(t.names):
        if t.children[v]:
            gates[name] = (t.kinds[v].value, [t.names[w] for w in t.children[v]])
        else:
            probs[name] = t.probs[v]
    return Model(t.names[t.root], gates, probs)


def c2_model(n_nodes, seed, generate):
    """The acceptance tests' c2 instance: two interacting shared events
    (``acc_a`` and ``acc_b``) above a generated tree-shaped body."""
    from sfpa.generator import GenConfig

    body = n_nodes - 8
    n_gates = body // 3
    t_body = generate(GenConfig(seed=seed, n_be=body - n_gates,
                                n_gates=n_gates, n_multiparent=0))
    gates = {
        "acc_h": ("and", ["acc_f", "acc_g"]),
        "acc_f": ("and", ["acc_d", "acc_e"]),
        "acc_d": ("or", ["acc_a", "acc_b"]),
        "acc_e": ("or", ["acc_b", "acc_c"]),
        "acc_g": ("or", ["acc_a", t_body.names[t_body.root]]),
    }
    probs = {"acc_a": 0.3, "acc_b": 0.4, "acc_c": 0.5}
    body_model = model_of(t_body)
    gates.update(body_model.gates)
    probs.update(body_model.probs)
    return Model("acc_h", gates, probs)


def build_models(workload, seed, generate):
    """The workload's models, in input order."""
    from sfpa.generator import GenConfig

    if workload == "c2_256k":
        return [c2_model(C2_NODES, seed, generate)]
    if workload == "shared_dense":
        # fixed inputs: the seed only seeds the Monte Carlo reference
        return [model_of(generate(GenConfig(seed=gen_seed, n_be=120, n_gates=80,
                                            n_multiparent=multiparent)))
                for multiparent, gen_seed in SHARED_DENSE]
    rng = random.Random("exact_audit/%d" % seed)
    models = []
    for _ in range(EXACT_AUDIT_MODELS):
        models.append(model_of(generate(GenConfig(
            seed=rng.getrandbits(32), n_be=rng.randint(8, 14),
            n_gates=rng.randint(5, 9), n_multiparent=rng.randint(1, 4)))))
    return models


def calls(workload, path):
    """The CLI argument lists run on one input file, in order."""
    if workload == "exact_audit":
        return [["solve", "--exact", path],
                ["solve", "--exact", "--algo", "sfpa", path],
                ["mcs", path]]
    return [["solve", path]]


def write_inputs(models, out_dir, name="input_%03d.dft"):
    """Build each model as an sfpa FaultTree and write it as Galileo text."""
    from sfpa.galileo import serialize_ft
    from sfpa.tree import FaultTree

    files = []
    for i, model in enumerate(models):
        t = FaultTree.build(model.root, model.gates, model.probs)
        path = out_dir / (name % i)
        path.write_text(serialize_ft(t), encoding="utf-8")
        files.append(path)
    return files


def expected_answers(workload, seed, models, out_dir):
    """Reference answers for each model (see reference.py), and the checks
    on inputs of their own, which it writes to ``out_dir``."""
    if workload == "c2_256k":
        (model,) = models
        p = model.probs
        body = model.gates["acc_g"][1][1]
        value, size = reference.subtree_values(model, body)
        closed_form = reference.c2_closed_form(
            p["acc_a"], p["acc_b"], p["acc_c"], value[body])
        return ([{"value": closed_form, "digest": model.digest()}],
                [body_check(model, value, size, out_dir)])
    if workload == "shared_dense":
        answers = []
        for i, model in enumerate(models):
            rng = random.Random("mc/%d/%d" % (seed, i))
            estimate, _ = reference.monte_carlo(model, rng, MC_SAMPLES)
            answers.append({"mc": estimate, "samples": MC_SAMPLES,
                            "digest": model.digest()})
        return answers, []
    answers = []
    for model in models:
        # the files hold repr(p); the exact solve reads that decimal literal
        exact_model = Model(model.root, model.gates,
                            {name: repr(p) for name, p in model.probs.items()})
        value = reference.exact_unreliability(exact_model)
        bes, column = reference.truth_column(model)
        answers.append({"exact": "%d/%d" % (value.numerator, value.denominator),
                        "bes": bes, "column": "%x" % column,
                        "digest": model.digest()})
    return answers, []


_REPETITION = itertools.count()


def set_up_once(workload, seed, out_dir, generate):
    """One timed set-up repetition into a new directory under ``out_dir``.
    Returns (seconds, seconds inside ``generate``, models, files)."""
    generate_times = []

    def timed_generate(cfg):
        start = time.perf_counter()
        t = generate(cfg)
        generate_times.append(time.perf_counter() - start)
        return t

    # every repetition writes a new directory, as `sfpa gen --out` does:
    # overwriting 300 files here costs 5x more, and varies 2x more
    rep_dir = out_dir / ("%d-%d" % (os.getpid(), next(_REPETITION)))
    gc.collect()
    start = time.perf_counter()
    models = build_models(workload, seed, timed_generate)
    rep_dir.mkdir()
    files = write_inputs(models, rep_dir)
    return time.perf_counter() - start, sum(generate_times), models, files


def unsaturated_subtree(model, value, size):
    """The largest subtree whose unreliability lies in [0.05, 0.95], as a
    model of its own, given ``reference.subtree_values`` of a tree part."""
    top = max((name for name, p in value.items() if 0.05 <= p <= 0.95),
              key=size.__getitem__)
    names = model.children_first(top)
    return Model(top, {n: model.gates[n] for n in names if n in model.gates},
                 {n: model.probs[n] for n in names if n in model.probs})


def body_check(model, value, size, out_dir):
    """c2 only: its body's unreliability rounds to 0 or 1, so the answer on
    the whole tree hardly depends on it.  A subtree of the body that does
    not saturate is written as an input of its own and checked with the
    same bottom-up reference; it is solved once per run, untimed."""
    sub = unsaturated_subtree(model, value, size)
    (path,) = write_inputs([sub], out_dir, "body_check_%03d.dft")
    return {"file": str(path), "calls": [["solve", str(path)]],
            "value": reference.tree_unreliability(sub), "digest": sub.digest(),
            "nodes": len(sub.gates) + len(sub.probs)}


def load_back(files, digests):
    """Parse every written file with ``parse_ft``; the parsed structure must
    hash like the generated model.  Returns (texts, trees, problems)."""
    from sfpa.galileo import parse_ft

    texts, trees, problems = [], [], []
    for path, digest in zip(files, digests):
        text = path.read_text(encoding="utf-8")
        t = parse_ft(text)
        if model_of(t).digest() != digest:
            problems.append("%s: parsed structure differs from the generated "
                            "model" % path)
        texts.append(text)
        trees.append(t)
    return texts, trees, problems


def write_back(texts, trees):
    """Seconds of ``serialize_ft`` on each parsed input, and the inputs
    whose written text differs from the file they were parsed from."""
    from sfpa.galileo import serialize_ft

    seconds, problems = [], []
    for i, (text, t) in enumerate(zip(texts, trees)):
        start = time.perf_counter()
        written = serialize_ft(t)
        seconds.append(time.perf_counter() - start)
        if written != text:
            problems.append("input %d: serialize_ft(parse_ft(text)) != text" % i)
    return seconds, problems


def serve(workload, seed, out_dir, requests, reply):
    """Set up once, then answer one round per line of ``requests``."""
    sys.path.insert(0, str(SRC))
    from sfpa.generator import generate

    out_dir.mkdir(parents=True, exist_ok=True)
    seconds, generate_s, models, files = set_up_once(workload, seed, out_dir, generate)
    inputs_dir = files[0].parent
    # untimed from here on: reference answers and the parsed copies
    answers, checks = expected_answers(workload, seed, models, inputs_dir)
    inputs = [{"file": str(path), "calls": calls(workload, str(path)), **answer}
              for path, answer in zip(files, answers)]
    expected = inputs_dir / "expected.json"
    expected.write_text(json.dumps({"workload": workload, "seed": seed,
                                    "inputs": inputs, "checks": checks}),
                        encoding="utf-8")
    texts, trees, problems = load_back(files, [a["digest"] for a in answers])
    del models, answers, inputs
    # the parsed copies live to the end; keep them out of every collection
    gc.collect()
    gc.freeze()
    reply({"setup_s": [seconds], "generate_s": [generate_s],
           "problems": problems, "expected": str(expected)})

    for _ in requests:
        setup_s, generate_sums, write_s, problems = [], [], [], []
        began = time.perf_counter()
        while not setup_s or time.perf_counter() - began < SETUP_ROUND_SECONDS:
            seconds, generate_s, _, _ = set_up_once(workload, seed, out_dir, generate)
            setup_s.append(seconds)
            generate_sums.append(generate_s)
            seconds, wrong = write_back(texts, trees)
            write_s.append(seconds)
            problems += wrong
        reply({"setup_s": setup_s, "generate_s": generate_sums,
               "write_s": write_s, "problems": problems})

    # deleting files slows the set-up that follows by up to 2x, so it
    # waits until the run is over; earlier runs' directories go too
    for old in out_dir.iterdir():
        if old.is_dir() and old != inputs_dir:
            shutil.rmtree(old)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    def reply(message):
        print(json.dumps(message), flush=True)

    serve(args.workload, args.seed, args.out, sys.stdin, reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
