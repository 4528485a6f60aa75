"""Workloads, timed phases and output checks of the assocrank benchmark.

Every workload runs the same pipeline through the public API, in one
process with one client in a closed loop (each call starts when the previous
one has returned):

    inputs   generate_full + extract_pairs from the workload seed
    train    train() at the README train config
    setup    load_matrix (passages, queries) + load_model + transform_matrix
    query    rerank_query over all queries (lambda 0.5, depth 100, cutoff 5)
    eval     assocrank.cli.main(["eval", ...]) over all queries

Workloads differ in corpus size, in how often each phase repeats, and in
which phase also runs for a budget of a multiple of --seconds. After timing, every output is
checked against a float64 oracle and against the eval path; a call that
raises or disagrees counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from assocrank import cli, embeddings, evaluation, model, pairs, rerank, synthetic, training
from oracle import TOL, Oracle
from tracing import Tracer, summarize

README_SEED = 42  # synth.seed of the README config
README_DELTA_R5 = 0.328  # eval's delta R@5 on the README config
README_TRAIN = {
    "batch_size": 128,
    "temperature": 0.2,
    "epochs": 300,
    "learning_rate": 3e-4,
    "weight_decay": 10.0,
    "seed": 0,
}
README_RERANK = {"blend_lambda": 0.5, "pool_depth": 100, "cutoff": 5, "mode": "mixed_bidi"}
N_QUESTIONS = 500
DIM = 64

# The timed phases are interleaved over many short rounds. On a shared
# machine the speed switches between a fast and a slow state for seconds at
# a time; sampling every phase in many short windows across the run keeps
# the share of slow samples close to its long-run value.
MIN_QUERY_SAMPLES = 1000  # at least ten samples lie beyond the run's pooled p99
P99_BLOCK = 500  # at least five samples lie beyond each block's p99
WARMUP_QUERIES = 20
TRAIN_OVERHEAD_ORDER = (False, True, True, False, False, True)  # traced? per train() run


@dataclass(frozen=True)
class Workload:
    name: str
    n_passages: int
    rounds: int
    main: str  # phase that also runs until its samples add up to budget x --seconds
    budget: float
    setup_phase: str  # phase whose median is setup_s: "setup" or "inputs"
    reps: dict  # phase -> minimum runs (for "query": calls), spread evenly over the rounds

    def reps_in_round(self, phase: str, round_: int) -> int:
        n, r = self.reps[phase], self.rounds
        return math.ceil((round_ + 1) * n / r) - math.ceil(round_ * n / r)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("query-5k", 5_000, 16, "query", 2.0, "setup",
                 {"inputs": 1, "train": 1, "setup": 16, "query": MIN_QUERY_SAMPLES, "eval": 6}),
        Workload("query-100k", 100_000, 6, "query", 1.0, "setup",
                 {"inputs": 1, "train": 1, "setup": 3, "query": 3 * MIN_QUERY_SAMPLES // 2, "eval": 2}),
        Workload("train-5k", 5_000, 8, "train", 1.0, "inputs",
                 {"inputs": 16, "train": 3, "setup": 8, "query": 4 * MIN_QUERY_SAMPLES, "eval": 4}),
    )
}


def product_api() -> SimpleNamespace:
    """The public functions the benchmark drives (README "Library use" and the CLI)."""
    return SimpleNamespace(
        generate_full=synthetic.generate_full,
        extract_pairs=pairs.extract_pairs,
        train=training.train,
        load_matrix=embeddings.load_matrix,
        load_model=model.load_model,
        transform_matrix=model.transform_matrix,
        rerank_query=rerank.rerank_query,
        cli_main=cli.main,
    )


def trace_sites(api: SimpleNamespace) -> list[tuple]:
    """(owner, attribute, span name, root) for every wrapped call site."""
    return [
        # calls the benchmark itself makes
        (api, "generate_full", "synthetic.generate_full", False),
        (api, "extract_pairs", "pairs.extract_pairs", False),
        (api, "train", "training.train", True),
        (api, "load_matrix", "embeddings.load_matrix", False),
        (api, "load_model", "model.load_model", False),
        (api, "transform_matrix", "model.transform_matrix", False),
        (api, "rerank_query", "rerank.rerank_query", True),
        (api, "cli_main", "cli.eval", True),
        # public functions where the product imports them
        (rerank, "score_pool", "rerank.score_pool", False),
        (rerank, "rank_rows", "rerank.rank_rows", False),
        (rerank, "top_k", "search.top_k", False),
        (rerank, "forward", "model.forward", False),
        (training, "backward", "training.step", True),
        (training, "forward_batch", "model.forward_batch", False),
        (training, "backward_batch", "model.backward_batch", False),
        (training, "symmetric_ce_loss", "training.symmetric_ce_loss", False),
        (training, "training_accuracy", "training.training_accuracy", False),
        (training.AdamW, "step", "training.adamw_step", False),
        (cli, "load_matrix", "embeddings.load_matrix", False),
        (cli, "load_model", "model.load_model", False),
        (cli, "transform_matrix", "model.transform_matrix", False),
        (evaluation, "evaluate_system", "evaluation.evaluate_system", False),
        (evaluation, "compare_systems", "evaluation.compare_systems", False),
        (evaluation, "rank_movement_report", "evaluation.rank_movement_report", False),
    ]


class Ops:
    """Operations attempted and failed, per phase, with the first failure reasons."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.reasons: list[str] = []

    def record(self, phase: str, error: str | None) -> None:
        entry = self.counts.setdefault(phase, [0, 0])
        entry[0] += 1
        if error is not None:
            entry[1] += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{phase}: {error}")

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


def build_inputs(api: SimpleNamespace, workload: Workload, seed: int):
    """Corpus, queries, records and co-occurrence pairs for one workload seed."""
    spec = synthetic.SyntheticSpec(
        n_passages=workload.n_passages, dim=DIM, n_questions=N_QUESTIONS, seed=seed
    )
    data = api.generate_full(spec)
    return data, api.extract_pairs(data.records)


def input_digest(data, pair_set) -> str:
    """sha256 over everything the product receives as input."""
    h = hashlib.sha256()
    for matrix in (data.passages, data.queries):
        h.update("\n".join(matrix.ids).encode())
        h.update(np.ascontiguousarray(matrix.data, dtype="<f4").tobytes())
    for rec in data.records:
        h.update(json.dumps(rec.to_json_dict(), sort_keys=True).encode())
    h.update(json.dumps(data.texts, sort_keys=True).encode())
    h.update(json.dumps(pair_set.pairs).encode())
    return h.hexdigest()


def param_bytes(m) -> bytes:
    return b"".join(np.ascontiguousarray(arr).tobytes() for _, arr in m.param_items())


def write_inputs(data, trained, workdir: str) -> dict[str, str]:
    paths = {
        "passages": os.path.join(workdir, "passages.aare"),
        "queries": os.path.join(workdir, "queries.aare"),
        "records": os.path.join(workdir, "records.jsonl"),
        "texts": os.path.join(workdir, "texts.jsonl"),
        "checkpoint": os.path.join(workdir, "model.aarm"),
        "eval.out": os.path.join(workdir, "eval.json"),
    }
    embeddings.save_matrix(data.passages, paths["passages"])
    embeddings.save_matrix(data.queries, paths["queries"])
    pairs.save_records(data.records, paths["records"])
    with open(paths["texts"], "w", encoding="utf-8") as fh:
        for pid in sorted(data.texts):
            fh.write(json.dumps({"passage_id": pid, "text": data.texts[pid]}, sort_keys=True) + "\n")
    model.save_model(trained, paths["checkpoint"])
    return paths


def eval_argv(paths: dict[str, str]) -> list[str]:
    settings = dict(paths)
    settings.update(
        {
            "rerank.lambda": README_RERANK["blend_lambda"],
            "rerank.pool_depth": README_RERANK["pool_depth"],
            "rerank.cutoff": README_RERANK["cutoff"],
            "rerank.mode": README_RERANK["mode"],
        }
    )
    argv = ["eval"]
    for key, value in settings.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def block_p99(samples: np.ndarray, round_sizes: list[int], min_block: int = P99_BLOCK):
    """Median of the p99s of blocks of consecutive rounds, each block holding at
    least `min_block` samples (a short last block joins the one before it).

    The slowest samples come in spells of a second or two; such a spell then
    sets the tail of one block, not of the run. Returns (p99, number of blocks)."""
    blocks, start, size = [], 0, 0
    for n in round_sizes:
        size += n
        if size >= min_block:
            blocks.append((start, start + size))
            start, size = start + size, 0
    if size:
        if blocks:
            blocks[-1] = (blocks[-1][0], start + size)
        else:
            blocks.append((start, start + size))
    p99s = [np.percentile(samples[a:b], 99) for a, b in blocks if b > a]
    return (median(p99s), len(p99s)) if p99s else (float("nan"), 0)


def array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()


class Run:
    """One benchmark run: timed (trace off) or traced (trace on)."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, workdir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.api = product_api()
        self.config = rerank.RerankConfig(**README_RERANK)
        self.tracer = Tracer()
        self.ops = Ops()
        self.times: dict[str, list[float]] = {"query": []}
        self.query_rounds: list[int] = []  # timed query samples taken in each round
        self.info: dict = {}
        self.first: dict[str, object] = {}  # first output of each phase; repeats must match it
        self.data = self.pair_set = self.model = self.report = self.loaded = self.paths = None
        self.refs: list = []  # first rerank_query result per query
        self.calls: list[tuple[int, str | None]] = []  # (query index, error) per call
        self.evals: list[tuple] = []  # (exit code, eval.json without timing, captured rankings)
        self.cursor = 0

    def traced(self):
        if self.trace:
            return self.tracer.patched(trace_sites(self.api))
        return contextlib.nullcontext()

    def timed(self, phase: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.times.setdefault(phase, []).append(time.perf_counter() - start)
        return out

    def same(self, what: str, value) -> str | None:
        """None when `value` equals the first value seen for `what`."""
        first = self.first.setdefault(what, value)
        return None if value == first else f"{what} differs between repeats"

    # -- phases -------------------------------------------------------------

    def phase_inputs(self, reps: int):
        for _ in range(reps):
            data, pair_set = self.timed("inputs", build_inputs, self.api, self.workload, self.seed)
            self.ops.record("inputs", self.same("inputs", input_digest(data, pair_set)))
            if self.data is None:
                self.data, self.pair_set = data, pair_set

    def phase_train(self, reps: int, until: float = 0.0, phase: str = "train"):
        """`reps` train() runs, more while all runs so far took under `until` seconds."""
        config = training.TrainConfig(**README_TRAIN)
        done = 0
        while done < reps or sum(self.times.get(phase, ())) < until:
            init = model.AssocModel.initialize(self.data.passages.dim, seed=config.seed)
            trained, report = self.timed(phase, self.api.train, init, self.pair_set, self.data.passages, config)
            if not all(math.isfinite(x) for x in report.epoch_losses):
                error = "non-finite training loss"
            elif report.final_train_accuracy is None:
                error = "no final training accuracy"
            else:
                error = self.same("trained parameters", param_bytes(trained))
            self.ops.record("train", error)
            if self.model is None:
                self.model, self.report = trained, report
            done += 1

    def one_setup(self):
        passages = self.api.load_matrix(self.paths["passages"])
        queries = self.api.load_matrix(self.paths["queries"], passages.dim)
        loaded = self.api.load_model(self.paths["checkpoint"])
        transformed = self.api.transform_matrix(loaded, passages, self.paths["passages"])
        return passages, queries, loaded, transformed

    def phase_setup(self, reps: int):
        for _ in range(reps):
            loaded = self.timed("setup", self.one_setup)
            self.ops.record("setup", self.same("transformed matrix", array_digest(loaded[3].data)))
            if self.loaded is None:
                self.loaded = loaded

    def one_query(self, i: int) -> float | None:
        """Run query i; return its wall time, or None if it raised."""
        passages, queries, loaded, transformed = self.loaded
        start = time.perf_counter()
        try:
            result = self.api.rerank_query(queries.ids[i], queries.data[i], passages, transformed, loaded, self.config)
        except Exception as exc:  # a failed query is counted, not fatal
            self.calls.append((i, f"{type(exc).__name__}: {exc}"))
            return None
        elapsed = time.perf_counter() - start
        if self.refs[i] is None:
            self.refs[i] = result
        same = result.entries == self.refs[i].entries
        self.calls.append((i, None if same else "ranking differs between calls"))
        return elapsed

    def phase_query(self, reps: int, until: float = 0.0):
        """`reps` queries, more while all timed queries so far took under `until`
        seconds, cycling over all queries."""
        n = self.loaded[1].rows
        spent = sum(self.times["query"])
        done = 0
        while done < reps or spent < until:
            elapsed = self.one_query(self.cursor % n)
            if elapsed is not None:
                self.times["query"].append(elapsed)
                spent += elapsed
            self.cursor += 1
            done += 1

    def phase_eval(self, reps: int):
        argv = eval_argv(self.paths)
        real_evaluate = evaluation.evaluate_system
        captured: dict = {}

        def capture(system, rankings, *args, **kwargs):
            captured[system] = rankings
            return real_evaluate(system, rankings, *args, **kwargs)

        evaluation.evaluate_system = capture
        try:
            for _ in range(reps):
                captured = {}
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = self.timed("eval", self.api.cli_main, argv)
                    except Exception as exc:  # a failed eval is counted, not fatal
                        code = f"{type(exc).__name__}: {exc}"
                payload = None
                if code == 0:
                    with open(self.paths["eval.out"], encoding="utf-8") as fh:
                        payload = json.load(fh)
                    payload.pop("timing", None)
                self.evals.append((code, payload, captured))
        finally:
            evaluation.evaluate_system = real_evaluate

    # -- whole runs ---------------------------------------------------------

    def execute(self) -> dict:
        """Run every phase, check the outputs, and return the metrics."""
        w = self.workload
        if self.trace:
            self.execute_traced()
        else:
            for round_ in range(w.rounds):
                reps = {phase: w.reps_in_round(phase, round_) for phase in w.reps}
                # the main phase keeps pace with its budget spread evenly over the rounds
                until = {w.main: w.budget * self.seconds * (round_ + 1) / w.rounds}
                self.phase_inputs(reps["inputs"])
                self.phase_train(reps["train"], until.get("train", 0.0))
                if round_ == 0:
                    self.start_serving()
                self.phase_setup(reps["setup"])
                before = len(self.times["query"])
                self.phase_query(reps["query"], until.get("query", 0.0))
                self.query_rounds.append(len(self.times["query"]) - before)
                self.phase_eval(reps["eval"])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        recall5 = self.check()
        samples_ms = np.asarray(self.times["query"], dtype=np.float64) * 1e3
        p99, p99_blocks = block_p99(samples_ms, self.query_rounds or [samples_ms.size])
        self.info["samples"] = {
            "query": int(samples_ms.size),
            "query_p50_ms": float(np.percentile(samples_ms, 50)) if samples_ms.size else None,
            "query_pooled_p99_ms": float(np.percentile(samples_ms, 99)) if samples_ms.size else None,
            "query_p99_blocks": p99_blocks,
            **{phase: [round(t, 6) for t in v] for phase, v in self.times.items() if not phase.startswith("query")},
        }
        if self.trace:
            metrics = self.layer_metrics()
        else:
            metrics = {
                "setup_s": (median(self.times[w.setup_phase]), "s"),
                # The mean moves smoothly with the share of samples taken in the
                # machine's slow state; the median jumps between the two states
                # when that share is near half.
                "query_mean_ms": (float(samples_ms.mean()) if samples_ms.size else float("nan"), "ms"),
                "query_p99_ms": (p99, "ms"),
                "eval_qps": (self.loaded[1].rows * len(self.times["eval"]) / sum(self.times["eval"]), "1/s"),
                "train_s": (median(self.times["train"]), "s"),
                "rerank_recall_at_5": (recall5, "ratio"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    def start_serving(self):
        """Write the inputs and checkpoint to files, load them once, warm up."""
        self.paths = write_inputs(self.data, self.model, self.workdir)
        self.phase_setup(1)
        self.refs = [None] * self.loaded[1].rows
        for i in range(min(WARMUP_QUERIES, self.loaded[1].rows)):
            self.one_query(i)

    def execute_traced(self):
        """Every phase once under the tracer; training and queries also untraced, for the overhead."""
        with self.traced():
            self.phase_inputs(1)
        # train() runs untraced and traced in pairs, alternating which goes
        # first, so drift cancels out in the median difference
        for traced in TRAIN_OVERHEAD_ORDER:
            with self.traced() if traced else contextlib.nullcontext():
                self.phase_train(1, phase="train" if traced else "train.untraced")
        self.start_serving()
        with self.traced():
            self.phase_setup(1)
        # each query runs untraced and traced, alternating which goes first,
        # so drift during the pass cancels out
        untraced = self.times["query.untraced"] = []
        for i in range(self.loaded[1].rows):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                with self.traced() if traced else contextlib.nullcontext():
                    elapsed = self.one_query(i)
                if elapsed is not None:
                    (self.times["query"] if traced else untraced).append(elapsed)
        with self.traced():
            self.phase_eval(1)

    # -- checks -------------------------------------------------------------

    def check(self) -> float:
        """Check every output against the oracle and the eval path; returns blended recall@5."""
        data = self.data
        oracle = Oracle(
            data.passages.data, self.paths["checkpoint"], README_RERANK["blend_lambda"], README_RERANK["pool_depth"]
        )
        row_of = {pid: i for i, pid in enumerate(data.passages.ids)}
        gold = {rec.question_id: rec.gold_passage_ids for rec in data.records}
        good_evals = [e for e in self.evals if e[0] == 0]
        ranked = good_evals[0][2] if good_evals else {}
        eval_rerank, eval_dense = ranked.get("rerank", {}), ranked.get("dense", {})

        query_error: list[str | None] = []
        dense_errors = 0
        max_error = 0.0
        hits = []
        in_pool = [0, 0]
        for i, (qid, truth) in enumerate(zip(data.queries.ids, oracle.rank_many(data.queries.data))):
            ref = self.refs[i]
            if ref is None:
                query_error.append("every call raised")
                continue
            rows = [e.passage_row for e in ref.entries]
            error = truth.rerank_error(rows)
            score_error = max(
                max(abs(e.sim - truth.sims[e.passage_row]), abs(e.assoc - truth.assocs[e.passage_row]),
                    abs(e.blended - truth.blended[e.passage_row]))
                for e in ref.entries
            )
            max_error = max(max_error, score_error)
            if error is None and score_error > TOL:
                error = f"scores off the oracle by {score_error:.3g}"
            if error is None and qid in eval_rerank:
                if [row_of[p] for p in eval_rerank[qid][: len(rows)]] != rows:
                    error = "top-5 differs from the eval path's ranking"
            query_error.append(error)
            if qid in eval_dense:
                if truth.dense_error([row_of[p] for p in eval_dense[qid]]) is not None:
                    dense_errors += 1
                in_pool[0] += len(set(gold[qid]) & set(eval_dense[qid]))
                in_pool[1] += len(gold[qid])
            top = {data.passages.ids[r] for r in rows}
            hits.append(len(top & set(gold[qid])) / len(gold[qid]))
        for i, error in self.calls:
            self.ops.record("query", error or query_error[i])

        recall5 = float(np.mean(hits)) if hits else 0.0
        readme = self.seed == README_SEED and self.workload.n_passages == synthetic.SyntheticSpec().n_passages
        for code, payload, captured in self.evals:
            if code != 0:
                error = f"eval exited with {code}"
            elif payload != good_evals[0][1]:
                error = "eval.json differs between repeats"
            elif captured != ranked:
                error = "eval rankings differ between repeats"
            elif set(captured) != {"dense", "rerank"}:
                error = "eval did not rank both systems"
            elif dense_errors:
                error = f"{dense_errors} dense pools disagree with the oracle"
            elif not math.isclose(payload["systems"]["rerank"]["recall_at"]["5"], recall5, abs_tol=1e-9):
                error = "eval's rerank R@5 differs from rerank_query's"
            elif readme and round(payload["deltas"]["5"]["delta"], 3) != README_DELTA_R5:
                error = f"delta R@5 {payload['deltas']['5']['delta']} is not the README's {README_DELTA_R5}"
            else:
                error = None
            self.ops.record("eval", error)

        transformed = self.loaded[3].data
        self.gold_in_pool = in_pool[0] / in_pool[1] if in_pool[1] else 0.0
        self.info.update(
            {
                "inputs": {
                    "digest": self.first["inputs"],
                    "passages": data.passages.rows,
                    "queries": data.queries.rows,
                    "pairs": len(self.pair_set.pairs),
                },
                "train": {
                    "final_loss": self.report.epoch_losses[-1] if self.report.epoch_losses else None,
                    "final_train_accuracy": self.report.final_train_accuracy,
                },
                "checks": {
                    "max_score_error": max_error,
                    "delta_r5": good_evals[0][1]["deltas"]["5"]["delta"] if good_evals else None,
                    "readme_delta_checked": readme,
                    "degenerate_rows": int((~transformed.any(axis=1)).sum()),
                },
                "ops": self.ops.counts,
                "failures": self.ops.reasons,
            }
        )
        return recall5

    def layer_metrics(self) -> dict:
        stats = summarize(self.tracer.spans)

        def mean(name, scale):
            return stats[name].mean_s * scale if name in stats else 0.0

        def self_mean(name, scale):
            return stats[name].mean_self_s * scale if name in stats else 0.0

        def calls(name):
            return stats[name].calls if name in stats else 0

        n_queries = max(len(self.times["query"]), 1)
        query_overhead = (sum(self.times["query"]) - sum(self.times["query.untraced"])) / n_queries
        trains = len(self.times["train"])  # traced train() runs; counts are per run
        train_overhead = median(np.subtract(self.times["train"], self.times["train.untraced"]))
        bytes_read = os.path.getsize(self.paths["passages"]) + os.path.getsize(self.paths["queries"])
        return {
            "search.top_k.ms": (mean("search.top_k", 1e3), "ms"),
            "search.top_k.calls": (calls("search.top_k"), "count"),
            "model.forward.ms": (mean("model.forward", 1e3), "ms"),
            "model.transform_matrix.s": (mean("model.transform_matrix", 1), "s"),
            "model.load_model.s": (mean("model.load_model", 1), "s"),
            "model.forward_batch.ms": (mean("model.forward_batch", 1e3), "ms"),
            "model.forward_batch.calls": (calls("model.forward_batch") // trains, "count"),
            "model.backward_batch.ms": (mean("model.backward_batch", 1e3), "ms"),
            "training.adamw_step.ms": (mean("training.adamw_step", 1e3), "ms"),
            "training.symmetric_ce_loss.ms": (mean("training.symmetric_ce_loss", 1e3), "ms"),
            "training.steps": (calls("training.adamw_step") // trains, "count"),
            "training.training_accuracy.s": (mean("training.training_accuracy", 1), "s"),
            "rerank.rerank_query.self_ms": (self_mean("rerank.rerank_query", 1e3), "ms"),
            "rerank.score_pool.ms": (mean("rerank.score_pool", 1e3), "ms"),
            "rerank.rank_rows.ms": (mean("rerank.rank_rows", 1e3), "ms"),
            "rerank.gold_in_pool": (self.gold_in_pool, "ratio"),
            "embeddings.load_matrix.s": (mean("embeddings.load_matrix", 1), "s"),
            "embeddings.bytes_read": (bytes_read, "bytes"),
            "evaluation.evaluate_system.s": (mean("evaluation.evaluate_system", 1), "s"),
            "evaluation.compare_systems.s": (mean("evaluation.compare_systems", 1), "s"),
            "evaluation.rank_movement_report.s": (mean("evaluation.rank_movement_report", 1), "s"),
            "pairs.extract_pairs.s": (mean("pairs.extract_pairs", 1), "s"),
            "pairs.count": (len(self.pair_set.pairs), "count"),
            "cli.eval.self_s": (self_mean("cli.eval", 1), "s"),
            "trace.query_overhead_ms": (query_overhead * 1e3, "ms"),
            "trace.train_overhead_s": (train_overhead, "s"),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.tracer.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.trace]) + "\n")
