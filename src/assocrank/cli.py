"""Command-line front end.

One declarative config file drives every subcommand; individual keys can be
overridden on the command line with repeated --set key=value flags. Outputs
are written atomically (temp file in the target directory, then rename) and
reports are deterministic for a fixed config and seed, with wall-clock
numbers confined to "timing" fields.

Config files are plain text: one `key = value` per line, # comments, values
parsed as JSON where possible (so lists and booleans work) and kept as
strings otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from assocrank import evaluation, pairs as pairs_mod, rerank as rerank_mod
from assocrank.embeddings import load_matrix, save_matrix
from assocrank.model import AssocModel, load_model, save_model, transform_matrix
from assocrank.rerank import RerankConfig
from assocrank.synthetic import SyntheticSpec, generate_full
from assocrank.training import TrainConfig, train


class CliError(Exception):
    pass


def parse_config_file(path: str) -> dict:
    cfg: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise CliError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            cfg[key.strip()] = _parse_value(value.strip())
    return cfg


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    for item in sets:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = _parse_value(value.strip())
    return cfg


def require(cfg: dict, key: str):
    if key not in cfg:
        raise CliError(f"missing required config key {key!r}")
    return cfg[key]


def _typed(cfg: dict, key: str, convert, default):
    """cfg[key] (or `default`) passed through `convert`; a value it rejects
    is a config error that names the key."""
    try:
        return convert(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise CliError(f"{key}: {exc}") from None


def _atomic_via(path: str, writer) -> None:
    """Run a file-path writer against a temp path, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    _atomic_via(path, lambda tmp: Path(tmp).write_bytes(text.encode("utf-8")))


def write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_texts(path: str) -> dict[str, str]:
    texts: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            if "passage_id" not in raw or "text" not in raw:
                raise CliError(f"{path}:{lineno}: texts need passage_id and text fields")
            texts[raw["passage_id"]] = raw["text"]
    return texts


def save_texts(texts: dict[str, str], path: str) -> None:
    buf = io.StringIO()
    for pid in sorted(texts):
        buf.write(json.dumps({"passage_id": pid, "text": texts[pid]}, sort_keys=True) + "\n")
    atomic_write_text(path, buf.getvalue())


def _train_config(cfg: dict) -> TrainConfig:
    mapping = {}
    for key, value in cfg.items():
        if key.startswith("train."):
            name = key[len("train."):]
            if name in ("report",):
                continue
            mapping[name] = value
    try:
        return TrainConfig.from_mapping(mapping)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad train config: {exc}") from None


def _rerank_config(cfg: dict) -> RerankConfig:
    config = RerankConfig(
        blend_lambda=_typed(cfg, "rerank.lambda", float, 0.50),
        pool_depth=_typed(cfg, "rerank.pool_depth", int, 100),
        cutoff=_typed(cfg, "rerank.cutoff", int, 5),
        mode=str(cfg.get("rerank.mode", "mixed_bidi")),
    )
    try:
        config.validate()
    except ValueError as exc:
        raise CliError(f"bad rerank config: {exc}") from None
    return config


def cmd_synth(cfg: dict) -> int:
    spec = SyntheticSpec(
        n_passages=_typed(cfg, "synth.n_passages", int, 5000),
        dim=_typed(cfg, "synth.dim", int, 64),
        n_questions=_typed(cfg, "synth.n_questions", int, 500),
        hops=_typed(cfg, "synth.hops", int, 2),
        bridge_offset_rank=_typed(cfg, "synth.bridge_offset_rank", int, 10),
        noise_scale=_typed(cfg, "synth.noise_scale", float, 0.1),
        n_clusters=(_typed(cfg, "synth.n_clusters", int, None) if "synth.n_clusters" in cfg else None),
        seed=_typed(cfg, "synth.seed", int, 42),
    )
    try:
        data = generate_full(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _atomic_via(require(cfg, "passages"), lambda p: save_matrix(data.passages, p))
    _atomic_via(require(cfg, "queries"), lambda p: save_matrix(data.queries, p))
    _atomic_via(require(cfg, "records"), lambda p: pairs_mod.save_records(data.records, p))
    if "texts" in cfg:
        save_texts(data.texts, cfg["texts"])
    print(
        json.dumps(
            {
                "passages": data.passages.rows,
                "queries": data.queries.rows,
                "records": len(data.records),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_pairs(cfg: dict) -> int:
    records = pairs_mod.load_records(require(cfg, "records"))
    pair_set = pairs_mod.extract_pairs(records)
    mode = str(cfg.get("pairs.split_mode", "transductive"))
    try:
        pair_set = pairs_mod.split_policy(pair_set, mode)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    transform = str(cfg.get("pairs.transform", "none"))
    if transform == "shuffled":
        pair_set = pairs_mod.shuffle_pairs(pair_set, _typed(cfg, "pairs.shuffle_seed", int, 0))
    elif transform == "similar_positives":
        passages = load_matrix(require(cfg, "passages"))
        count = _typed(cfg, "pairs.similar_count", int, len(pair_set.pairs))
        pair_set = pairs_mod.similar_positive_pairs(passages, count)
    elif transform != "none":
        raise CliError(f"unknown pairs.transform {transform!r}")
    _atomic_via(require(cfg, "pairs"), lambda p: pairs_mod.save_pairs(pair_set, p))
    print(json.dumps({"pairs": len(pair_set.pairs), "mode": mode, "transform": transform}, sort_keys=True))
    return 0


def cmd_train(cfg: dict) -> int:
    embeddings = load_matrix(require(cfg, "passages"))
    pair_set = pairs_mod.load_pairs(require(cfg, "pairs"))
    config = _train_config(cfg)
    model = AssocModel.initialize(embeddings.dim, seed=config.seed)
    try:
        model, report = train(model, pair_set, embeddings, config)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _atomic_via(require(cfg, "checkpoint"), lambda p: save_model(model, p))
    payload = report.to_json_dict()
    payload = {
        "epoch_losses": payload["epoch_losses"],
        "epochs_run": payload["epochs_run"],
        "final_train_accuracy": payload["final_train_accuracy"],
        "timing": {"wall_time": payload["wall_time"]},
    }
    if "train.report" in cfg:
        write_json(cfg["train.report"], payload)
    print(
        json.dumps(
            {
                "epochs_run": report.epochs_run,
                "final_train_accuracy": report.final_train_accuracy,
            },
            sort_keys=True,
        )
    )
    return 0


def _load_pipeline(cfg: dict):
    passages = load_matrix(require(cfg, "passages"))
    queries = load_matrix(require(cfg, "queries"), expect_dim=passages.dim)
    model = load_model(require(cfg, "checkpoint"))
    if model.dim != passages.dim:
        raise CliError(
            f"checkpoint dim {model.dim} does not match passage dim {passages.dim}"
        )
    config = _rerank_config(cfg)
    if config.pool_depth > passages.rows:
        raise CliError(
            f"rerank.pool_depth {config.pool_depth} exceeds corpus size {passages.rows}"
        )
    transformed = transform_matrix(model, passages, source=require(cfg, "passages"))
    return passages, queries, model, transformed, config


def cmd_rerank(cfg: dict) -> int:
    passages, queries, model, transformed, config = _load_pipeline(cfg)
    buf = io.StringIO()
    for i, qid in enumerate(queries.ids):
        result = rerank_mod.rerank_query(
            qid, queries.data[i], passages, transformed, model, config
        )
        buf.write(json.dumps(result.to_json_dict(passages.ids), sort_keys=True) + "\n")
    atomic_write_text(require(cfg, "rerank.out"), buf.getvalue())
    print(json.dumps({"queries": queries.rows, "cutoff": config.cutoff}, sort_keys=True))
    return 0


def _scored_pools(passages, queries, model, transformed, config):
    pools = []
    for i, qid in enumerate(queries.ids):
        pools.append(
            rerank_mod.score_pool(qid, queries.data[i], passages, transformed, model, config)
        )
    return pools


def cmd_eval(cfg: dict) -> int:
    started = time.perf_counter()
    passages, queries, model, transformed, config = _load_pipeline(cfg)
    records = pairs_mod.load_records(require(cfg, "records"))
    known = {rec.question_id for rec in records}
    missing = [qid for qid in queries.ids if qid not in known]
    if missing:
        raise CliError(f"no record for query {missing[0]!r}")
    texts = load_texts(cfg["texts"]) if "texts" in cfg else None
    ks = _typed(cfg, "eval.ks", lambda v: tuple(int(k) for k in v), [5, 10, 20])
    if max(ks) > config.pool_depth:
        raise CliError(f"eval.ks {list(ks)} exceed rerank.pool_depth {config.pool_depth}")
    pools = _scored_pools(passages, queries, model, transformed, config)

    dense_rankings = {}
    rerank_rankings = {}
    for pool in pools:
        dense_rankings[pool.query_id] = [passages.ids[r] for r in pool.rows]
        ranked = rerank_mod.rank_rows(pool, config.blend_lambda, len(pool.rows))
        rerank_rankings[pool.query_id] = [passages.ids[r] for r in ranked]

    eval_records = [rec for rec in records if rec.question_id in dense_rankings]
    baseline = evaluation.evaluate_system("dense", dense_rankings, eval_records, ks, texts)
    reranked = evaluation.evaluate_system("rerank", rerank_rankings, eval_records, ks, texts)
    report = evaluation.compare_systems(
        baseline,
        reranked,
        ks,
        resamples=_typed(cfg, "eval.resamples", int, 10000),
        seed=_typed(cfg, "eval.seed", int, 0),
    )
    movement = evaluation.rank_movement_report(baseline, reranked, config.pool_depth)
    payload = report.to_json_dict()
    payload["movement"] = movement.to_json_dict()
    payload["config"] = {
        "lambda": config.blend_lambda,
        "pool_depth": config.pool_depth,
        "mode": config.mode,
        "ks": list(ks),
    }
    payload["timing"] = {"wall_time": time.perf_counter() - started}
    write_json(require(cfg, "eval.out"), payload)
    print(
        json.dumps(
            {
                "dense_r5": baseline.recall_at[5],
                "rerank_r5": reranked.recall_at[5],
                "delta_r5": report.deltas[5]["delta"],
            },
            sort_keys=True,
        )
    )
    return 0


def _write_csv(path: str, rows: list[dict], columns: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def cmd_sweep(cfg: dict) -> int:
    passages, queries, model, transformed, config = _load_pipeline(cfg)
    records = pairs_mod.load_records(require(cfg, "records"))
    ks = _typed(cfg, "sweep.ks", lambda v: tuple(int(k) for k in v), [5, 10, 20])
    pools = _scored_pools(passages, queries, model, transformed, config)
    by_qid = {rec.question_id for rec in records}
    for pool in pools:
        if pool.query_id not in by_qid:
            raise CliError(f"no record for query {pool.query_id!r}")
    eval_records = [rec for rec in records if rec.question_id in {p.query_id for p in pools}]

    lambdas = _typed(
        cfg, "sweep.lambdas", lambda v: [float(x) for x in v], [0.0, 0.25, 0.5, 0.75, 1.0]
    )
    lam_rows = evaluation.lambda_sweep(pools, passages.ids, eval_records, lambdas, ks)
    _write_csv(
        require(cfg, "sweep.lambda_out"),
        lam_rows,
        ["lambda"] + [f"recall_at_{k}" for k in ks],
    )

    depths = _typed(cfg, "sweep.depths", lambda v: [int(x) for x in v], [10, 20, 50, 100])
    depth_rows = evaluation.pool_depth_sweep(
        pools, passages.ids, eval_records, depths, config.blend_lambda, ks
    )
    _write_csv(
        require(cfg, "sweep.depth_out"),
        depth_rows,
        ["depth", "gold_in_pool"] + [f"recall_at_{k}" for k in ks],
    )
    print(json.dumps({"lambdas": len(lam_rows), "depths": len(depth_rows)}, sort_keys=True))
    return 0


def cmd_bench(cfg: dict) -> int:
    passages = load_matrix(require(cfg, "passages"))
    queries = load_matrix(require(cfg, "queries"), expect_dim=passages.dim)
    model = load_model(require(cfg, "checkpoint"))
    if model.dim != passages.dim:
        raise CliError(
            f"checkpoint dim {model.dim} does not match passage dim {passages.dim}"
        )
    base = _rerank_config(cfg)
    depths = _typed(cfg, "bench.pool_depths", lambda v: [int(x) for x in v], [100, 200])
    n_queries = _typed(cfg, "bench.n_queries", int, min(32, queries.rows))
    if not 1 <= n_queries <= queries.rows:
        raise CliError(f"bench.n_queries {n_queries} out of range for {queries.rows} queries")
    warmup = _typed(cfg, "bench.warmup", int, 2)
    reps = _typed(cfg, "bench.reps", int, 3)
    transformed = transform_matrix(model, passages, source=require(cfg, "passages"))
    qs = queries.data[:n_queries]
    results = {}
    for depth in depths:
        if depth > passages.rows:
            raise CliError(f"bench depth {depth} exceeds corpus size {passages.rows}")
        config = RerankConfig(
            blend_lambda=base.blend_lambda,
            pool_depth=depth,
            cutoff=min(base.cutoff, depth),
            mode=base.mode,
        )
        stats = evaluation.latency_bench(
            model, passages, transformed, config, qs, warmup=warmup, reps=reps
        )
        results[str(depth)] = stats.to_json_dict()
    payload = {
        "depths": results,
        "n_queries": n_queries,
        "reps": reps,
        "warmup": warmup,
    }
    write_json(require(cfg, "bench.out"), payload)
    print(json.dumps({"depths": depths, "queries": n_queries}, sort_keys=True))
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "pairs": cmd_pairs,
    "train": cmd_train,
    "rerank": cmd_rerank,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assocrank",
        description="Associative reranking pipeline: corpus synthesis, pair "
        "derivation, training, reranking, evaluation, sweeps, latency.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg: dict = {}
        if args.config:
            cfg = parse_config_file(args.config)
        apply_overrides(cfg, args.set)
        return COMMANDS[args.command](cfg)
    except CliError as exc:
        print(f"error: config: {_one_line(exc)}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: missing-file: {_one_line(exc)}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, RuntimeError, OSError, FloatingPointError) as exc:
        print(f"error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return 1


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
