"""Command-line front end.

One declarative config file drives every subcommand; individual keys can be
overridden on the command line with repeated --set key=value flags. Outputs
are written atomically by the library's savers and `write_atomic` (temp file
in the target directory, then rename) and reports are deterministic for a
fixed config and seed, with wall-clock numbers confined to "timing" fields.

Config files are plain text: one `key = value` per line, # comments, values
parsed as JSON where possible (so lists and booleans work) and kept as
strings otherwise.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from assocrank import evaluation, pairs as pairs_mod, rerank as rerank_mod
from assocrank.embeddings import load_matrix, save_matrix, write_atomic
from assocrank.model import AssocModel, load_model, save_model, transform_matrix
from assocrank.rerank import RerankConfig
from assocrank.synthetic import SyntheticSpec, generate_full
from assocrank.training import PairSetError, TrainConfig, train


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
    except ValueError:  # not JSON, or an integer of more digits than int() converts
        return raw


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    for item in sets:
        if "=" not in item:
            raise CliError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = _parse_value(value.strip())
    return cfg


def require(cfg: dict, key: str) -> str:
    """The path set by `key`; a missing or non-string value is a config error."""
    if key not in cfg:
        raise CliError(f"missing required config key {key!r}")
    return _check(key, cfg[key], "str")


def _check(key: str, value, kind: str):
    """`value` checked as the annotated type `kind` by `pairs.check_type`; a
    mismatch is a config error naming `key`."""
    try:
        return pairs_mod.check_type(key, value, kind)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _typed(cfg: dict, key: str, kind: str, default):
    """cfg[key] checked as the type named `kind`, or `default` if it is unset."""
    return _check(key, cfg[key], kind) if key in cfg else default


def _refuse_unknown(cfg: dict, prefix: str, names: tuple[str, ...]) -> None:
    """A config error for the first `<prefix>.*` key not named in `names`."""
    for key in cfg:
        name = key.removeprefix(prefix + ".")
        if name != key and name not in names:
            raise CliError(f"unknown config key {key!r}")


def _section(cfg: dict, prefix: str, cls, skip=(), renamed=None):
    """The dataclass `cls`, validated, from its defaults and the `<prefix>.*` keys.

    Each value must match its field's (string) annotation. `renamed` maps a
    field to the key that sets it; keys in `skip` belong to the command, and
    any other key that names no field is an error.
    """
    renamed = renamed or {}
    by_name = {renamed.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    _refuse_unknown(cfg, prefix, (*by_name, *skip))
    values = {}
    for key, value in cfg.items():
        name = key.removeprefix(prefix + ".")
        if name != key and name in by_name:
            values[by_name[name].name] = _check(key, value, by_name[name].type)
    config = cls(**values)
    try:
        config.validate()
    except ValueError as exc:
        raise CliError(f"bad {prefix} config: {exc}") from None
    return config


# the float reprs that JSON spells otherwise
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_json(path: str, payload: dict) -> None:
    """Write `json.dumps(payload, sort_keys=True, indent=2)` and a newline,
    byte for byte, in one pass that skips `json`'s pure-Python encoder."""
    parts: list[str] = []
    _json_parts(payload, parts, "\n")
    parts.append("\n")
    write_atomic(path, "".join(parts).encode("utf-8"))


def _json_parts(value, parts: list[str], indent: str) -> None:
    """Append `value`'s indent=2, sorted-key JSON text to `parts`; `indent`
    is a newline and the spaces of the enclosing level.

    The type checks go in the order of `json`'s encoder, so a subclass is
    written as that encoder writes it; tuples are written as lists. A dict
    key that is not a string (the string encoder refuses it), and a value of
    any other type, raise TypeError.
    """
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        parts.append(_NON_FINITE.get(text, text))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            sep = "," + inner
            _json_parts(item, parts, inner)
        parts.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _json_parts(value[key], parts, inner)
        parts.append(indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _rerank_config(cfg: dict) -> RerankConfig:
    return _section(cfg, "rerank", RerankConfig, skip=("out",), renamed={"blend_lambda": "lambda"})


def cmd_synth(cfg: dict) -> int:
    spec = _section(cfg, "synth", SyntheticSpec)
    texts_path = _typed(cfg, "texts", "str", None)
    try:
        data = generate_full(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    save_matrix(data.passages, require(cfg, "passages"))
    save_matrix(data.queries, require(cfg, "queries"))
    pairs_mod.save_records(data.records, require(cfg, "records"))
    if texts_path is not None:
        pairs_mod.save_texts(data.texts, texts_path)
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
    _refuse_unknown(cfg, "pairs", ("split_mode", "transform", "shuffle_seed"))
    records = pairs_mod.load_records(require(cfg, "records"))
    pair_set = pairs_mod.extract_pairs(records)
    mode = _typed(cfg, "pairs.split_mode", "str", "transductive")
    try:
        pair_set = pairs_mod.split_policy(pair_set, mode)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    transform = _typed(cfg, "pairs.transform", "str", "none")
    if transform == "shuffled":
        pair_set = pairs_mod.shuffle_pairs(pair_set, _typed(cfg, "pairs.shuffle_seed", "int", 0))
    elif transform == "similar_positives":
        passages = load_matrix(require(cfg, "passages"))
        pair_set = pairs_mod.similar_positive_pairs(passages, len(pair_set.pairs))
    elif transform != "none":
        raise CliError(f"unknown pairs.transform {transform!r}")
    pairs_mod.save_pairs(pair_set, require(cfg, "pairs"))
    print(json.dumps({"pairs": len(pair_set.pairs), "mode": mode, "transform": transform}, sort_keys=True))
    return 0


def cmd_train(cfg: dict) -> int:
    config = _section(cfg, "train", TrainConfig, skip=("report",))
    report_path = _typed(cfg, "train.report", "str", None)
    embeddings = load_matrix(require(cfg, "passages"))
    pairs_path = require(cfg, "pairs")
    pair_set = pairs_mod.load_pairs(pairs_path)
    model = AssocModel.initialize(embeddings.dim, seed=config.seed)
    try:
        model, report = train(model, pair_set, embeddings, config)
    except PairSetError as exc:
        raise ValueError(f"{pairs_path}: {exc}") from None
    except ValueError as exc:
        raise CliError(str(exc)) from None
    save_model(model, require(cfg, "checkpoint"))
    if report_path is not None:
        write_json(report_path, report.to_json_dict())
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


def _load_inputs(cfg: dict):
    """(passages, queries, model), with the queries' and the checkpoint's
    dim checked against the passages'."""
    passages = load_matrix(require(cfg, "passages"))
    queries = load_matrix(require(cfg, "queries"), expect_dim=passages.dim)
    model = load_model(require(cfg, "checkpoint"))
    if model.dim != passages.dim:
        raise CliError(
            f"checkpoint dim {model.dim} does not match passage dim {passages.dim}"
        )
    return passages, queries, model


def _load_pipeline(cfg: dict):
    config = _rerank_config(cfg)
    passages, queries, model = _load_inputs(cfg)
    if config.pool_depth > passages.rows:
        raise CliError(
            f"rerank.pool_depth {config.pool_depth} exceeds corpus size {passages.rows}"
        )
    transformed = transform_matrix(model, passages, source=require(cfg, "passages"))
    return passages, queries, model, transformed, config


def cmd_rerank(cfg: dict) -> int:
    passages, queries, model, transformed, config = _load_pipeline(cfg)
    scored = rerank_mod.score_pool(queries.ids, queries.data, passages, transformed, model, config)
    buf = io.StringIO()
    for result in rerank_mod.ranked_results(scored, config):
        buf.write(json.dumps(result.to_json_dict(passages.ids), sort_keys=True) + "\n")
    write_atomic(require(cfg, "rerank.out"), buf.getvalue().encode("utf-8"))
    print(json.dumps({"queries": queries.rows, "cutoff": config.cutoff}, sort_keys=True))
    return 0


def _scored_queries(cfg: dict, ks_key: str, required_k: int | None = None, texts: bool = False):
    """(passages, config, ks, scored, records, texts): the loaded pipeline,
    the ks set by `ks_key` (which must include `required_k`, if given), the
    queries' scored pools, those queries' records and, if `texts` is set,
    the texts file's texts (None when the config names none). The texts are
    loaded and checked before any query is scored."""
    passages, queries, model, transformed, config = _load_pipeline(cfg)
    records = pairs_mod.load_records(require(cfg, "records"))
    known = {rec.question_id for rec in records}
    missing = [qid for qid in queries.ids if qid not in known]
    if missing:
        raise CliError(f"no record for query {missing[0]!r}")
    ks = tuple(_typed(cfg, ks_key, "list[int]", evaluation.DEFAULT_KS))
    if not ks or min(ks) < 1:
        raise CliError(f"{ks_key} must be a non-empty list of ks >= 1, got {list(ks)}")
    if max(ks) > config.pool_depth:
        raise CliError(f"{ks_key} {list(ks)} exceed rerank.pool_depth {config.pool_depth}")
    if required_k is not None and required_k not in ks:
        raise CliError(f"{ks_key} {list(ks)} must include the hit cutoff {required_k}")
    texts_by_id = _load_texts(cfg, passages.ids) if texts else None
    scored = rerank_mod.score_pool(queries.ids, queries.data, passages, transformed, model, config)
    asked = set(queries.ids)
    records = [rec for rec in records if rec.question_id in asked]
    return passages, config, ks, scored, records, texts_by_id


def _load_texts(cfg: dict, passage_ids: list[str]) -> dict[str, str] | None:
    """The texts named by the `texts` key, or None if it is unset; a file
    without a text for some passage is rejected, naming the first one."""
    path = _typed(cfg, "texts", "str", None)
    if path is None:
        return None
    texts = pairs_mod.load_texts(path)
    missing = next((pid for pid in passage_ids if pid not in texts), None)
    if missing is not None:
        raise ValueError(f"{path}: no text for passage {missing!r}")
    return texts


def cmd_eval(cfg: dict) -> int:
    started = time.perf_counter()
    _refuse_unknown(cfg, "eval", ("ks", "resamples", "seed", "out"))
    passages, config, ks, scored, records, texts = _scored_queries(
        cfg, "eval.ks", evaluation.HIT_K, texts=True
    )
    ranked = rerank_mod.rank_rows(scored, config.blend_lambda, config.pool_depth)
    # each system's ranked ids in one take, as lists of str
    ids = np.array(passages.ids, dtype=object)
    dense_rankings, rerank_rankings = (
        dict(zip(scored.query_ids, ids[rows].tolist())) for rows in (scored.rows, ranked)
    )
    normalized: dict[str, str] = {}  # each text's qa_normalize form, for both systems
    baseline = evaluation.evaluate_system("dense", dense_rankings, records, ks, texts, normalized)
    reranked = evaluation.evaluate_system("rerank", rerank_rankings, records, ks, texts, normalized)
    report = evaluation.compare_systems(
        baseline,
        reranked,
        ks,
        resamples=_typed(cfg, "eval.resamples", "int", 10000),
        seed=_typed(cfg, "eval.seed", "int", 0),
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
                "dense_r5": baseline.recall_at[evaluation.HIT_K],
                "rerank_r5": reranked.recall_at[evaluation.HIT_K],
                "delta_r5": report.deltas[evaluation.HIT_K]["delta"],
            },
            sort_keys=True,
        )
    )
    return 0


def _write_table(path: str, rows: list[dict], leading: list[str], ks: tuple[int, ...]) -> None:
    """CSV of a sweep table: the `leading` columns, then recall_at_{k} per k."""
    buf = io.StringIO()
    columns = leading + [f"recall_at_{k}" for k in ks]
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def cmd_sweep(cfg: dict) -> int:
    _refuse_unknown(cfg, "sweep", ("ks", "lambdas", "depths", "lambda_out", "depth_out"))
    passages, config, ks, scored, records, _ = _scored_queries(cfg, "sweep.ks")
    lambdas = _typed(cfg, "sweep.lambdas", "list[float]", [0.0, 0.25, 0.5, 0.75, 1.0])
    lam_rows = evaluation.lambda_sweep(scored, passages.ids, records, lambdas, ks)
    _write_table(require(cfg, "sweep.lambda_out"), lam_rows, ["lambda"], ks)

    depths = _typed(cfg, "sweep.depths", "list[int]", [10, 20, 50, 100])
    depth_rows = evaluation.pool_depth_sweep(
        scored, passages.ids, records, depths, config.blend_lambda, ks
    )
    _write_table(require(cfg, "sweep.depth_out"), depth_rows, ["depth", "gold_in_pool"], ks)
    print(json.dumps({"lambdas": len(lam_rows), "depths": len(depth_rows)}, sort_keys=True))
    return 0


def cmd_bench(cfg: dict) -> int:
    _refuse_unknown(cfg, "bench", ("pool_depths", "n_queries", "warmup", "reps", "out"))
    config = _rerank_config(cfg)
    depths = _typed(cfg, "bench.pool_depths", "list[int]", [100, 200])
    if not depths or min(depths) < 1:
        raise CliError(f"bench.pool_depths must be a non-empty list of depths >= 1, got {depths}")
    passages, queries, model = _load_inputs(cfg)
    if max(depths) > passages.rows:
        raise CliError(f"bench depth {max(depths)} exceeds corpus size {passages.rows}")
    n_queries = _typed(cfg, "bench.n_queries", "int", min(32, queries.rows))
    if not 1 <= n_queries <= queries.rows:
        raise CliError(f"bench.n_queries {n_queries} out of range for {queries.rows} queries")
    warmup = _typed(cfg, "bench.warmup", "int", 2)
    reps = _typed(cfg, "bench.reps", "int", 3)
    transformed = transform_matrix(model, passages, source=require(cfg, "passages"))
    stats = evaluation.latency_bench(
        model, passages, transformed, config, queries.data[:n_queries], depths, warmup, reps
    )
    payload = {
        "depths": {str(depth): s.to_json_dict() for depth, s in stats.items()},
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
    except (ValueError, KeyError, RuntimeError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return 1


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
