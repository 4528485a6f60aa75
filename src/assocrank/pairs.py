"""Association pairs derived from question supervision.

Every question whose gold set holds h >= 2 passages contributes all C(h, 2)
unordered co-occurrence pairs. Pairs are stored in first-seen order; the
dedup key is the lexicographically sorted id tuple, so (a, b) and (b, a)
collapse. Ablation constructors (label shuffling, similarity-matched
positives) live here too, as do the readers and writers of pairs files and
of the JSON-lines question records and passage texts, and `check_type`, which
checks their fields and the CLI's config values.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
from dataclasses import dataclass, field, fields

import numpy as np

from assocrank.embeddings import EmbeddingMatrix, write_atomic

logger = logging.getLogger(__name__)

SPLITS = ("train", "validation")
SPLIT_MODES = ("transductive", "inductive")


@dataclass
class QuestionRecord:
    question_id: str
    question_text: str
    gold_passage_ids: list[str]
    gold_answer: str
    split: str

    def validate(self) -> None:
        if self.split not in SPLITS:
            raise ValueError(f"record {self.question_id!r}: unknown split {self.split!r}")
        if len(set(self.gold_passage_ids)) != len(self.gold_passage_ids):
            raise ValueError(f"record {self.question_id!r}: duplicate gold passage ids")

    def to_json_dict(self) -> dict:
        return {
            "question_id": self.question_id,
            "question_text": self.question_text,
            "gold_passage_ids": self.gold_passage_ids,
            "gold_answer": self.gold_answer,
            "split": self.split,
        }


_SCALAR_TYPES = {"int": int, "float": (int, float), "str": str}


def check_type(where: str, value, kind: str):
    """`value`, as parsed from JSON, checked as the annotated type `kind`
    ("int", "float", "str", "int | None", "list[str]", ...) and returned. An
    int is a JSON integer only (not true, 60.9 or "60"); a float is any JSON
    number that a float can hold, returned as a float. A mismatch raises
    ValueError naming `where` (with `[i]` for a list item), the type and at
    most 60 characters of the value's JSON. Config keys and record and texts
    fields all go through it."""
    if kind.startswith("list[") and isinstance(value, list):
        return [check_type(f"{where}[{i}]", item, kind[5:-1]) for i, item in enumerate(value)]
    if value is None and kind.endswith(" | None"):
        return None
    base = kind.removesuffix(" | None")
    if isinstance(value, _SCALAR_TYPES.get(base, ())) and not isinstance(value, bool):
        try:
            return float(value) if base == "float" else value
        except OverflowError:
            pass  # an integer too large for a float
    raise ValueError(f"{where}: expected {kind}, got {json.dumps(value)[:60]}")


def _text_lines(path: str):
    """The lines of a UTF-8 text file, read as `open` reads them in text
    mode. A byte that is not UTF-8 raises ValueError naming path:lineno."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError:
            pass  # the decoder read ahead, so find the byte in the raw file
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes, and its newlines count lines
        before = io.StringIO(raw[: exc.start].decode("utf-8"), newline=None).read()
        lineno = before.count("\n") + 1
        raise ValueError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason} at byte {exc.start})") from None
    raise ValueError(f"{path}: changed while it was read")


def _json_objects(path: str, kinds: dict[str, str]):
    """For each non-blank line of a JSON-lines file, its fields named in
    `kinds`, each checked as its type by `check_type`. A line that is not
    UTF-8, not valid JSON (an integer too long to convert and arrays nested
    too deep to decode included), not a JSON object or missing a field raises
    ValueError naming path:lineno.

    Each line is decoded once. A line that decodes to one object ending at
    the line's end, with every field present and every "str" field a string,
    yields at once (its other fields still go through `check_type`). Any
    other line is parsed again by `json.loads` and checked field by field,
    which raises the error that names its fault."""
    decode = json.JSONDecoder().raw_decode
    for lineno, line in enumerate(_text_lines(path), 1):
        line = line.strip()
        if not line:
            continue
        try:
            raw, end = decode(line)
        except (ValueError, RecursionError):
            end = -1
        # plain loops: a comprehension per line costs more than the checks
        if end == len(line) and type(raw) is dict and kinds.keys() <= raw.keys():
            values = {}
            for name, kind in kinds.items():
                value = raw[name]
                if kind != "str":
                    value = check_type(f"{path}:{lineno}: {name}", value, kind)
                elif type(value) is not str:
                    break
                values[name] = value
            else:
                yield values
                continue
        where = f"{path}:{lineno}"
        try:
            raw = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{where}: invalid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{where}: not a JSON object")
        missing = [name for name in kinds if name not in raw]
        if missing:
            raise ValueError(f"{where}: missing field {missing[0]!r}")
        yield {name: check_type(f"{where}: {name}", raw[name], kinds[name]) for name in kinds}


def _save_json_objects(objects, path: str) -> None:
    text = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objects)
    write_atomic(path, text.encode("utf-8"))


_RECORD_FIELDS = {f.name: f.type for f in fields(QuestionRecord)}


def load_records(path: str) -> list[QuestionRecord]:
    records = []
    for values in _json_objects(path, _RECORD_FIELDS):
        rec = QuestionRecord(**values)
        rec.validate()
        records.append(rec)
    return records


def save_records(records: list[QuestionRecord], path: str) -> None:
    _save_json_objects((rec.to_json_dict() for rec in records), path)


def load_texts(path: str) -> dict[str, str]:
    """Passage id -> text from a JSON-lines file written by save_texts."""
    lines = _json_objects(path, {"passage_id": "str", "text": "str"})
    return {values["passage_id"]: values["text"] for values in lines}


def save_texts(texts: dict[str, str], path: str) -> None:
    _save_json_objects(({"passage_id": pid, "text": texts[pid]} for pid in sorted(texts)), path)


def canonical(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class AssocPairSet:
    """Ordered, deduplicated pair collection with per-pair split provenance."""

    pairs: list[tuple[str, str]] = field(default_factory=list)
    pair_splits: list[frozenset[str]] = field(default_factory=list)
    provenance: str = "cooccurrence"

    def __post_init__(self):
        if len(self.pair_splits) != len(self.pairs):
            raise ValueError("pair_splits must align with pairs")
        seen = set()
        for a, b in self.pairs:
            if a == b:
                raise ValueError(f"self-pair {a!r}")
            key = canonical(a, b)
            if key in seen:
                raise ValueError(f"duplicate unordered pair {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.pairs)


def extract_pairs(records: list[QuestionRecord]) -> AssocPairSet:
    """All C(h, 2) gold co-occurrence pairs, deduplicated across questions.

    Questions with fewer than two gold passages carry no co-occurrence signal
    and are skipped (logged once with a count). Split provenance merges when
    the same pair shows up in several splits.
    """
    pairs: list[tuple[str, str]] = []
    splits: dict[tuple[str, str], set[str]] = {}
    skipped = 0
    for rec in records:
        rec.validate()
        if len(rec.gold_passage_ids) < 2:
            skipped += 1
            continue
        for a, b in itertools.combinations(sorted(rec.gold_passage_ids), 2):
            key = canonical(a, b)
            if key not in splits:
                splits[key] = set()
                pairs.append(key)
            splits[key].add(rec.split)
    if skipped:
        logger.warning("skipped %d records with fewer than 2 gold passages", skipped)
    return AssocPairSet(
        pairs=pairs,
        pair_splits=[frozenset(splits[p]) for p in pairs],
        provenance="cooccurrence",
    )


def split_policy(pair_set: AssocPairSet, mode: str) -> AssocPairSet:
    """transductive keeps every pair; inductive keeps only pairs backed by at
    least one train-split question."""
    if mode not in SPLIT_MODES:
        raise ValueError(f"mode must be one of {SPLIT_MODES}, got {mode!r}")
    if mode == "transductive":
        return AssocPairSet(
            pairs=list(pair_set.pairs),
            pair_splits=list(pair_set.pair_splits),
            provenance=pair_set.provenance,
        )
    keep = [i for i, splits in enumerate(pair_set.pair_splits) if "train" in splits]
    return AssocPairSet(
        pairs=[pair_set.pairs[i] for i in keep],
        pair_splits=[pair_set.pair_splits[i] for i in keep],
        provenance=pair_set.provenance,
    )


def shuffle_pairs(pair_set: AssocPairSet, seed: int) -> AssocPairSet:
    """Break the association signal: permute the right-hand elements.

    Left and right multisets are preserved exactly, so marginal id
    frequencies match the real pair set; only the pairing is destroyed.
    Permutations are re-rolled (with targeted swaps) until no self-pairs or
    duplicate unordered pairs remain.
    """
    n = len(pair_set.pairs)
    if n < 2:
        raise ValueError("need at least 2 pairs to shuffle")
    lefts = [a for a, _ in pair_set.pairs]
    rights = [b for _, b in pair_set.pairs]
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    for _ in range(200):
        cand = [(lefts[i], rights[perm[i]]) for i in range(n)]
        counts: dict[tuple[str, str], int] = {}
        for a, b in cand:
            if a != b:
                key = canonical(a, b)
                counts[key] = counts.get(key, 0) + 1
        bad = [
            i
            for i, (a, b) in enumerate(cand)
            if a == b or counts[canonical(a, b)] > 1
        ]
        if not bad:
            return AssocPairSet(
                pairs=cand,
                pair_splits=[frozenset()] * n,
                provenance="shuffled",
            )
        for i in bad:
            j = int(rng.integers(n))
            perm[i], perm[j] = perm[j], perm[i]
    raise RuntimeError("could not find a collision-free shuffle; pair set too degenerate")


def similar_positive_pairs(matrix: EmbeddingMatrix, count: int) -> AssocPairSet:
    """Similarity-matched control pairs: each passage with its nearest
    neighbour by inner product, ranked by similarity, top `count` kept after
    unordered dedup."""
    if matrix.rows < 2:
        raise ValueError("need at least 2 passages")
    data = matrix.data.astype(np.float64)
    best: dict[tuple[str, str], float] = {}
    block = 512
    for start in range(0, matrix.rows, block):
        sims = data[start : start + block] @ data.T
        for local in range(sims.shape[0]):
            i = start + local
            sims[local, i] = -np.inf
            j = int(np.argmax(sims[local]))
            key = canonical(matrix.ids[i], matrix.ids[j])
            sim = float(sims[local, j])
            if key not in best or sim > best[key]:
                best[key] = sim
    if count > len(best):
        raise ValueError(f"requested {count} pairs but only {len(best)} nearest-neighbour pairs exist")
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:count]
    return AssocPairSet(
        pairs=[key for key, _ in ranked],
        pair_splits=[frozenset()] * count,
        provenance="similar_positives",
    )


_PROVENANCE = "# provenance: "


def save_pairs(pair_set: AssocPairSet, path: str) -> None:
    """A `# provenance: <name>` line, then two tab-separated ids per line."""
    lines = [f"{_PROVENANCE}{pair_set.provenance}\n"]
    lines += [f"{a}\t{b}\n" for a, b in pair_set.pairs]
    write_atomic(path, "".join(lines).encode("utf-8"))


def load_pairs(path: str) -> AssocPairSet:
    """Read a file written by save_pairs; one without the provenance line
    loads with provenance "file"."""
    pairs = []
    provenance = "file"
    for lineno, line in enumerate(_text_lines(path), 1):
        line = line.rstrip("\n")
        if lineno == 1 and line.startswith(_PROVENANCE):
            provenance = line[len(_PROVENANCE):]
            continue
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two tab-separated ids")
        pairs.append((parts[0], parts[1]))
    return AssocPairSet(
        pairs=pairs, pair_splits=[frozenset()] * len(pairs), provenance=provenance
    )
