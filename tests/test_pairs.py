"""Pair extraction, split policies, ablation constructors, record and pair files."""

import json

import numpy as np
import pytest

from assocrank import pairs
from assocrank.embeddings import EmbeddingMatrix
from assocrank.pairs import (
    AssocPairSet,
    QuestionRecord,
    canonical,
    check_type,
    extract_pairs,
    load_pairs,
    load_records,
    load_texts,
    save_pairs,
    save_records,
    shuffle_pairs,
    similar_positive_pairs,
    split_policy,
)


def record(qid, gold, split="train", text="", answer="x"):
    return QuestionRecord(
        question_id=qid,
        question_text=text or f"question {qid}",
        gold_passage_ids=list(gold),
        gold_answer=answer,
        split=split,
    )


class TestCanonical:
    def test_orders_lexicographically(self):
        assert canonical("b", "a") == ("a", "b")
        assert canonical("a", "b") == ("a", "b")


class TestPairSetValidation:
    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="self-pair"):
            AssocPairSet(pairs=[("a", "a")], pair_splits=[frozenset()])

    def test_duplicate_unordered_rejected(self):
        with pytest.raises(ValueError, match="duplicate unordered pair"):
            AssocPairSet(
                pairs=[("a", "b"), ("b", "a")], pair_splits=[frozenset()] * 2
            )

    def test_split_alignment(self):
        with pytest.raises(ValueError, match="align"):
            AssocPairSet(pairs=[("a", "b")], pair_splits=[])


class TestExtractPairs:
    def test_single_pair(self):
        ps = extract_pairs([record("q1", ["A", "B"])])
        assert ps.pairs == [("A", "B")]
        assert ps.provenance == "cooccurrence"

    def test_dedup_across_questions_merges_splits(self):
        ps = extract_pairs(
            [record("q1", ["A", "B"], "train"), record("q2", ["B", "A"], "validation")]
        )
        assert ps.pairs == [("A", "B")]
        assert ps.pair_splits == [frozenset({"train", "validation"})]

    def test_three_gold_full_expansion(self):
        ps = extract_pairs([record("q1", ["C", "A", "B"])])
        assert sorted(ps.pairs) == [("A", "B"), ("A", "C"), ("B", "C")]

    def test_four_gold_expansion_count(self):
        ps = extract_pairs([record("q1", ["A", "B", "C", "D"])])
        assert len(ps.pairs) == 6

    def test_short_records_skipped(self):
        ps = extract_pairs([record("q1", ["A"]), record("q2", ["B", "C"])])
        assert ps.pairs == [("B", "C")]

    def test_no_self_or_duplicate_pairs_property(self):
        rng = np.random.default_rng(5)
        universe = [f"p{i}" for i in range(30)]
        records = []
        for qi in range(200):
            h = int(rng.integers(2, 5))
            gold = list(rng.choice(universe, size=h, replace=False))
            records.append(record(f"q{qi}", gold, "train" if qi % 2 else "validation"))
        ps = extract_pairs(records)
        keys = [canonical(a, b) for a, b in ps.pairs]
        assert all(a != b for a, b in ps.pairs)
        assert len(set(keys)) == len(keys)


class TestSplitPolicy:
    def mixed(self):
        return extract_pairs(
            [
                record("q1", ["A", "B"], "train"),
                record("q2", ["C", "D"], "train"),
                record("q3", ["E", "F"], "train"),
                record("q4", ["G", "H"], "validation"),
                record("q5", ["I", "J"], "validation"),
            ]
        )

    def test_transductive_keeps_everything(self):
        ps = self.mixed()
        out = split_policy(ps, "transductive")
        assert out.pairs == ps.pairs

    def test_inductive_keeps_train_backed_pairs(self):
        out = split_policy(self.mixed(), "inductive")
        assert sorted(out.pairs) == [("A", "B"), ("C", "D"), ("E", "F")]

    def test_train_only_inductive_is_noop(self):
        ps = extract_pairs([record("q1", ["A", "B"], "train")])
        assert split_policy(ps, "inductive").pairs == ps.pairs

    def test_shared_pair_counts_as_train(self):
        # a pair seen from both splits survives the inductive filter
        ps = extract_pairs(
            [record("q1", ["A", "B"], "train"), record("q2", ["A", "B"], "validation")]
        )
        assert split_policy(ps, "inductive").pairs == [("A", "B")]

    def test_containment_property(self):
        rng = np.random.default_rng(6)
        universe = [f"p{i}" for i in range(20)]
        records = [
            record(
                f"q{qi}",
                list(rng.choice(universe, size=2, replace=False)),
                "train" if rng.random() < 0.5 else "validation",
            )
            for qi in range(80)
        ]
        ps = extract_pairs(records)
        trans = {canonical(*p) for p in split_policy(ps, "transductive").pairs}
        ind = {canonical(*p) for p in split_policy(ps, "inductive").pairs}
        assert ind <= trans

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode must be"):
            split_policy(self.mixed(), "zero_shot")


class TestShufflePairs:
    def test_two_pair_swap_reachable(self):
        ps = AssocPairSet(
            pairs=[("A", "B"), ("C", "D")], pair_splits=[frozenset()] * 2
        )
        seen = set()
        for seed in range(30):
            out = shuffle_pairs(ps, seed)
            assert out.provenance == "shuffled"
            seen.add(tuple(out.pairs))
        # only two collision-free arrangements exist; the swap must appear
        assert (("A", "D"), ("C", "B")) in seen

    def test_preserves_left_and_right_multisets(self):
        rng = np.random.default_rng(7)
        pairs = [(f"l{i}", f"r{rng.integers(0, 400)}-{i}") for i in range(1000)]
        ps = AssocPairSet(pairs=pairs, pair_splits=[frozenset()] * 1000)
        out = shuffle_pairs(ps, seed=3)
        assert len(out) == 1000
        assert sorted(a for a, _ in out.pairs) == sorted(a for a, _ in pairs)
        assert sorted(b for _, b in out.pairs) == sorted(b for _, b in pairs)

    def test_no_self_pairs_or_duplicates(self):
        # ids shared across sides so self-pairs are reachable by a bad shuffle
        pairs = [(f"p{i}", f"p{i + 1}") for i in range(0, 60, 2)]
        ps = AssocPairSet(pairs=pairs, pair_splits=[frozenset()] * len(pairs))
        for seed in range(5):
            out = shuffle_pairs(ps, seed)
            assert all(a != b for a, b in out.pairs)
            keys = [canonical(a, b) for a, b in out.pairs]
            assert len(set(keys)) == len(keys)

    def test_identity_rate_below_permutation_collision_bound(self):
        n = 10_000
        pairs = [(f"a{i}", f"b{i}") for i in range(n)]
        ps = AssocPairSet(pairs=pairs, pair_splits=[frozenset()] * n)
        out = shuffle_pairs(ps, seed=11)
        same = sum(
            1 for orig, new in zip(pairs, out.pairs) if canonical(*orig) == canonical(*new)
        )
        assert same / n < 0.02

    def test_too_few_pairs(self):
        ps = AssocPairSet(pairs=[("a", "b")], pair_splits=[frozenset()])
        with pytest.raises(ValueError, match="at least 2"):
            shuffle_pairs(ps, seed=0)


class TestSimilarPositives:
    def test_constructed_geometry_top_pair(self):
        data = np.array(
            [[1.0, 0.0], [0.999, 0.04], [0.0, 1.0]], dtype=np.float32
        )
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        m = EmbeddingMatrix(ids=["A", "B", "C"], data=data)
        ps = similar_positive_pairs(m, 1)
        assert ps.pairs == [("A", "B")]
        assert ps.provenance == "similar_positives"

    def test_count_zero_is_empty(self):
        m = EmbeddingMatrix(ids=["A", "B"], data=np.eye(2, dtype=np.float32))
        assert similar_positive_pairs(m, 0).pairs == []

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        n, d = 200, 12
        data = rng.normal(size=(n, d)).astype(np.float32)
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        ids = [f"p{i:03d}" for i in range(n)]
        m = EmbeddingMatrix(ids=ids, data=data)

        sims = data.astype(np.float64) @ data.astype(np.float64).T
        np.fill_diagonal(sims, -np.inf)
        best = {}
        for i in range(n):
            j = int(np.argmax(sims[i]))
            key = canonical(ids[i], ids[j])
            best[key] = max(best.get(key, -np.inf), float(sims[i, j]))
        expected = [k for k, _ in sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:50]]
        assert similar_positive_pairs(m, 50).pairs == expected

    def test_count_exceeds_available(self):
        m = EmbeddingMatrix(ids=["A", "B"], data=np.eye(2, dtype=np.float32))
        with pytest.raises(ValueError, match="only"):
            similar_positive_pairs(m, 5)

    def test_too_few_rows(self):
        m = EmbeddingMatrix(ids=["A"], data=np.ones((1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="at least 2"):
            similar_positive_pairs(m, 1)


class TestRecordIo:
    def test_roundtrip(self, tmp_path):
        recs = [
            record("q1", ["A", "B"], "train", text="first?", answer="one"),
            record("q2", ["C", "D", "E"], "validation", text="second?", answer="two"),
        ]
        path = tmp_path / "records.jsonl"
        save_records(recs, str(path))
        back = load_records(str(path))
        assert [r.to_json_dict() for r in back] == [r.to_json_dict() for r in recs]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        body = save_and_read(recs=[record("q1", ["A", "B"])], path=path)
        path.write_text(body + "\n\n")
        assert len(load_records(str(path))) == 1

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"question_id": "q1"\n')
        with pytest.raises(ValueError, match=":1:"):
            load_records(str(path))

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        save_records([record("q1", ["A", "B"])], str(path))
        path.write_text(path.read_text() + '{"question_id": "q2"}\n')
        with pytest.raises(ValueError) as info:
            load_records(str(path))
        assert str(info.value) == f"{path}:2: missing field 'question_text'"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("question_id", 7, "question_id: expected str, got 7"),
            ("question_text", None, "question_text: expected str, got null"),
            ("gold_passage_ids", 5, "gold_passage_ids: expected list[str], got 5"),
            ("gold_passage_ids", "AB", 'gold_passage_ids: expected list[str], got "AB"'),
            ("gold_passage_ids", ["A", 2], "gold_passage_ids[1]: expected str, got 2"),
            ("gold_answer", ["x"], 'gold_answer: expected str, got ["x"]'),
            ("split", {"s": "train"}, 'split: expected str, got {"s": "train"}'),
        ],
        ids=[
            "question_id-7-a string, got 7",
            "question_text-None-a string, got null",
            "gold_passage_ids-5-a list of strings, got 5",
            'gold_passage_ids-AB-a list of strings, got "AB"',
            'gold_passage_ids-value4-a list of strings, got ["A", 2]',
            'gold_answer-value5-a string, got ["x"]',
            'split-value6-a string, got {"s": "train"}',
        ],
    )
    def test_wrongly_typed_field_reports_line(self, tmp_path, field, value, message):
        path = tmp_path / "records.jsonl"
        bad = record("q2", ["C", "D"]).to_json_dict()
        bad[field] = value
        path.write_text(save_and_read([record("q1", ["A", "B"])], path) + json.dumps(bad) + "\n")
        with pytest.raises(ValueError) as info:
            load_records(str(path))
        assert str(info.value) == f"{path}:2: {message}"

    def test_bad_split_rejected(self):
        rec = record("q1", ["A", "B"])
        rec.split = "test"
        with pytest.raises(ValueError, match="unknown split"):
            rec.validate()

    def test_duplicate_gold_ids_rejected(self):
        rec = record("q1", ["A", "A"])
        with pytest.raises(ValueError, match="duplicate gold"):
            rec.validate()


class TestTextsIo:
    def test_reads_ids_and_texts(self, tmp_path):
        path = tmp_path / "texts.jsonl"
        path.write_text('{"passage_id": "p1", "text": "one"}\n\n{"passage_id": "p2", "text": ""}\n')
        assert load_texts(str(path)) == {"p1": "one", "p2": ""}

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"passage_id": ["p"], "text": "t"}', 'passage_id: expected str, got ["p"]'),
            ('{"passage_id": 3, "text": "t"}', "passage_id: expected str, got 3"),
            ('{"passage_id": "p", "text": {"t": 1}}', 'text: expected str, got {"t": 1}'),
        ],
        ids=[
            '{"passage_id": ["p"], "text": "t"}-passage_id: expected a string, got ["p"]',
            '{"passage_id": 3, "text": "t"}-passage_id: expected a string, got 3',
            '{"passage_id": "p", "text": {"t": 1}}-text: expected a string, got {"t": 1}',
        ],
    )
    def test_wrongly_typed_field_reports_line(self, tmp_path, line, message):
        path = tmp_path / "texts.jsonl"
        path.write_text('{"passage_id": "p0", "text": "ok"}\n' + line + "\n")
        with pytest.raises(ValueError) as info:
            load_texts(str(path))
        assert str(info.value) == f"{path}:2: {message}"


TEXT_KINDS = {"passage_id": "str", "text": "str"}
RECORD_KINDS = {
    "question_id": "str",
    "question_text": "str",
    "gold_passage_ids": "list[str]",
    "gold_answer": "str",
    "split": "str",
}


def reference_objects(path, kinds):
    """The JSON-lines reader's contract, one `json.loads` per line: the list
    of checked fields, or the error text of the first bad line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                raw = json.loads(line)
            except ValueError as exc:
                return f"{where}: invalid JSON ({exc})"
            if not isinstance(raw, dict):
                return f"{where}: not a JSON object"
            missing = [name for name in kinds if name not in raw]
            if missing:
                return f"{where}: missing field {missing[0]!r}"
            try:
                out.append({name: check_type(f"{where}: {name}", raw[name], kind) for name, kind in kinds.items()})
            except ValueError as exc:
                return str(exc)
    return out


def outcome(read):
    try:
        return read()
    except ValueError as exc:
        return str(exc)


def random_string(rng):
    alphabet = ["a", "Z", " ", '"', "\\", "\u2028", "\u00e9", "\t", "\u0085", "{", "}", ","]
    return "".join(rng.choice(alphabet, size=int(rng.integers(0, 6))))


def random_line(rng, kinds, ids):
    """One line of a JSON-lines file: usually a good object (fields in any
    order, extra keys, raw or escaped non-ASCII), else one kind of bad line."""
    obj = {}
    for name, kind in kinds.items():
        if kind == "str":
            obj[name] = str(rng.choice(ids)) if name.endswith("_id") else random_string(rng)
        else:
            obj[name] = [str(rng.choice(ids)) for _ in range(int(rng.integers(0, 3)))]
    if rng.random() < 0.3:
        obj["extra"] = [random_string(rng), {"n": 1.5}]
    names = list(obj)
    obj = {name: obj[name] for name in rng.permutation(names)}
    ascii_only = bool(rng.random() < 0.5)
    good = json.dumps(obj, ensure_ascii=ascii_only)
    field_name = str(rng.choice(list(kinds)))
    bad = {
        "blank": "",
        "spaces": " \t ",
        "padded": f"  {good}\t",
        "truncated": good[: int(rng.integers(1, len(good)))],
        "two objects": f"{good}, {good}",
        "trailing data": f"{good} x",
        "array": f"[{good}]",
        "number": "12",
        "string": json.dumps(random_string(rng)),
        "null": "null",
        "missing": json.dumps({k: v for k, v in obj.items() if k != field_name}),
        "wrong type": json.dumps({**obj, field_name: [1, None, True][int(rng.integers(3))]}),
        "long integer": json.dumps({**obj, field_name: 0}).replace(": 0", ": 1" + "0" * 5000, 1),
        "nan": json.dumps({**obj, field_name: float("nan")}),
        "duplicate key": good[:-1] + f', "{field_name}": 7}}',
        "duplicate key fixed": f'{{"{field_name}": 7, ' + good[1:],
        "bom": "\ufeff" + good,
        "open bracket": good[:-1] + ', "x": [{}',
        "close bracket": "{}]}",
        "line separator": good + "\u2028",
    }
    if rng.random() < 0.75:
        return good
    return bad[str(rng.choice(list(bad)))]


class TestJsonLinesReader:
    def test_two_objects_on_one_line_fail_at_that_line(self, tmp_path):
        # joined into one array, these three lines would parse as three
        # objects; read line by line, line 1 holds extra data
        path = tmp_path / "texts.jsonl"
        first = '{"passage_id":"a","text":"x"}, {"passage_id":"b","text":"y"}'
        path.write_text(first + '\n{"passage_id":"c","text":"z","x":[{}\n{}]}\n')
        with pytest.raises(json.JSONDecodeError) as parsed:
            json.loads(first)
        assert str(parsed.value).startswith("Extra data")
        with pytest.raises(ValueError) as info:
            load_texts(str(path))
        assert str(info.value) == f"{path}:1: invalid JSON ({parsed.value})"

    @pytest.mark.parametrize("load", [load_records, load_texts])
    def test_integer_too_long_to_convert_reports_line(self, tmp_path, load):
        path = tmp_path / "file.jsonl"
        path.write_text('\n{"question_id": 1' + "0" * 5000 + ', "passage_id": "p"}\n')
        with pytest.raises(ValueError) as info:
            load(str(path))
        assert str(info.value).startswith(f"{path}:2: invalid JSON (Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("load", [load_records, load_texts])
    def test_arrays_nested_too_deep_to_decode_report_line(self, tmp_path, load):
        path = tmp_path / "file.jsonl"
        nested = "[" * 100_000 + "]" * 100_000
        path.write_text('\n{"passage_id": ' + nested + "}\n")
        with pytest.raises(RecursionError) as decoded:
            json.loads(nested)
        with pytest.raises(ValueError) as info:
            load(str(path))
        assert str(info.value) == f"{path}:2: invalid JSON ({decoded.value})"

    @pytest.mark.parametrize("kinds", [TEXT_KINDS, RECORD_KINDS], ids=["texts", "records"])
    def test_matches_a_per_line_json_loads_reader(self, tmp_path, kinds):
        rng = np.random.default_rng(31)
        ids = [f"p{i}" for i in range(6)] + ["\u2028", "q\u00e9"]
        path = tmp_path / "file.jsonl"
        failures = 0
        for trial in range(300):
            lines = [random_line(rng, kinds, ids) for _ in range(int(rng.integers(0, 7)))]
            newline = "\r\n" if rng.random() < 0.3 else "\n"
            path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode() * int(rng.integers(0, 2)))
            want = reference_objects(str(path), kinds)
            got = outcome(lambda: list(pairs._json_objects(str(path), kinds)))
            assert got == want, (trial, lines)
            if kinds is TEXT_KINDS and not isinstance(want, str):
                # a repeated id keeps its first place and its last text
                want_texts = {v["passage_id"]: v["text"] for v in want}
                assert list(load_texts(str(path)).items()) == list(want_texts.items())
            failures += isinstance(want, str)
        assert 50 < failures < 250


def save_and_read(recs, path):
    save_records(recs, str(path))
    return path.read_text()


def provenance_fixture(name):
    recs = [record("q1", ["A", "B", "C"]), record("q2", ["D", "E", "F"])]
    if name == "cooccurrence":
        return extract_pairs(recs)
    if name == "shuffled":
        return shuffle_pairs(extract_pairs(recs), seed=0)
    rng = np.random.default_rng(0)
    m = EmbeddingMatrix(ids=list("ABCDEF"), data=rng.standard_normal((6, 4)))
    return similar_positive_pairs(m, 2)


class TestPairIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("A\tB\nC\tD\n")
        back = load_pairs(str(path))
        assert back.pairs == [("A", "B"), ("C", "D")]
        assert back.provenance == "file"

    @pytest.mark.parametrize("name", ["cooccurrence", "shuffled", "similar_positives"])
    def test_provenance_header_roundtrip(self, tmp_path, name):
        ps = provenance_fixture(name)
        assert ps.provenance == name
        path = tmp_path / "pairs.tsv"
        save_pairs(ps, str(path))
        assert path.read_text().splitlines()[0] == f"# provenance: {name}"
        back = load_pairs(str(path))
        assert back.pairs == ps.pairs
        assert back.provenance == name

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("A\tB\nC D\n")
        with pytest.raises(ValueError, match=":2:"):
            load_pairs(str(path))
