"""Planted-association corpus generator."""

import numpy as np
import pytest

from assocrank.search import top_k
from assocrank.synthetic import SyntheticData, SyntheticSpec, generate_full

DEFAULT = SyntheticSpec()  # 5000 passages, dim 64, 500 questions, 2 hops, seed 42


def dense_ranks(data):
    """1-based dense rank of every passage for every query."""
    sims = data.queries.data.astype(np.float64) @ data.passages.data.astype(np.float64).T
    order = np.argsort(-sims, axis=1)
    ranks = np.empty_like(order)
    n = data.passages.data.shape[0]
    for qi in range(order.shape[0]):
        ranks[qi, order[qi]] = np.arange(1, n + 1)
    return ranks


class TestSpecValidation:
    def test_defaults(self):
        assert DEFAULT.n_passages == 5000
        assert DEFAULT.dim == 64
        assert DEFAULT.n_questions == 500
        assert DEFAULT.hops == 2
        assert DEFAULT.bridge_offset_rank == 10
        assert DEFAULT.seed == 42
        DEFAULT.validate()

    def test_dim_floor(self):
        with pytest.raises(ValueError, match="dim must be >= 8"):
            SyntheticSpec(dim=7).validate()

    def test_hops_band(self):
        with pytest.raises(ValueError, match=r"hops must be in \[2, 4\]"):
            SyntheticSpec(hops=1).validate()
        with pytest.raises(ValueError, match=r"hops must be in \[2, 4\]"):
            SyntheticSpec(hops=5).validate()
        SyntheticSpec(n_passages=100, dim=16, n_questions=4, hops=4).validate()

    def test_bridge_offset_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SyntheticSpec(bridge_offset_rank=0).validate()
        with pytest.raises(ValueError, match="out of range"):
            SyntheticSpec(n_passages=50, bridge_offset_rank=51).validate()

    def test_negative_noise(self):
        with pytest.raises(ValueError, match="noise_scale"):
            SyntheticSpec(noise_scale=-0.1).validate()

    def test_cluster_count(self):
        assert SyntheticSpec(n_questions=500).clusters == 250
        assert SyntheticSpec(n_questions=3).clusters == 1
        assert SyntheticSpec(n_clusters=7).clusters == 7
        with pytest.raises(ValueError, match="n_clusters"):
            _ = SyntheticSpec(n_clusters=0).clusters

    def test_infeasible_shared_geometry(self):
        spec = SyntheticSpec(
            n_passages=5, dim=16, n_questions=10, hops=2, n_clusters=4,
            bridge_offset_rank=3,
        )
        with pytest.raises(ValueError, match="infeasible geometry"):
            generate_full(spec)


class TestGeneration:
    def small(self, **kw):
        base = dict(n_passages=300, dim=16, n_questions=20, seed=5)
        base.update(kw)
        return SyntheticSpec(**base)

    def test_deterministic(self):
        a = generate_full(self.small())
        b = generate_full(self.small())
        assert np.array_equal(a.passages.data, b.passages.data)
        assert np.array_equal(a.queries.data, b.queries.data)
        assert a.passages.ids == b.passages.ids
        assert [r.gold_passage_ids for r in a.records] == [
            r.gold_passage_ids for r in b.records
        ]
        assert a.texts == b.texts

    def test_seed_changes_data(self):
        a = generate_full(self.small())
        b = generate_full(self.small(seed=6))
        assert not np.array_equal(a.passages.data, b.passages.data)

    def test_unit_norms(self):
        data = generate_full(self.small())
        for mat in (data.passages, data.queries):
            norms = np.linalg.norm(mat.data.astype(np.float64), axis=1)
            assert np.allclose(norms, 1.0, atol=1e-5)
            assert mat.normalized

    def test_empty_question_corpus(self):
        data = generate_full(self.small(n_questions=0))
        assert data.passages.data.shape == (300, 16)
        assert data.queries.data.shape[0] == 0
        assert data.records == []

    def test_shapes_ids_texts(self):
        data = generate_full(self.small())
        assert data.passages.data.shape == (300, 16)
        assert data.queries.data.shape == (20, 16)
        assert len(data.records) == 20
        assert len(set(data.passages.ids)) == 300
        assert all(pid.startswith("p") for pid in data.passages.ids)
        assert all(qid.startswith("q") for qid in data.queries.ids)
        # every passage id carries a text blurb
        assert set(data.texts) == set(data.passages.ids)

    def test_gold_structure_and_answer(self):
        data = generate_full(self.small(hops=3))
        for rec in data.records:
            assert len(rec.gold_passage_ids) == 3
            assert len(set(rec.gold_passage_ids)) == 3
            assert rec.gold_answer == f"ans-{rec.gold_passage_ids[-1]}"
            anchor_text = data.texts[rec.gold_passage_ids[0]]
            assert "anchor" in anchor_text
            for gid in rec.gold_passage_ids[1:]:
                assert "hop" in data.texts[gid]
            # final hop text carries the answer token for coverage metrics
            assert rec.gold_answer in data.texts[rec.gold_passage_ids[-1]]

    def test_cluster_parity_splits(self):
        data = generate_full(self.small())

        def topic(rec):
            return rec.question_text.split()[0]

        train_topics = {topic(r) for r in data.records if r.split == "train"}
        val_topics = {topic(r) for r in data.records if r.split == "validation"}
        assert train_topics and val_topics
        assert not (train_topics & val_topics)

    def test_shared_gold_regime(self):
        spec = SyntheticSpec(
            n_passages=50, dim=16, n_questions=40, hops=2, n_clusters=4, seed=2,
            bridge_offset_rank=20,
        )
        data = generate_full(spec)
        distinct_gold = {gid for r in data.records for gid in r.gold_passage_ids}
        assert len(distinct_gold) == 4 * 2
        # cluster mates share the same anchor and bridge
        by_topic = {}
        for rec in data.records:
            topic = rec.question_text.split()[0]
            by_topic.setdefault(topic, set()).add(tuple(rec.gold_passage_ids))
        assert all(len(golds) == 1 for golds in by_topic.values())


@pytest.fixture(scope="module")
def default_corpus():
    return generate_full(DEFAULT)


class TestPlantedGeometry:
    def test_median_bridge_rank_in_band(self, default_corpus):
        data = default_corpus
        ranks = dense_ranks(data)
        bridge_ranks = []
        for qi, rec in enumerate(data.records):
            for gid in rec.gold_passage_ids[1:]:
                bridge_ranks.append(ranks[qi, data.passages.row(gid)])
        med = float(np.median(bridge_ranks))
        assert 6 <= med <= 20, f"median bridge rank {med}"

    def test_anchor_top5_coverage(self, default_corpus):
        data = default_corpus
        hits = 0
        for rec, q in zip(data.records, data.queries.data):
            rows, _ = top_k(q, data.passages, 5)
            anchor_row = data.passages.row(rec.gold_passage_ids[0])
            hits += int(anchor_row in rows)
        assert hits / len(data.records) >= 0.90

    def test_bridge_top5_headroom(self, default_corpus):
        data = default_corpus
        lucky = 0
        for rec, q in zip(data.records, data.queries.data):
            rows = set(top_k(q, data.passages, 5)[0].tolist())
            bridge_rows = {data.passages.row(g) for g in rec.gold_passage_ids[1:]}
            lucky += int(bool(rows & bridge_rows))
        assert lucky / len(data.records) <= 0.20

    def test_bridges_inside_default_pool(self, default_corpus):
        # every bridge must start inside the 100-deep candidate pool or the
        # reranker never even sees it
        data = default_corpus
        ranks = dense_ranks(data)
        worst = 0
        for qi, rec in enumerate(data.records):
            for gid in rec.gold_passage_ids[1:]:
                worst = max(worst, int(ranks[qi, data.passages.row(gid)]))
        assert worst <= 100, f"worst bridge rank {worst}"

    def test_isinstance_container(self, default_corpus):
        assert isinstance(default_corpus, SyntheticData)
