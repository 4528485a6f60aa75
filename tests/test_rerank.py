"""Blended reranking: modes, blend arithmetic, ordering guarantees."""

import numpy as np
import pytest

from assocrank import rerank as rerank_module
from assocrank.embeddings import EmbeddingMatrix
from assocrank.model import AssocModel, forward, transform_matrix
from assocrank.rerank import (
    SCORING_MODES,
    RerankConfig,
    ScoredPool,
    _blend_order,
    rank_rows,
    rerank_query,
    score_pool,
)
from assocrank.search import top_k


def pool_of(rows, sims, assocs):
    """A block of one pool."""
    return ScoredPool(
        query_ids=["q"],
        rows=np.asarray(rows, dtype=np.int64)[None],
        sims=np.asarray(sims, dtype=np.float32)[None],
        assocs=np.asarray(assocs, dtype=np.float32)[None],
    )


def blend_rows(pool, blend_lambda, cutoff):
    order, blended = _blend_order(pool.rows, pool.sims, pool.assocs, blend_lambda, cutoff)
    return pool.rows[0, order[0]].tolist(), blended[0, order[0]].tolist()


def unit_rows(data):
    """float32 rows scaled to unit L2 norm by their float64 norms."""
    norms = np.linalg.norm(data.astype(np.float64), axis=1, keepdims=True)
    return data / norms.astype(np.float32)


def unit_corpus(rng, n, d, prefix="p"):
    data = unit_rows(rng.normal(size=(n, d)).astype(np.float32))
    return EmbeddingMatrix(ids=[f"{prefix}{i:04d}" for i in range(n)], data=data, normalized=True)


def pipeline_parts(rng, n=300, d=24, model_seed=0, perturb=True):
    passages = unit_corpus(rng, n, d)
    model = AssocModel.initialize(d, seed=model_seed)
    if perturb:
        model.alpha_raw[:] = -0.7
        for i in range(3):
            model.ln_shifts[i][:] = rng.normal(scale=0.1, size=d).astype(np.float32)
    transformed = transform_matrix(model, passages)
    return passages, model, transformed


def reference_assoc(model, q, p, tp, mode):
    """Float64 association score of one (query, passage) pair."""
    q = np.asarray(q, dtype=np.float64)
    fq = forward(model, q.astype(np.float32)).astype(np.float64)
    p = np.asarray(p, dtype=np.float64)
    tp = np.asarray(tp, dtype=np.float64)
    return {
        "forward_only": fq @ p,
        "reverse_only": q @ tp,
        "both_transformed": fq @ tp,
        "mixed_bidi": 0.5 * (fq @ p + q @ tp),
    }[mode]


class TestConfig:
    def test_defaults(self):
        cfg = RerankConfig()
        assert cfg.blend_lambda == 0.50
        assert cfg.pool_depth == 100
        assert cfg.cutoff == 5
        assert cfg.mode == "mixed_bidi"
        cfg.validate()

    def test_validation(self):
        with pytest.raises(ValueError, match="blend_lambda"):
            RerankConfig(blend_lambda=1.2).validate()
        with pytest.raises(ValueError, match="blend_lambda"):
            RerankConfig(blend_lambda=-0.1).validate()
        with pytest.raises(ValueError, match="pool_depth"):
            RerankConfig(pool_depth=0).validate()
        with pytest.raises(ValueError, match="cutoff"):
            RerankConfig(pool_depth=10, cutoff=11).validate()
        with pytest.raises(ValueError, match="cutoff"):
            RerankConfig(cutoff=0).validate()
        with pytest.raises(ValueError, match="mode"):
            RerankConfig(mode="backward_only").validate()


class TestBlend:
    def test_three_candidate_hand_example(self):
        pool = pool_of([0, 1, 2], [0.9, 0.5, 0.4], [0.1, 0.9, 0.8])
        rows, blended = blend_rows(pool, 0.6, 3)
        assert rows == [1, 2, 0]
        assert np.abs(np.array(blended) - np.array([0.74, 0.64, 0.42])).max() < 1e-6
        assert rank_rows(pool, 0.6, 3).tolist() == [rows]

    def test_lambda_zero_keeps_dense_order_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(5, 40))
            sims = np.sort(rng.normal(size=n).astype(np.float32))[::-1]
            if trial % 2:
                sims[: n // 2] = sims[0]  # duplicated leading scores
                sims = np.sort(sims)[::-1]
            rows = np.arange(n)
            pool = pool_of(rows, sims, rng.normal(size=n))
            got_rows, blended = blend_rows(pool, 0.0, n)
            assert got_rows == rows.tolist()
            assert blended == sims.tolist()

    def test_lambda_one_sorts_by_association(self):
        rng = np.random.default_rng(1)
        n = 30
        assoc = rng.normal(size=n).astype(np.float32)
        pool = pool_of(range(n), np.sort(rng.normal(size=n))[::-1], assoc)
        expected = sorted(range(n), key=lambda i: (-assoc[i], i))
        assert rank_rows(pool, 1.0, n).tolist() == [expected]

    def test_blended_ties_break_toward_lower_row(self):
        pool = pool_of([30, 10], [0.5, 0.5], [0.2, 0.2])
        assert rank_rows(pool, 0.5, 2).tolist() == [[10, 30]]

    def test_cutoff_truncates(self):
        pool = pool_of([0, 1, 2, 3], [0.9, 0.8, 0.7, 0.6], np.zeros(4))
        assert rank_rows(pool, 0.0, 2).tolist() == [[0, 1]]


class TestModes:
    def scored_by_mode(self, q, passages, transformed, model, depth=30):
        return {
            mode: score_pool(
                ["q"], q[None], passages, transformed, model,
                RerankConfig(pool_depth=depth, cutoff=5, mode=mode),
            )
            for mode in SCORING_MODES
        }

    def test_mixed_is_mean_of_directed_modes(self):
        rng = np.random.default_rng(2)
        passages, model, transformed = pipeline_parts(rng)
        q = rng.normal(size=24).astype(np.float32)
        q /= np.linalg.norm(q)
        parts = self.scored_by_mode(q, passages, transformed, model)
        for mode in SCORING_MODES:
            assert parts[mode].rows.tolist() == parts["mixed_bidi"].rows.tolist()
        mean = 0.5 * (parts["forward_only"].assocs + parts["reverse_only"].assocs)
        assert np.abs(parts["mixed_bidi"].assocs - mean).max() < 1e-6

    def test_modes_collapse_under_saturated_gate(self):
        # alpha_raw = 20 makes f plain normalization, so all modes agree with
        # the raw inner product on unit inputs
        rng = np.random.default_rng(3)
        passages, model, transformed = pipeline_parts(rng, perturb=False)
        model.alpha_raw[:] = 20.0
        transformed = transform_matrix(model, passages)
        q = rng.normal(size=24).astype(np.float32)
        q /= np.linalg.norm(q)
        for mode, scored in self.scored_by_mode(q, passages, transformed, model).items():
            raw = passages.data[scored.rows[0]].astype(np.float64) @ q.astype(np.float64)
            assert np.abs(scored.assocs[0] - raw).max() < 1e-5, mode

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(4)
        passages, model, transformed = pipeline_parts(rng, n=10)
        cfg = RerankConfig(pool_depth=5, cutoff=2, mode="sideways")
        with pytest.raises(ValueError, match="mode must be"):
            score_pool(["q"], passages.data[:1], passages, transformed, model, cfg)


class TestScorePool:
    def test_assocs_match_single_pair_scoring(self):
        rng = np.random.default_rng(5)
        passages, model, transformed = pipeline_parts(rng)
        q = rng.normal(size=24).astype(np.float32)
        for mode in SCORING_MODES:
            cfg = RerankConfig(pool_depth=20, cutoff=5, mode=mode)
            scored = score_pool(["q0"], q[None], passages, transformed, model, cfg)
            assert scored.rows.shape == (1, 20)
            assert scored.assocs.dtype == np.float32
            for slot in (0, 3, 19):
                row = int(scored.rows[0, slot])
                single = reference_assoc(
                    model, q, passages.data[row], transformed.data[row], mode
                )
                assert abs(single - float(scored.assocs[0, slot])) < 1e-6, mode

    def test_assocs_are_the_pool_readout_bit_for_bit(self):
        # float32 readout over the gathered pool rows, as each mode defines
        # it, then the float64 oracle on every slot
        rng = np.random.default_rng(9)
        passages, model, transformed = pipeline_parts(rng)
        q = rng.normal(size=24).astype(np.float32)
        fq = forward(model, q)
        for mode in SCORING_MODES:
            cfg = RerankConfig(pool_depth=40, cutoff=5, mode=mode)
            scored = score_pool(["q0"], q[None], passages, transformed, model, cfg)
            vecs, tvecs = passages.data[scored.rows[0]], transformed.data[scored.rows[0]]
            expected = {
                "forward_only": vecs @ fq,
                "reverse_only": tvecs @ q,
                "both_transformed": tvecs @ fq,
                "mixed_bidi": 0.5 * (vecs @ fq + tvecs @ q),
            }[mode].astype(np.float32)
            assert scored.assocs.tobytes() == expected.tobytes(), mode
            for slot, row in enumerate(scored.rows[0]):
                single = reference_assoc(
                    model, q, passages.data[row], transformed.data[row], mode
                )
                assert abs(single - float(scored.assocs[0, slot])) < 1e-6, mode

    @pytest.mark.parametrize("n", [0, 1, 2, 65])
    def test_a_block_readout_equals_its_queries_read_out_alone(self, n):
        rng = np.random.default_rng(11)
        passages, model, transformed = pipeline_parts(rng)
        queries = rng.normal(size=(n, 24)).astype(np.float32)
        fq = forward(model, queries)
        rows = rng.integers(0, passages.rows, size=(n, 30))
        for mode in SCORING_MODES:
            block = rerank_module._association_readout(queries, fq, rows, passages, transformed, mode)
            alone = [
                rerank_module._association_readout(q, f, r, passages, transformed, mode)
                for q, f, r in zip(queries, fq, rows)
            ]
            assert block.shape == (n, 30) and block.dtype == np.float32, mode
            assert block.tobytes() == b"".join(a.tobytes() for a in alone), mode

    def test_sims_match_dense_pool(self):
        rng = np.random.default_rng(6)
        passages, model, transformed = pipeline_parts(rng)
        q = rng.normal(size=24).astype(np.float32)
        dense_rows, dense_sims = top_k(q, passages, 15)
        for mode in SCORING_MODES:
            cfg = RerankConfig(pool_depth=15, cutoff=5, mode=mode)
            scored = score_pool(["q0"], q[None], passages, transformed, model, cfg)
            assert scored.query_ids == ["q0"]
            assert scored.rows.tolist() == [dense_rows.tolist()]
            assert scored.sims.tolist() == [dense_sims.tolist()]

    def test_transformed_must_match(self):
        rng = np.random.default_rng(7)
        passages, model, transformed = pipeline_parts(rng, n=10)
        transformed.data = transformed.data[:-1]
        cfg = RerankConfig(pool_depth=5, cutoff=2)
        with pytest.raises(ValueError, match="does not match"):
            score_pool(["q"], passages.data[:1], passages, transformed, model, cfg)


    @pytest.mark.parametrize("mode", SCORING_MODES)
    def test_a_block_equals_one_query_at_a_time(self, mode, monkeypatch):
        rng = np.random.default_rng(10)
        passages, model, transformed = pipeline_parts(rng, n=301)
        queries = rng.normal(size=(21, 24)).astype(np.float32)
        ids = [f"q{i}" for i in range(21)]
        cfg = RerankConfig(pool_depth=30, cutoff=5, mode=mode)
        alone = [
            score_pool([qid], q[None], passages, transformed, model, cfg)
            for qid, q in zip(ids, queries)
        ]
        # with 8 queries per search, the 21 queries are searched in 3 blocks
        for search_block in (rerank_module._QUERY_BLOCK, 8):
            monkeypatch.setattr(rerank_module, "_QUERY_BLOCK", search_block)
            block = score_pool(ids, queries, passages, transformed, model, cfg)
            assert block.query_ids == ids
            for name in ("rows", "sims", "assocs"):
                got = getattr(block, name)
                want = np.concatenate([getattr(pool, name) for pool in alone])
                assert got.shape == (21, 30), name
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_nan_query_in_a_block_is_named(self):
        rng = np.random.default_rng(11)
        passages, model, transformed = pipeline_parts(rng, n=20)
        queries = rng.normal(size=(4, 24)).astype(np.float32)
        queries[2, 5] = np.nan
        cfg = RerankConfig(pool_depth=5, cutoff=2)
        with pytest.raises(ValueError, match=r"^query 'b': query scores are NaN for 20 of 20 passages"):
            score_pool(["z", "a", "b", "c"], queries, passages, transformed, model, cfg)
        with pytest.raises(ValueError, match=r"^3 query ids for a block of shape \(4, 24\)$"):
            score_pool(["z", "a", "b"], queries, passages, transformed, model, cfg)
        with pytest.raises(ValueError, match=r"^1 query ids for a block of shape \(24,\)$"):
            score_pool(["z"], queries[0], passages, transformed, model, cfg)

    def test_nan_query_in_a_later_search_block_is_named(self):
        # query 66 is row 2 of the second search block: naming it needs the
        # block's offset
        rng = np.random.default_rng(12)
        passages, model, transformed = pipeline_parts(rng, n=20)
        queries = rng.normal(size=(70, 24)).astype(np.float32)
        queries[66, 5] = np.nan
        ids = [f"q{i}" for i in range(70)]
        cfg = RerankConfig(pool_depth=5, cutoff=2)
        assert rerank_module._QUERY_BLOCK == 64
        with pytest.raises(ValueError, match=r"^query 'q66': query scores are NaN for 20 of 20"):
            score_pool(ids, queries, passages, transformed, model, cfg)

    def test_no_queries_give_empty_pools(self):
        rng = np.random.default_rng(13)
        passages, model, transformed = pipeline_parts(rng, n=20)
        scored = score_pool([], np.empty((0, 24), np.float32), passages, transformed, model,
                            RerankConfig(pool_depth=5, cutoff=2))
        assert scored.query_ids == []
        assert [getattr(scored, name).shape for name in ("rows", "sims", "assocs")] == [(0, 5)] * 3
        assert rank_rows(scored, 0.5, 2).shape == (0, 2)


    @pytest.mark.parametrize("n_queries", [0, 1, 70])
    def test_a_pool_deeper_than_the_corpus_names_no_query(self, n_queries):
        passages = EmbeddingMatrix(ids=["p0", "p1"], data=np.eye(2, 4, dtype=np.float32))
        model = AssocModel.initialize(4, seed=0)
        transformed = transform_matrix(model, passages)
        queries = np.ones((n_queries, 4), np.float32)
        ids = [f"q{i}" for i in range(n_queries)]
        with pytest.raises(ValueError, match=r"^K=3 out of range for 2 passages$"):
            score_pool(ids, queries, passages, transformed, model, RerankConfig(pool_depth=3, cutoff=1))

class TestRerankQuery:
    def test_nan_query_error_names_the_query(self):
        passages = EmbeddingMatrix(ids=[f"p{i}" for i in range(4)], data=np.eye(4, dtype=np.float32))
        model = AssocModel.initialize(4, seed=0)
        q = np.array([np.nan, 0.0, 0.0, 0.0], dtype=np.float32)
        cfg = RerankConfig(pool_depth=1, cutoff=1)
        with pytest.raises(
            ValueError,
            match=r"^query 'q7': query scores are NaN for 4 of 4 passages, leaving fewer than K=1 to rank$",
        ):
            rerank_query("q7", q, passages, transform_matrix(model, passages), model, cfg)

    def test_pool_containment_and_cutoff(self):
        rng = np.random.default_rng(8)
        passages, model, transformed = pipeline_parts(rng)
        cfg = RerankConfig(pool_depth=40, cutoff=7)
        for _ in range(10):
            q = rng.normal(size=24).astype(np.float32)
            result = rerank_query("q", q, passages, transformed, model, cfg)
            assert len(result.entries) == 7
            dense_rows = set(top_k(q, passages, 40)[0].tolist())
            assert {e.passage_row for e in result.entries} <= dense_rows

    def test_noop_guarantee_under_saturated_gate(self):
        rng = np.random.default_rng(9)
        passages, model, transformed = pipeline_parts(rng, n=400, d=32, perturb=False)
        model.alpha_raw[:] = 20.0
        transformed = transform_matrix(model, passages)
        queries = unit_corpus(rng, 12, 32, prefix="q")
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            for mode in SCORING_MODES:
                cfg = RerankConfig(blend_lambda=lam, pool_depth=50, cutoff=10, mode=mode)
                for qi in range(queries.rows):
                    q = queries.data[qi]
                    got = rerank_query("q", q, passages, transformed, model, cfg)
                    dense = top_k(q, passages, 50)[0][:10]
                    assert [e.passage_row for e in got.entries] == dense.tolist()

    def test_rank_rows_agrees_with_full_result(self):
        rng = np.random.default_rng(10)
        passages, model, transformed = pipeline_parts(rng)
        cfg = RerankConfig(blend_lambda=0.3, pool_depth=25, cutoff=6)
        q = rng.normal(size=24).astype(np.float32)
        scored = score_pool(["q"], q[None], passages, transformed, model, cfg)
        rows = rank_rows(scored, 0.3, 6)
        full = rerank_query("q", q, passages, transformed, model, cfg)
        assert rows.tolist() == [[e.passage_row for e in full.entries]]

    def test_json_shape_uses_ids(self):
        rng = np.random.default_rng(11)
        passages, model, transformed = pipeline_parts(rng, n=20)
        cfg = RerankConfig(pool_depth=5, cutoff=2)
        result = rerank_query("q7", passages.data[3], passages, transformed, model, cfg)
        payload = result.to_json_dict(passages.ids)
        assert payload["query_id"] == "q7"
        assert len(payload["ranking"]) == 2
        first = payload["ranking"][0]
        assert set(first) == {"passage_id", "sim", "assoc", "blended"}
        assert first["passage_id"].startswith("p")


class TestPipeline:
    def test_stagewise_equals_one_shot(self):
        # Duplicated passage rows make many pool scores exactly equal, so the
        # tie rule decides much of the order. rerank_query, rank_rows over
        # score_pool, and a float64 sort by (-blended, row) must all agree.
        rng = np.random.default_rng(12)
        passages, model, transformed = pipeline_parts(rng, n=240)
        data = passages.data.copy()
        src = rng.integers(0, 240, size=60)
        dst = rng.integers(0, 240, size=60)
        data[dst] = data[src]
        passages = EmbeddingMatrix(ids=passages.ids, data=data, normalized=True)
        transformed = transform_matrix(model, passages)
        depth = 40
        queries = data[src[:6]] + 0.05 * rng.normal(size=(6, 24)).astype(np.float32)
        tied_pools = tied_blends = 0
        for lam in (0.0, 0.5, 1.0):
            for mode in SCORING_MODES:
                cfg = RerankConfig(blend_lambda=lam, pool_depth=depth, cutoff=depth, mode=mode)
                for q in queries:
                    scored = score_pool(["q"], q[None], passages, transformed, model, cfg)
                    one_shot = rerank_query("q", q, passages, transformed, model, cfg)
                    got = [e.passage_row for e in one_shot.entries]
                    assert rank_rows(scored, lam, depth).tolist() == [got]
                    # sims and assocs are float32 and, for these lambdas, each
                    # product is exact, so one rounding of the float64 blend
                    # to float32 gives the product's blended scores and ties
                    sims, assocs, rows = scored.sims[0], scored.assocs[0], scored.rows[0]
                    exact = (1.0 - lam) * sims.astype(np.float64) + lam * assocs.astype(np.float64)
                    blended = exact.astype(np.float32)
                    expected = sorted(
                        range(depth), key=lambda i: (-float(blended[i]), int(rows[i]))
                    )
                    assert got == rows[expected].tolist(), (lam, mode)
                    assert [e.blended for e in one_shot.entries] == blended[expected].tolist()
                    tied_pools += len(set(sims.tolist())) < depth
                    tied_blends += len(set(blended.tolist())) < depth
        assert tied_pools > 0 and tied_blends > 0

    def test_mismatched_transform_rejected(self):
        rng = np.random.default_rng(13)
        passages, model, transformed = pipeline_parts(rng, n=10)
        transformed.data = transformed.data[:-1]
        with pytest.raises(ValueError, match="does not match"):
            rerank_query(
                "q", passages.data[0], passages, transformed, model, RerankConfig(pool_depth=5, cutoff=2)
            )
