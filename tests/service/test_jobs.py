"""Job canonicalization and JSONL parsing."""

import pytest

from repro.service.jobs import (
    AdviseJob,
    JobSpecError,
    MeasureJob,
    RPQJob,
    job_from_dict,
    job_key,
    parse_jsonl,
)


class TestCanonicalKeys:
    def test_attribute_order_invariance(self):
        assert job_key(AdviseJob(design="R(A,B,C); B->C")) == job_key(
            AdviseJob(design="R(C,B,A); B -> C")
        )

    def test_dependency_order_invariance(self):
        assert job_key(AdviseJob(design="R(A,B,C); A->B; B->C")) == job_key(
            AdviseJob(design="R(A,B,C); B->C; A->B")
        )

    def test_row_order_invariance(self):
        base = dict(design="R(A,B,C); B->C", position=(0, "C"))
        assert job_key(
            MeasureJob(rows=((1, 2, 3), (4, 2, 3)), **base)
        ) == job_key(MeasureJob(rows=((4, 2, 3), (1, 2, 3)), **base))

    def test_edge_order_invariance(self):
        edges_a = (("a", "l", "b"), ("b", "l", "c"))
        edges_b = (("b", "l", "c"), ("a", "l", "b"))
        assert job_key(RPQJob(edges=edges_a, query="l+")) == job_key(
            RPQJob(edges=edges_b, query="l+")
        )

    def test_different_designs_differ(self):
        assert job_key(AdviseJob(design="R(A,B,C); B->C")) != job_key(
            AdviseJob(design="R(A,B,C); A->C")
        )

    def test_mc_parameters_enter_the_key(self):
        base = dict(
            design="R(A,B); A->B",
            rows=((1, 2),),
            position=(0, "B"),
            method="montecarlo",
        )
        assert job_key(MeasureJob(seed=0, **base)) != job_key(
            MeasureJob(seed=1, **base)
        )
        assert job_key(MeasureJob(samples=100, **base)) != job_key(
            MeasureJob(samples=200, **base)
        )
        # An exact result never answers a sampled request, or vice versa.
        assert job_key(MeasureJob(**base)) != job_key(
            MeasureJob(**{**base, "method": "exact"})
        )
        design = "R(A,B,C); B->C"
        assert job_key(AdviseJob(design=design, method="exact")) != job_key(
            AdviseJob(design=design, method="auto")
        )

    def test_exact_ignores_mc_parameters(self):
        base = dict(design="R(A,B); A->B", rows=((1, 2),), position=(0, "B"))
        assert job_key(MeasureJob(seed=0, samples=100, **base)) == job_key(
            MeasureJob(seed=9, samples=500, **base)
        )

    def test_id_is_not_part_of_the_key(self):
        assert job_key(AdviseJob(design="R(A,B); A->B", id="x")) == job_key(
            AdviseJob(design="R(A,B); A->B", id="y")
        )


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(JobSpecError, match="unknown job kind"):
            job_from_dict({"kind": "frobnicate"})

    def test_unknown_field(self):
        with pytest.raises(JobSpecError, match="bad advise job"):
            job_from_dict({"kind": "advise", "design": "R(A,B)", "nope": 1})

    def test_bad_method(self):
        with pytest.raises(JobSpecError, match="method"):
            AdviseJob(design="R(A,B); A->B", method="guess")

    def test_bad_samples(self):
        with pytest.raises(JobSpecError, match="samples"):
            MeasureJob(
                design="R(A,B); A->B",
                rows=((1, 2),),
                position=(0, "B"),
                samples=0,
            )

    def test_bad_edge_shape(self):
        with pytest.raises(JobSpecError, match="edge"):
            RPQJob(edges=(("a", "b"),), query="l")


class TestJsonl:
    def test_parses_all_kinds_and_skips_comments(self):
        text = "\n".join(
            [
                "# a comment",
                '{"kind": "advise", "design": "R(A,B,C); B->C"}',
                "",
                '{"kind": "measure", "design": "R(A,B); A->B",'
                ' "rows": [[1,2]], "position": [0, "B"]}',
                '{"kind": "rpq", "edges": [["a","l","b"]], "query": "l"}',
            ]
        )
        jobs = parse_jsonl(text)
        assert [job.kind for job in jobs] == ["advise", "measure", "rpq"]

    def test_round_trip_through_to_dict(self):
        job = MeasureJob(
            design="R(A,B); A->B",
            rows=((1, 2),),
            position=(0, "B"),
            method="montecarlo",
            samples=50,
            seed=3,
            id="m",
        )
        assert job_from_dict(job.to_dict()) == job

    def test_line_numbers_in_errors(self):
        with pytest.raises(JobSpecError, match="line 2"):
            parse_jsonl('{"kind": "rpq", "edges": [], "query": "l"}\n{bad')
