"""Advisor query surface: normalization, keys, ranking, determinism."""

import json

import pytest

from repro.serve import advisor
from repro.serve.advisor import QueryError, advise, evaluate, normalize, query_key


class TestNormalize:
    def test_fills_defaults(self):
        canon = normalize({"kernel": "gemm", "params": {"order": 256}})
        assert canon["params"] == {"order": 256, "tile": 128}
        assert canon["candidates"] == advisor.default_candidates()
        assert canon["objective"] == "time"

    def test_idempotent(self):
        canon = normalize({"kernel": "spmv", "params": {"n_rows": 5000}})
        again = normalize(
            {
                "kernel": canon["kernel"],
                "params": canon["params"],
                "candidates": canon["candidates"],
            }
        )
        assert again == canon

    def test_params_sorted(self):
        canon = normalize({"kernel": "stencil", "params": {"nx": 20}})
        assert list(canon["params"]) == sorted(canon["params"])
        assert canon["params"] == {"nx": 20, "ny": 20, "nz": 20, "steps": 1}

    def test_sparse_canonical_params(self):
        canon = normalize({"kernel": "sptrsv", "params": {"n_rows": 3000}})
        assert canon["params"] == {
            "family": "random",
            "n_rows": 3000,
            "nnz": 48000,
        }

    def test_candidate_forms_equivalent(self):
        by_string = normalize(
            {
                "kernel": "stream",
                "params": {"n": 1 << 18},
                "candidates": ["knl/flat", "broadwell/on"],
            }
        )
        by_mapping = normalize(
            {
                "kernel": "stream",
                "params": {"n": 1 << 18},
                "candidates": [
                    {"platform": "broadwell", "mode": "on"},
                    {"platform": "knl", "mode": "flat"},
                ],
            }
        )
        assert by_string == by_mapping

    def test_bare_platform_expands_and_dedupes(self):
        canon = normalize(
            {
                "kernel": "stream",
                "params": {"n": 1 << 18},
                "candidates": ["knl", "knl/cache"],
            }
        )
        assert canon["candidates"] == [
            {"platform": "knl", "mode": m}
            for m in ("off", "cache", "flat", "hybrid", "hybrid25")
        ]

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ("not a dict", "JSON object"),
            ({"kernel": "nope"}, "unknown kernel"),
            ({"kernel": "stream"}, "missing required param"),
            ({"kernel": "stream", "params": {"n": "big"}}, "must be a number"),
            ({"kernel": "stream", "params": {"n": 1.5}}, "must be an integer"),
            ({"kernel": "stream", "params": {"n": 0}}, "out of range"),
            ({"kernel": "stream", "params": {"n": True}}, "must be a number"),
            (
                {"kernel": "stream", "params": {"n": 8, "order": 4}},
                "unknown params",
            ),
            (
                {"kernel": "gemm", "params": {"order": 64, "tile": 256}},
                "out of range",
            ),
            (
                {"kernel": "spmv", "params": {"n_rows": 100, "family": "x"}},
                "unknown matrix family",
            ),
            (
                {"kernel": "stream", "params": {"n": 8}, "candidates": []},
                "non-empty",
            ),
            (
                {"kernel": "stream", "params": {"n": 8}, "candidates": ["vax"]},
                "unknown platform",
            ),
            (
                {
                    "kernel": "stream",
                    "params": {"n": 8},
                    "candidates": ["knl/turbo"],
                },
                "unknown mode",
            ),
            ({"kernel": "stream", "params": {"n": 8}, "x": 1}, "unknown fields"),
            (
                {
                    "kernel": "stream",
                    "params": {"n": 8},
                    "objective": "edp",
                },
                "unknown objective",
            ),
            # JSON parses Infinity and NaN as floats, and big integers
            # exactly; neither may reach float() or int() unchecked.
            ({"kernel": "stream", "params": {"n": float("inf")}}, "must be an integer"),
            ({"kernel": "stream", "params": {"n": float("-inf")}}, "must be an integer"),
            ({"kernel": "stream", "params": {"n": float("nan")}}, "must be an integer"),
            ({"kernel": "stream", "params": {"n": 10**400}}, "out of range"),
        ],
    )
    def test_rejects(self, payload, fragment):
        with pytest.raises(QueryError, match=fragment):
            normalize(payload)


class TestQueryKey:
    def test_stable_across_spellings(self):
        a = query_key(normalize({"kernel": "gemm", "params": {"order": 256}}))
        b = query_key(
            normalize(
                {"kernel": "gemm", "params": {"order": 256, "tile": 128}}
            )
        )
        assert a == b

    def test_distinct_queries_distinct_keys(self):
        keys = {
            query_key(normalize({"kernel": "gemm", "params": {"order": n}}))
            for n in (128, 256, 384)
        }
        assert len(keys) == 3


class TestEvaluate:
    def test_deterministic(self):
        canon = normalize({"kernel": "fft", "params": {"size": 512}})
        first = evaluate(canon)
        second = evaluate(canon)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_ranking_sorted_and_labeled(self):
        out = advise({"kernel": "stream", "params": {"n": 1 << 20}})
        ranked = out["ranked"]
        assert len(ranked) == len(advisor.default_candidates())
        seconds = [r["seconds"] for r in ranked]
        assert seconds == sorted(seconds)
        assert [r["rank"] for r in ranked] == list(range(1, len(ranked) + 1))
        assert out["winner"]["platform"] == ranked[0]["platform"]
        assert out["winner"]["mode"] == ranked[0]["mode"]
        assert ranked[0]["slowdown_vs_best"] == pytest.approx(1.0)
        assert ranked[-1]["speedup_vs_worst"] == pytest.approx(1.0)
        assert all(r["speedup_vs_worst"] >= 1.0 for r in ranked)

    def test_restricted_candidates(self):
        out = advise(
            {
                "kernel": "gemm",
                "params": {"order": 192},
                "candidates": ["knl/cache", "knl/off"],
            }
        )
        assert {(r["platform"], r["mode"]) for r in out["ranked"]} == {
            ("knl", "cache"),
            ("knl", "off"),
        }

    def test_rows_carry_power(self):
        out = advise({"kernel": "stream", "params": {"n": 1 << 20}})
        assert out["objective"] == "time"
        for row in out["ranked"]:
            assert row["power_w"] > 0
            assert row["energy_j"] == pytest.approx(
                row["power_w"] * row["seconds"]
            )
        assert out["winner"]["energy_j"] == out["ranked"][0]["energy_j"]

    def test_energy_objective_ranks_by_energy(self):
        out = advise(
            {
                "kernel": "stream",
                "params": {"n": 1 << 20},
                "objective": "energy",
            }
        )
        assert out["objective"] == "energy"
        energies = [r["energy_j"] for r in out["ranked"]]
        assert energies == sorted(energies)
        assert out["ranked"][0]["slowdown_vs_best"] == pytest.approx(1.0)
        assert out["ranked"][-1]["speedup_vs_worst"] == pytest.approx(1.0)
        assert out["winner"]["energy_j"] == min(energies)

    def test_objective_changes_query_key(self):
        base = {"kernel": "stream", "params": {"n": 1 << 20}}
        time_key = query_key(normalize(base))
        energy_key = query_key(normalize({**base, "objective": "energy"}))
        assert time_key != energy_key

    def test_footprint_positive(self):
        out = advise({"kernel": "spmv", "params": {"n_rows": 2000}})
        assert out["footprint_bytes"] > 0
        assert out["schema"] == advisor.ADVISE_SCHEMA_VERSION
