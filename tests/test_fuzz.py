"""Tests for the differential kernel fuzzer (repro.devtools.fuzz).

The fuzzer guards the kernel tiers' and the series loader's exactness
claims, so these tests
pin three properties: a clean tree produces zero divergences over a CI
budget, the whole run is deterministic in its seed, and — the part that
makes the first property meaningful — every injected kernel bug is
caught (the alarm rings).
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from repro.core.counting import brute_force_frequent
from repro.devtools import fuzz as fuzz_mod
from repro.devtools.fuzz import (
    FuzzCase,
    brute_force_patterns,
    fuzz,
    generate_series,
    mutation_check,
    random_case,
    run_case,
)


class TestCleanRun:
    def test_no_divergences_over_ci_budget(self):
        report = fuzz(150, seed=10)
        assert report.ok, [d.describe() for d in report.divergences]
        assert report.executed == 150
        # Coverage guidance actually distinguishes shapes.
        assert report.signatures > 20

    def test_deterministic_in_seed(self):
        first = fuzz(40, seed=3)
        second = fuzz(40, seed=3)
        assert first.to_json() == second.to_json()

    def test_case_generation_deterministic(self):
        case = random_case(random.Random(5))
        assert generate_series(case).slots == generate_series(case).slots

    def test_report_json_shape(self):
        payload = fuzz(10, seed=1).to_json()
        assert set(payload) == {
            "executed", "signatures", "corpus_size", "ok", "divergences",
        }


class TestOracle:
    def test_brute_force_matches_core_oracle(self):
        for seed in range(4):
            case = random_case(random.Random(seed))
            series = generate_series(case)
            if not len(list(series.segments(case.period))):
                continue
            ours = brute_force_patterns(series, case.period, 0.5)
            if ours is None:
                continue
            reference = {
                frozenset(p.letters): c
                for p, c in brute_force_frequent(
                    series, case.period, 0.5
                ).items()
            }
            assert ours == reference

    def test_run_case_flags_nothing_on_clean_kernels(self):
        case = FuzzCase(
            seed=21, period=3, num_segments=20, alphabet=5,
            planted=2, planting=0.9, noise=1, min_conf=0.5,
        )
        divergences, signature = run_case(case)
        assert divergences == []
        assert signature[0] == 3  # the period is part of coverage


class TestMutationCheck:
    def test_all_injected_bugs_caught(self):
        caught = mutation_check(budget=30, seed=4)
        assert len(caught) == 6
        assert all(caught.values()), caught

    def test_mutations_are_restored_after_check(self):
        from repro.kernels import columnar, slotcodes
        from repro.timeseries import io

        targets = [
            (columnar, "distinct_counts"), (columnar, "letter_bit_totals"),
            (columnar, "count_masks"), (columnar, "hit_counter"),
            (slotcodes, "project_pairs"), (io, "_UNSAFE_BYTES"),
            (io, "READ_BLOCK_BYTES"),
        ]
        before = [getattr(module, name) for module, name in targets]
        mutation_check(budget=5, seed=0)
        for (module, name), attr in zip(targets, before):
            assert getattr(module, name) is attr

    def test_single_injected_bug_produces_divergence(self):
        original = fuzz_mod._mutation_targets  # sanity on one target
        targets = original()
        module, attribute, corrupted = targets["dropped-distinct-row"]
        pristine = getattr(module, attribute)
        setattr(module, attribute, corrupted)
        try:
            report = fuzz(25, seed=6)
        finally:
            setattr(module, attribute, pristine)
        assert not report.ok
        stages = Counter(d.stage for d in report.divergences)
        assert stages  # at least one stage noticed


class TestBudgetShape:
    @pytest.mark.parametrize("budget", (1, 7))
    def test_budget_respected(self, budget):
        assert fuzz(budget, seed=2).executed == budget


class TestLoaderStage:
    def test_random_files_cover_the_input_edges(self):
        rng = random.Random(7)
        blob = b"".join(fuzz_mod.random_series_bytes(rng) for _ in range(200))
        for edge in (
            b"\r\n", b"\r\r\n", b"\xff", b"*", b"\x01", b"\x7f", b"# ",
            b"\xef\xbb\xbf", b"\x0b", b"\x1c", b"\xe2\x80\xa8",
        ):
            assert edge in blob, edge
        assert any(
            len(line) > 64 for line in blob.split(b"\n")
        ), "no line longer than the smallest fuzzed read block"

    def test_loader_divergence_is_reported(self, monkeypatch):
        from repro.timeseries import io

        monkeypatch.setattr(io, "_UNSAFE_BYTES", re.compile(rb"[*]"))
        report = fuzz(30, seed=4)
        assert any(d.stage.startswith("load:") for d in report.divergences)
