"""The whole-program (``--xmod``) analysis pass, end to end.

Each rule family gets a positive fixture (a mini ``repro`` package with
a seeded cross-module defect) and a proven-safe negative; the facts
cache is exercised cold, warm, and across an edit; and the self-analysis
test pins ``src/`` clean so a regression in either the codebase or the
analyzer fails tier-1.
"""

import json
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.runner import LintResult, lint_paths
from repro.lint.sarif import render_sarif
from repro.lint.xmod import FactsCache, extract_module_facts

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
FIXTURES = Path(__file__).parent / "xmod_fixtures"


def xmod(name: str) -> LintResult:
    return lint_paths([FIXTURES / name], xmod=True)


def codes(result: LintResult) -> list:
    return sorted(f.code for f in result.findings)


def rendered(result: LintResult) -> str:
    return "\n".join(f.render() for f in result.findings)


# -- ARCH001: layering DAG and cycles ----------------------------------------- #


class TestLayering:
    def test_upward_import_from_osn_into_honeypot_is_refused(self):
        result = xmod("bad_arch")
        layer = [
            f for f in result.findings
            if f.code == "ARCH001" and "may not import" in f.message
        ]
        assert len(layer) == 1, rendered(result)
        assert layer[0].path.endswith("repro/osn/feed.py")
        assert "'osn'" in layer[0].message
        assert "'honeypot'" in layer[0].message

    def test_module_level_import_cycle_is_reported_on_both_edges(self):
        result = xmod("bad_arch")
        cycles = [
            f for f in result.findings
            if f.code == "ARCH001" and "import cycle" in f.message
        ]
        assert {Path(f.path).name for f in cycles} == {
            "cycle_a.py",
            "cycle_b.py",
        }, rendered(result)
        assert all("repro.util.cycle_a" in f.message for f in cycles)

    def test_downward_imports_are_clean(self):
        result = xmod("good_arch")
        assert result.findings == [], rendered(result)


# -- CKPT001/002: checkpoint coverage and symmetry ----------------------------- #


class TestCheckpointCoverage:
    def test_state_dict_missing_one_mutable_attr_is_caught(self):
        # The seeded regression from the issue: Tracker.count is mutated
        # across barriers but never snapshotted.
        result = xmod("bad_ckpt")
        misses = [f for f in result.findings if f.code == "CKPT002"]
        assert len(misses) == 1, rendered(result)
        assert "Tracker.count" in misses[0].message
        assert misses[0].path.endswith("repro/honeypot/tracker.py")

    def test_barrier_reachable_mutable_state_without_state_dict(self):
        result = xmod("bad_ckpt")
        missing = [f for f in result.findings if f.code == "CKPT001"]
        assert len(missing) == 1, rendered(result)
        assert "class Ledger holds mutable state (entries)" in missing[0].message
        assert missing[0].path.endswith("repro/honeypot/tracker.py")

    def test_symmetric_fully_covered_pair_is_clean(self):
        result = xmod("good_ckpt")
        assert result.findings == [], rendered(result)


# -- XDET: cross-module stream lineage ----------------------------------------- #


class TestStreamLineage:
    def test_draw_after_fork_direct_and_through_a_callee(self):
        result = xmod("bad_rng")
        draws = [f for f in result.findings if f.code == "XDET001"]
        assert len(draws) == 2, rendered(result)
        by_message = sorted(f.message for f in draws)
        assert "in direct" in by_message[0]
        assert "inside draw_noise" in by_message[1]  # interprocedural

    def test_aliasing_duplicate_label_loop_fork_and_double_retention(self):
        result = xmod("bad_rng")
        aliases = sorted(
            f.message for f in result.findings if f.code == "XDET002"
        )
        assert len(aliases) == 3, rendered(result)
        assert any("forked twice under the same label" in m for m in aliases)
        assert any("inside a loop" in m for m in aliases)
        assert any("retained by two callees" in m for m in aliases)

    def test_root_constructed_outside_the_discipline(self):
        result = xmod("bad_rng")
        roots = [f for f in result.findings if f.code == "XDET003"]
        assert len(roots) == 1, rendered(result)
        assert roots[0].path.endswith("rootmaker.py")

    def test_disciplined_usage_is_clean(self):
        # draw-then-fork, distinct labels, dynamic per-page labels, and
        # per-consumer children must all pass.
        result = xmod("good_rng")
        assert result.findings == [], rendered(result)


# -- SQL001: literals vs the schema DDL ---------------------------------------- #


class TestSqlSchema:
    def test_every_contradiction_kind_is_caught(self):
        result = xmod("bad_sql")
        messages = "\n".join(
            f.message for f in result.findings if f.code == "SQL001"
        )
        assert "column 'cost' is not declared" in messages
        assert "table 'likerz' not declared" in messages
        assert "'campaigns' has no column 'follower_count'" in messages
        assert "INSERT column 'region' is not declared" in messages
        assert "CREATE INDEX key column 'budget'" in messages

    def test_joins_upserts_and_dynamic_fragments_are_clean(self):
        result = xmod("good_sql")
        assert result.findings == [], rendered(result)


# -- FP001: the failpoint catalog ---------------------------------------------- #


class TestFailpoints:
    def test_every_catalog_violation_kind_is_caught(self):
        result = xmod("bad_fp")
        messages = "\n".join(
            f.message for f in result.findings if f.code == "FP001"
        )
        assert "'durable.rename' registered twice" in messages
        assert "registered with a non-literal name" in messages
        assert "registered outside the registry module" in messages
        assert "hit() called with a non-literal name" in messages
        assert "hit('durable.typo') names an unregistered" in messages
        assert "'ckpt.dead.entry' is registered but never hit" in messages
        assert len([f for f in result.findings if f.code == "FP001"]) == 6

    def test_rogue_registration_is_anchored_at_its_call_site(self):
        result = xmod("bad_fp")
        rogue = [
            f for f in result.findings
            if f.code == "FP001" and "outside the registry" in f.message
        ]
        assert len(rogue) == 1
        assert rogue[0].path.endswith("repro/store/rogue.py")

    def test_closed_literal_fully_hit_catalog_is_clean(self):
        result = xmod("good_fp")
        assert result.findings == [], rendered(result)

    def test_real_registry_matches_the_extracted_catalog(self):
        # The runtime registry and FP001's static view of src/ must agree
        # exactly — a drift either way breaks the sweep's completeness.
        import ast

        from repro import failpoints

        source = (SRC / "repro/failpoints.py").read_text()
        facts = extract_module_facts(
            ast.parse(source), "failpoints.py", "repro.failpoints"
        )
        static = sorted(
            f.name for f in facts.failpoints if f.kind == "register"
        )
        assert static == failpoints.all_failpoints()


# -- facts cache --------------------------------------------------------------- #


class TestFactsCache:
    def test_cold_then_warm_then_invalidation_on_edit(self, tmp_path):
        fixture = tmp_path / "repro" / "sim"
        fixture.mkdir(parents=True)
        a = fixture / "a.py"
        b = fixture / "b.py"
        a.write_text("X = 1\n")
        b.write_text("Y = 2\n")
        cache_path = tmp_path / "cache.json"

        cold = lint_paths([tmp_path], xmod=True, xmod_cache=cache_path)
        assert cold.xmod["cache_misses"] == 2
        assert cold.xmod["cache_hits"] == 0
        assert cache_path.exists()

        warm = lint_paths([tmp_path], xmod=True, xmod_cache=cache_path)
        assert warm.xmod["cache_hits"] == 2
        assert warm.xmod["cache_misses"] == 0
        assert warm.xmod["cache_hit_rate"] == 1.0

        a.write_text("X = 3\n")  # content hash changes; b.py stays cached
        edited = lint_paths([tmp_path], xmod=True, xmod_cache=cache_path)
        assert edited.xmod["cache_hits"] == 1
        assert edited.xmod["cache_misses"] == 1

    def test_cached_facts_equal_freshly_extracted_facts(self, tmp_path):
        import ast

        source = (FIXTURES / "bad_rng/repro/sim/alias.py").read_text()
        fresh = extract_module_facts(
            ast.parse(source), "alias.py", "repro.sim.alias"
        )
        cache_path = tmp_path / "cache.json"
        cache = FactsCache(cache_path)
        cache.put("alias.py", source, fresh)
        cache.save()
        reloaded = FactsCache(cache_path).get("alias.py", source)
        assert reloaded is not None
        assert reloaded.as_dict() == fresh.as_dict()

    def test_corrupt_cache_file_degrades_to_cold(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        (tmp_path / "m.py").write_text("Z = 1\n")
        result = lint_paths([tmp_path], xmod=True, xmod_cache=cache_path)
        assert result.xmod["cache_misses"] == 1  # corrupt cache = cold start


# -- self-analysis: src/ must hold the whole-program contract ------------------ #


class TestSelfAnalysis:
    def test_src_is_xmod_clean_with_the_committed_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        result = lint_paths([SRC], baseline=baseline, xmod=True)
        assert result.findings == [], (
            "src/ fails whole-program analysis:\n" + rendered(result)
        )
        assert result.xmod["modules"] == result.checked_files

    def test_no_unused_suppressions_under_xmod(self):
        result = lint_paths([SRC], xmod=True)
        unused = [f.render() for f in result.findings if f.code == "LNT001"]
        assert unused == []

    def test_xmod_suppressions_are_inert_in_per_module_runs(self):
        # src/ carries allow-CKPT00x suppressions for the whole-program
        # rules; a per-module run must treat them as inert, not unused.
        result = lint_paths([SRC])
        unused = [f.render() for f in result.findings if f.code == "LNT001"]
        assert unused == []


# -- SARIF reporter ------------------------------------------------------------ #


class TestSarif:
    def test_findings_render_as_sarif_results(self):
        result = xmod("bad_arch")
        log = json.loads(render_sarif(result))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert len(run["results"]) == len(result.findings)
        first = run["results"][0]
        assert first["ruleId"] == "ARCH001"
        assert first["level"] == "error"
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(".py")
        assert location["region"]["startLine"] >= 1

    def test_rule_metadata_covers_every_reported_code(self):
        result = xmod("bad_rng")
        run = json.loads(render_sarif(result))["runs"][0]
        declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        used = {r["ruleId"] for r in run["results"]}
        assert used <= declared
        assert {"XDET001", "XDET002", "XDET003"} <= declared

    def test_clean_run_renders_an_empty_results_array(self):
        log = json.loads(render_sarif(xmod("good_rng")))
        assert log["runs"][0]["results"] == []
