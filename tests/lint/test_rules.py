"""Fixture-corpus tests: each rule fires exactly where expected."""

from pathlib import Path

from repro.lint.runner import lint_paths, lint_source, module_name_for

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(fixture: str):
    path = FIXTURES / fixture
    return lint_source(path.read_text(), str(path))


def lines_with(findings, code):
    return sorted(f.line for f in findings if f.code == code)


class TestDet001WallClock:
    def test_bad_fixture_fires_at_expected_lines(self):
        findings = findings_for("bad_det001.py")
        assert lines_with(findings, "DET001") == [3, 9, 10, 14]
        assert all(f.code == "DET001" for f in findings)

    def test_clean_fixture_is_silent(self):
        assert findings_for("clean_det001.py") == []

    def test_allowlisted_module_is_exempt(self):
        source = "import time\nwall = time.perf_counter()\n"
        findings = lint_source(source, "metrics.py", module_name="repro.obs.metrics")
        assert findings == []
        # The same source outside the allowlist fires.
        findings = lint_source(source, "engine.py", module_name="repro.farms.catalog")
        assert lines_with(findings, "DET001") == [1, 2]

    def test_aliased_import_is_resolved(self):
        source = "import time as _walltime\n\nx = _walltime.monotonic()\n"
        findings = lint_source(source, "m.py", module_name="repro.analysis.stats")
        assert lines_with(findings, "DET001") == [1, 3]


class TestDet002UnseededRandom:
    def test_bad_fixture_fires_at_expected_lines(self):
        findings = findings_for("bad_det002.py")
        assert lines_with(findings, "DET002") == [3, 13, 17]

    def test_clean_fixture_is_silent(self):
        assert findings_for("clean_det002.py") == []

    def test_default_rng_allowed_only_in_rng_home(self):
        source = "import numpy as np\ngen = np.random.default_rng(7)\n"
        assert lint_source(source, "rng.py", module_name="repro.util.rng") == []
        outside = lint_source(source, "x.py", module_name="repro.sim.engine")
        assert lines_with(outside, "DET002") == [2]

    def test_from_import_of_draw_function(self):
        source = "from numpy.random import rand\n"
        findings = lint_source(source, "x.py", module_name="repro.osn.api")
        assert lines_with(findings, "DET002") == [1]

    def test_generator_type_import_is_fine(self):
        source = "from numpy.random import Generator\n"
        assert lint_source(source, "x.py", module_name="repro.osn.api") == []


class TestDet003SetOrder:
    def test_bad_fixture_fires_at_expected_lines(self):
        findings = findings_for("bad_det003.py")
        assert lines_with(findings, "DET003") == [7, 14, 18, 23]

    def test_clean_fixture_is_silent(self):
        assert findings_for("clean_det003.py") == []

    def test_sorted_wrapping_silences(self):
        source = "def f(xs):\n    return sorted(set(xs))\n"
        assert lint_source(source, "x.py") == []

    def test_membership_and_len_are_safe(self):
        source = (
            "def f(xs, ys):\n"
            "    seen = set(xs)\n"
            "    return len(seen) + sum(1 for y in ys if y in seen)\n"
        )
        assert lint_source(source, "x.py") == []

    def test_set_pop_is_flagged(self):
        source = "def f(xs):\n    s = set(xs)\n    return s.pop()\n"
        findings = lint_source(source, "x.py")
        assert lines_with(findings, "DET003") == [2]

    def test_self_attribute_tracked_across_methods(self):
        source = (
            "class C:\n"
            "    def __init__(self, xs):\n"
            "        self.seen = set(xs)\n"
            "    def dump(self):\n"
            "        return list(self.seen)\n"
        )
        findings = lint_source(source, "x.py")
        assert lines_with(findings, "DET003") == [3]

    def test_membership_only_attribute_is_safe(self):
        # The honeypot monitor's _seen set: membership + update only.
        source = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.seen = set()\n"
            "    def poll(self, ids):\n"
            "        new = tuple(u for u in ids if u not in self.seen)\n"
            "        self.seen.update(new)\n"
            "        return new\n"
        )
        assert lint_source(source, "x.py") == []

    def test_empty_set_return_is_exempt(self):
        source = "def f():\n    return set()\n"
        assert lint_source(source, "x.py") == []


class TestDet004ProcessState:
    def test_bad_fixture_fires_at_expected_lines(self):
        findings = findings_for("bad_det004.py")
        assert lines_with(findings, "DET004") == [3, 6, 15, 19]

    def test_clean_fixture_is_silent(self):
        assert findings_for("clean_det004.py") == []

    def test_only_failpoints_is_exempt(self):
        source = (
            "import multiprocessing\n"
            "import os\n\n"
            "def launch():\n"
            "    os.setpgrp()\n"
            "    return os.getpid()\n"
        )
        assert lint_source(source, "w.py", module_name="repro.failpoints") == []
        for module in ("repro.shard", "repro.shard.worker", "repro.sim.engine"):
            findings = lint_source(source, "w.py", module_name=module)
            assert lines_with(findings, "DET004") == [1, 5, 6]

    def test_aliased_os_call_is_resolved(self):
        source = "import os as _os\n\n_os.fork()\n"
        findings = lint_source(source, "x.py", module_name="repro.osn.api")
        assert lines_with(findings, "DET004") == [3]


class TestHyg001MutableDefault:
    def test_bad_fixture_fires_at_expected_lines(self):
        findings = findings_for("bad_hyg001.py")
        assert lines_with(findings, "HYG001") == [4, 9, 9]

    def test_clean_fixture_is_silent(self):
        assert findings_for("clean_hyg001.py") == []


class TestHyg002BroadExcept:
    def test_bad_fixture_fires_at_expected_lines(self):
        findings = findings_for("bad_hyg002.py")
        assert lines_with(findings, "HYG002") == [7, 14]

    def test_clean_fixture_is_silent(self):
        assert findings_for("clean_hyg002.py") == []


class TestHyg003SlotlessDataclass:
    def test_bad_fixture_fires_at_expected_lines(self):
        path = FIXTURES / "repro" / "osn" / "bad_hyg003.py"
        assert module_name_for(path) == "repro.osn.bad_hyg003"
        findings = lint_source(path.read_text(), str(path))
        assert lines_with(findings, "HYG003") == [12, 19]

    def test_clean_fixture_is_silent(self):
        path = FIXTURES / "repro" / "osn" / "clean_hyg003.py"
        assert lint_source(path.read_text(), str(path)) == []

    def test_cold_modules_are_exempt(self):
        source = "from dataclasses import dataclass\n\n@dataclass\nclass C:\n    x: int\n"
        assert lint_source(source, "x.py", module_name="repro.analysis.stats") == []
        hot = lint_source(source, "x.py", module_name="repro.osn.page")
        assert lines_with(hot, "HYG003") == [4]


class TestRunnerOverCorpus:
    def test_each_bad_fixture_fails_with_its_code(self):
        expectations = {
            "bad_det001.py": "DET001",
            "bad_det002.py": "DET002",
            "bad_det003.py": "DET003",
            "bad_det004.py": "DET004",
            "bad_hyg001.py": "HYG001",
            "bad_hyg002.py": "HYG002",
            "repro/osn/bad_hyg003.py": "HYG003",
        }
        for fixture, code in expectations.items():
            result = lint_paths([FIXTURES / fixture])
            assert result.exit_code == 1, fixture
            assert code in result.counts_by_code(), fixture

    def test_clean_fixtures_pass(self):
        for fixture in (
            "clean_det001.py", "clean_det002.py", "clean_det003.py",
            "clean_det004.py", "clean_hyg001.py", "clean_hyg002.py",
            "repro/osn/clean_hyg003.py", "suppressed_clean.py",
        ):
            result = lint_paths([FIXTURES / fixture])
            assert result.exit_code == 0, fixture
            assert result.findings == [], fixture

    def test_findings_are_sorted_and_stable(self):
        result = lint_paths([FIXTURES])
        ordering = [(f.path, f.line, f.code) for f in result.findings]
        assert ordering == sorted(ordering)
