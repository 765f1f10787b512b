"""Determinism-contracts linter tests: per-rule violating/clean fixture
pairs for RPL001-RPL007, pragma suppression (including the
missing-reason rejection, RPL000), the versioned JSON report schema, CLI
exit codes, and the self-hosting property — the repo's own sources lint
clean, and every function in ``src/repro`` carries a return annotation
(the mypy ratchet's level 1, pinned here because mypy itself is only
present in CI)."""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.lint import (
    Finding,
    LintResult,
    all_rules,
    lint_files,
    lint_source,
    parse_pragmas,
)
from repro.lint.cli import main as lint_main
from repro.lint.framework import module_name
from repro.lint.pragmas import MALFORMED_PRAGMA_CODE
from repro.lint.reporters import JSON_REPORT_VERSION, as_json_document, render_text
from repro.lint.rules_contracts import (
    NON_COUNT_EXPRESSIBLE,
    check_registry_contracts,
)

REPO_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(findings) -> list:
    return [finding.code for finding in findings]


# ---------------------------------------------------------------------------
# RPL001 — unseeded RNG construction / module-level shared-state draws
# ---------------------------------------------------------------------------

class TestUnseededRandom:
    def test_unseeded_random_constructor_flagged(self):
        findings = lint_source("import random\nrng = random.Random()\n")
        assert codes(findings) == ["RPL001"]
        assert findings[0].line == 2

    def test_unseeded_default_rng_flagged_through_alias(self):
        findings = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n")
        assert codes(findings) == ["RPL001"]

    def test_explicit_none_seed_flagged(self):
        findings = lint_source("import random\nrng = random.Random(None)\n")
        assert codes(findings) == ["RPL001"]

    def test_module_level_draw_flagged(self):
        findings = lint_source("import random\nx = random.randint(0, 9)\n")
        assert codes(findings) == ["RPL001"]

    def test_np_random_module_draw_flagged(self):
        findings = lint_source(
            "import numpy as np\nx = np.random.random(4)\n")
        assert codes(findings) == ["RPL001"]

    def test_seeded_constructions_clean(self):
        source = (
            "import random\n"
            "import numpy as np\n"
            "rng = random.Random(7)\n"
            "gen = np.random.default_rng(7)\n"
            "seq = np.random.SeedSequence(7)\n"
        )
        assert lint_source(source) == []

    def test_from_import_alias_resolved(self):
        findings = lint_source(
            "from numpy.random import default_rng as mk\nrng = mk()\n")
        assert codes(findings) == ["RPL001"]


# ---------------------------------------------------------------------------
# RPL002 — wall-clock reads in pure fold/hash layers
# ---------------------------------------------------------------------------

class TestWallClock:
    def test_wall_clock_in_pure_layer_flagged(self):
        findings = lint_source(
            "import time\nstamp = time.time()\n",
            module="repro.campaign.planner")
        assert codes(findings) == ["RPL002"]

    def test_datetime_now_flagged_in_analysis(self):
        findings = lint_source(
            "from datetime import datetime\nstamp = datetime.now()\n",
            module="repro.analysis.reporting")
        assert codes(findings) == ["RPL002"]

    def test_aliased_perf_counter_flagged(self):
        findings = lint_source(
            "from time import perf_counter as pc\nt = pc()\n",
            module="repro.campaign.report")
        assert codes(findings) == ["RPL002"]

    def test_wall_clock_outside_scope_clean(self):
        # Timing belongs to the runner layer, recorded as data.
        findings = lint_source(
            "import time\nstamp = time.time()\n",
            module="repro.campaign.runner")
        assert findings == []

    def test_pure_layer_without_clocks_clean(self):
        findings = lint_source(
            "import json\npayload = json.dumps({'a': 1}, sort_keys=True)\n",
            module="repro.campaign.planner")
        assert findings == []


# ---------------------------------------------------------------------------
# RPL003 — broad / bare except
# ---------------------------------------------------------------------------

class TestBroadExcept:
    def test_bare_except_flagged(self):
        findings = lint_source(
            "try:\n    x = 1\nexcept:\n    pass\n")
        assert codes(findings) == ["RPL003"]

    def test_except_exception_flagged(self):
        findings = lint_source(
            "try:\n    x = 1\nexcept Exception:\n    pass\n")
        assert codes(findings) == ["RPL003"]

    def test_tuple_containing_base_exception_flagged(self):
        findings = lint_source(
            "try:\n    x = 1\nexcept (ValueError, BaseException):\n    pass\n")
        assert codes(findings) == ["RPL003"]

    def test_narrow_except_clean(self):
        findings = lint_source(
            "try:\n    x = 1\nexcept (ValueError, KeyError):\n    pass\n")
        assert findings == []


# ---------------------------------------------------------------------------
# RPL004 — store writes bypassing the atomic-append helper
# ---------------------------------------------------------------------------

class TestStoreBypass:
    def test_write_mode_open_flagged_in_campaign(self):
        findings = lint_source(
            "with open('out.jsonl', 'w') as fh:\n    fh.write('x')\n",
            module="repro.campaign.runner")
        assert codes(findings) == ["RPL004"]

    def test_mode_keyword_flagged(self):
        findings = lint_source(
            "fh = open('out.jsonl', mode='a')\n",
            module="repro.campaign.report")
        assert codes(findings) == ["RPL004"]

    def test_path_write_text_flagged(self):
        findings = lint_source(
            "from pathlib import Path\nPath('x').write_text('y')\n",
            module="repro.campaign.spec")
        assert codes(findings) == ["RPL004"]

    def test_read_mode_open_clean(self):
        findings = lint_source(
            "with open('spec.json') as fh:\n    data = fh.read()\n",
            module="repro.campaign.spec")
        assert findings == []

    def test_new_campaign_modules_are_in_scope(self):
        # The runner and the queue hold no write path of their own — if
        # one appears, it is a finding, not a new sanctioned case.
        for module in ("repro.campaign.runner", "repro.campaign.queue"):
            findings = lint_source(
                "with open('out.jsonl', 'a') as fh:\n    fh.write('x')\n",
                module=module)
            assert codes(findings) == ["RPL004"]

    def test_sanctioned_writer_module_is_exempt(self):
        # store.py owns both sanctioned writers: the atomic-append helper
        # and compact_store's write-temp-then-rename rewrite.
        from repro.lint.rules_robustness import StoreBypassRule
        assert StoreBypassRule.sanctioned_modules == ("repro.campaign.store",)
        findings = lint_source(
            "import os\n"
            "with open('s.jsonl.compact.tmp', 'wb') as fh:\n"
            "    fh.write(b'{}')\n"
            "os.replace('s.jsonl.compact.tmp', 's.jsonl')\n",
            module="repro.campaign.store")
        assert findings == []

    def test_store_module_itself_exempt(self):
        # The helper module owns the durability contract.
        findings = lint_source(
            "fh = open('results.jsonl', 'a')\n",
            module="repro.campaign.store")
        assert findings == []

    def test_transport_module_is_in_scope(self):
        # The shared-memory result transport moves records between
        # processes; the single-writer store contract only holds if it
        # never grows a file-write path of its own.
        findings = lint_source(
            "with open('results.jsonl', 'a') as fh:\n    fh.write('x')\n",
            module="repro.engine.transport")
        assert codes(findings) == ["RPL004"]

    def test_outside_campaign_layer_clean(self):
        findings = lint_source(
            "fh = open('notes.txt', 'w')\n",
            module="repro.engine.experiment")
        assert findings == []


# ---------------------------------------------------------------------------
# RPL005 — registry contracts (seeded violations via the parameterised probe)
# ---------------------------------------------------------------------------

class TestRegistryContracts:
    def test_protocol_without_state_order_flagged(self):
        class NoOrder:
            pass

        findings = check_registry_contracts(
            "registry.py", protocols={"broken": NoOrder}, predicates={})
        assert codes(findings) == ["RPL005"]
        assert "state_order" in findings[0].message

    def test_non_expressible_predicate_needs_allowlisting(self):
        from repro.protocols.registry import PROTOCOLS

        class Opaque:
            def __call__(self, configuration):
                return False

        findings = check_registry_contracts(
            "registry.py",
            protocols={"pairing": PROTOCOLS["pairing"]},
            predicates={"opaque": lambda sim, proto, init: Opaque()},
            allowlist=set())
        assert codes(findings) == ["RPL005"]
        assert "not count-expressible" in findings[0].message

    def test_allowlisted_gap_clean(self):
        from repro.protocols.registry import PROTOCOLS

        class Opaque:
            def __call__(self, configuration):
                return False

        findings = check_registry_contracts(
            "registry.py",
            protocols={"pairing": PROTOCOLS["pairing"]},
            predicates={"opaque": lambda sim, proto, init: Opaque()},
            allowlist={("opaque", "pairing")})
        assert findings == []

    def test_stale_allowlist_entry_flagged(self):
        from repro.protocols.registry import PREDICATES, PROTOCOLS

        findings = check_registry_contracts(
            "registry.py",
            protocols={"epidemic": PROTOCOLS["epidemic"]},
            predicates={"stable-output": PREDICATES["stable-output"]},
            allowlist={("stable-output", "epidemic")})
        assert codes(findings) == ["RPL005"]
        assert "stale" in findings[0].message

    def test_live_registries_match_inventory(self):
        # The shipped allowlist is exactly the current compile-gap set.
        findings = check_registry_contracts("registry.py")
        assert findings == []
        assert NON_COUNT_EXPRESSIBLE == {
            ("stable-output", "averaging"),
            ("stable-output", "approximate-majority"),
            ("stable-output", "and"),
        }


# ---------------------------------------------------------------------------
# RPL006 — unordered iteration feeding hashes / plans / report folds
# ---------------------------------------------------------------------------

class TestUnorderedIteration:
    def test_set_iteration_flagged_in_campaign(self):
        findings = lint_source(
            "rows = [cell for cell in {1, 2, 3}]\n",
            module="repro.campaign.planner")
        assert codes(findings) == ["RPL006"]

    def test_set_constructor_for_loop_flagged(self):
        findings = lint_source(
            "for cell in set(cells):\n    emit(cell)\n",
            module="repro.campaign.planner")
        assert codes(findings) == ["RPL006"]

    def test_completed_ids_iteration_flagged(self):
        findings = lint_source(
            "def fold(store):\n"
            "    return [cid for cid in store.completed_ids()]\n",
            module="repro.campaign.report")
        assert codes(findings) == ["RPL006"]

    def test_dict_view_into_join_flagged(self):
        findings = lint_source(
            "header = ' '.join(fixed.keys())\n",
            module="repro.campaign.report")
        assert codes(findings) == ["RPL006"]

    def test_sorted_boundary_clean(self):
        source = (
            "rows = [cell for cell in sorted({1, 2, 3})]\n"
            "header = ' '.join(sorted(fixed.keys()))\n"
            "grid = tuple(sorted(set(cells)))\n"
        )
        assert lint_source(source, module="repro.campaign.planner") == []

    def test_outside_ordered_layers_clean(self):
        findings = lint_source(
            "rows = [cell for cell in {1, 2, 3}]\n",
            module="repro.scheduling.scheduler")
        assert findings == []


# ---------------------------------------------------------------------------
# RPL007 — observability is write-only (no obs imports in pure layers,
# no recorder values reaching determinism sinks)
# ---------------------------------------------------------------------------

class TestObsOneWay:
    def test_obs_import_flagged_in_planner(self):
        findings = lint_source(
            "from repro.obs.recorder import get_recorder\n",
            module="repro.campaign.planner")
        assert codes(findings) == ["RPL007"]

    def test_obs_package_import_flagged_in_analysis(self):
        findings = lint_source(
            "import repro.obs\n", module="repro.analysis.reporting")
        assert codes(findings) == ["RPL007"]

    def test_obs_import_flagged_in_store(self):
        findings = lint_source(
            "from repro.obs import MetricsRecorder\n",
            module="repro.campaign.store")
        assert codes(findings) == ["RPL007"]

    def test_obs_import_outside_pure_layers_clean(self):
        source = "from repro.obs.recorder import get_recorder\n"
        assert lint_source(source, module="repro.engine.convergence") == []
        assert lint_source(source, module="repro.campaign.runner") == []

    def test_recorder_flow_into_canonical_json_flagged(self):
        findings = lint_source(
            "from repro.obs.recorder import get_recorder\n"
            "payload = canonical_json(get_recorder())\n",
            module="repro.campaign.runner")
        assert codes(findings) == ["RPL007"]

    def test_tainted_local_flow_into_hashlib_flagged(self):
        findings = lint_source(
            "import hashlib\n"
            "from repro.obs.recorder import get_recorder\n"
            "obs = get_recorder()\n"
            "digest = hashlib.sha256(obs)\n",
            module="repro.engine.experiment")
        assert codes(findings) == ["RPL007"]

    def test_recorder_flow_into_store_append_flagged(self):
        findings = lint_source(
            "from repro.obs.recorder import NULL_RECORDER\n"
            "store.append_cell(NULL_RECORDER)\n",
            module="repro.campaign.runner")
        assert codes(findings) == ["RPL007"]

    def test_write_only_instrumentation_clean(self):
        source = (
            "from repro.obs.recorder import NULL_RECORDER, get_recorder\n"
            "def run(store, record) -> None:\n"
            "    obs = get_recorder()\n"
            "    if obs is not NULL_RECORDER:\n"
            "        obs.counter('engine.runs')\n"
            "        obs.event('campaign.cell', status=record['status'])\n"
            "    store.append_cell(record)\n"
        )
        assert lint_source(source, module="repro.campaign.runner") == []


# ---------------------------------------------------------------------------
# Pragmas — suppression requires a reason; malformed pragmas are findings
# ---------------------------------------------------------------------------

class TestPragmas:
    VIOLATION = "import random\nrng = random.Random()\n"

    def test_trailing_pragma_with_reason_suppresses(self):
        source = ("import random\n"
                  "rng = random.Random()  "
                  "# repro-lint: disable=RPL001 reason=fixture exercises the "
                  "unseeded path\n")
        assert lint_source(source) == []

    def test_standalone_pragma_applies_to_next_statement(self):
        source = ("import random\n"
                  "# repro-lint: disable=RPL001 reason=fixture exercises the "
                  "unseeded path\n"
                  "rng = random.Random()\n")
        assert lint_source(source) == []

    def test_pragma_without_reason_rejected(self):
        source = ("import random\n"
                  "rng = random.Random()  # repro-lint: disable=RPL001\n")
        findings = lint_source(source)
        # The violation survives AND the reason-less pragma is flagged.
        assert codes(findings) == ["RPL000", "RPL001"]

    def test_malformed_pragma_body_flagged(self):
        findings = lint_source("x = 1  # repro-lint: disble=RPL001\n")
        assert codes(findings) == [MALFORMED_PRAGMA_CODE]

    def test_pragma_only_suppresses_listed_codes(self):
        source = ("import random\n"
                  "rng = random.Random()  "
                  "# repro-lint: disable=RPL003 reason=wrong code on purpose\n")
        assert codes(lint_source(source)) == ["RPL001"]

    def test_pragma_in_docstring_is_not_a_pragma(self):
        # Pragmas are comments; the same text inside a string is inert.
        source = ('"""Docs: # repro-lint: disable=RPL001"""\n'
                  "import random\nrng = random.Random()\n")
        assert codes(lint_source(source)) == ["RPL001"]

    def test_parse_pragmas_records_reason(self):
        index = parse_pragmas(
            "x = 1  # repro-lint: disable=RPL001,RPL003 reason=shared fixture\n")
        assert index.malformed == []
        assert index.suppresses(1, "RPL001")
        assert index.suppresses(1, "RPL003")
        assert not index.suppresses(1, "RPL002")

    def test_rpl000_is_not_suppressible(self):
        source = ("x = 1  # repro-lint: disable=RPL001\n")
        findings = lint_source(source)
        assert MALFORMED_PRAGMA_CODE in codes(findings)


# ---------------------------------------------------------------------------
# Reporters — the JSON document is versioned and stable
# ---------------------------------------------------------------------------

class TestReporters:
    RESULT = LintResult(
        findings=[Finding(code="RPL001", path="pkg/mod.py", line=3,
                          column=5, message="unseeded rng")],
        files_checked=2)

    def test_json_document_schema(self):
        document = as_json_document(self.RESULT)
        assert document == {
            "version": JSON_REPORT_VERSION,
            "files_checked": 2,
            "findings": [
                {"rule": "RPL001", "path": "pkg/mod.py", "line": 3,
                 "column": 5, "message": "unseeded rng"},
            ],
            "summary": {"RPL001": 1},
        }

    def test_json_round_trips(self):
        from repro.lint.reporters import render_json
        assert json.loads(render_json(self.RESULT)) == as_json_document(self.RESULT)

    def test_text_report_lists_finding_and_counts(self):
        text = render_text(self.RESULT)
        assert "pkg/mod.py:3:5: RPL001 unseeded rng" in text
        assert "1 finding (RPL001: 1) in 2 files" in text

    def test_clean_text_report(self):
        clean = LintResult(findings=[], files_checked=7)
        assert render_text(clean) == "repro lint: 7 files clean\n"


# ---------------------------------------------------------------------------
# Driver + CLI — selection, exit codes, syntax-error findings
# ---------------------------------------------------------------------------

class TestDriver:
    def test_module_name_anchors_at_repro(self):
        assert module_name("/x/src/repro/campaign/store.py") == "repro.campaign.store"
        assert module_name("/x/src/repro/lint/__init__.py") == "repro.lint"
        assert module_name("/tmp/fixture.py") == "fixture"

    def test_lint_files_flags_syntax_errors(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        result = lint_files([str(bad)])
        assert codes(result.findings) == ["RPL999"]

    def test_select_and_ignore(self, tmp_path):
        target = tmp_path / "fixture.py"
        target.write_text(
            "import random\n"
            "rng = random.Random()\n"
            "try:\n    x = 1\nexcept Exception:\n    pass\n")
        both = lint_files([str(target)])
        assert codes(both.findings) == ["RPL001", "RPL003"]
        only_rng = lint_files([str(target)], select=["RPL001"])
        assert codes(only_rng.findings) == ["RPL001"]
        no_rng = lint_files([str(target)], ignore=["RPL001"])
        assert codes(no_rng.findings) == ["RPL003"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nrng = random.Random()\n")
        clean = tmp_path / "clean.py"
        clean.write_text("import random\nrng = random.Random(7)\n")

        assert lint_main([str(clean)]) == 0
        assert lint_main([str(dirty)]) == 1
        assert lint_main([str(dirty), "--select", "NOPE9"]) == 2
        capsys.readouterr()

    def test_cli_json_output(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nrng = random.Random()\n")
        assert lint_main([str(dirty), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == JSON_REPORT_VERSION
        assert document["summary"] == {"RPL001": 1}

    def test_repro_cli_exposes_lint(self, tmp_path, capsys):
        from repro.cli import main as repro_main
        clean = tmp_path / "clean.py"
        clean.write_text("import random\nrng = random.Random(7)\n")
        assert repro_main(["lint", str(clean)]) == 0
        assert "1 files clean" in capsys.readouterr().out

    def test_all_rules_cover_the_documented_codes(self):
        assert [rule.code for rule in all_rules()] == [
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
            "RPL007"]


# ---------------------------------------------------------------------------
# Self-hosting — the repo passes its own bar
# ---------------------------------------------------------------------------

class TestSelfHost:
    def test_repo_sources_lint_clean(self):
        result = lint_files([str(REPO_SRC)])
        assert result.findings == []
        assert result.files_checked > 50

    def test_tools_entry_point_exits_zero(self):
        repo_root = REPO_SRC.parent.parent
        completed = subprocess.run(
            [sys.executable, str(repo_root / "tools" / "repro_lint.py")],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(repo_root / "src")},
            cwd=str(repo_root))
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "files clean" in completed.stdout

    def test_every_function_has_a_return_annotation(self):
        # Level 1 of the mypy ratchet (mypy.ini / docs/invariants.md):
        # mypy runs only in CI, so the annotation floor is pinned here.
        missing = []
        for path in sorted(REPO_SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and node.returns is None:
                    missing.append(f"{path.name}:{node.lineno} {node.name}")
        assert missing == []
