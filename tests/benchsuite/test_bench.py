"""Tests for ``repro bench`` (engine comparison) and ``tables --engine``."""

import contextlib
import io
import json

from repro.benchsuite import (BENCH_PARITY_FIELDS, all_programs, run_bench,
                              run_suite)
from repro.checks import CheckKind, OptimizerOptions, Scheme
from repro.interp import ExecutionCounters
from repro.pipeline.cache import BackendCache, FrontendCache
from repro.reporting import (BENCH_SCHEMA, TABLE3_LABELS, bench_to_dict,
                             render_tables_text, table2_labels,
                             tables_to_dict)


def small_bench(count=2, **kwargs):
    return run_bench(all_programs()[:count], small=True, repeats=1,
                     cache=FrontendCache(), backend_cache=BackendCache(),
                     **kwargs)


class TestRunBench:
    def test_counts_and_output_agree_across_engines(self):
        result = small_bench()
        assert result.counts_ok()
        for row in result.programs:
            assert not row.mismatches
            interp = row.engines["interp"].counters
            compiled = row.engines["compiled"].counters
            spec = row.engines["specialized"].counters
            for field in BENCH_PARITY_FIELDS:
                assert interp[field] == compiled[field], field
                assert interp[field] == spec[field], field
            assert spec == compiled == interp

    def test_phis_agree_across_engines(self):
        # one cost plan: the back-ends charge a destructed phi's write
        # half where the interpreter charges the phi, so parity covers
        # the whole counter snapshot -- under SPEC too, whose versioned
        # loops split more critical edges into landing blocks
        assert "phis" in BENCH_PARITY_FIELDS
        assert set(BENCH_PARITY_FIELDS) == set(
            ExecutionCounters().snapshot())
        for options in (OptimizerOptions(),
                        OptimizerOptions(Scheme.SPEC, CheckKind.INX)):
            for row in small_bench(options=options).programs:
                phis = {name: run.counters["phis"]
                        for name, run in row.engines.items()}
                assert phis["interp"] > 0
                assert len(set(phis.values())) == 1, (row.name, phis)

    def test_wall_clock_recorded_per_engine(self):
        result = small_bench()
        for row in result.programs:
            for run in row.engines.values():
                assert run.seconds > 0.0
                assert len(run.runs) == result.repeats
            assert row.engines["compiled"].translate_seconds > 0.0
            assert row.engines["specialized"].translate_seconds > 0.0
            assert row.engines["interp"].translate_seconds == 0.0

    def test_interp_only_mode(self):
        result = small_bench(count=1, engines=("interp",))
        row = result.programs[0]
        assert set(row.engines) == {"interp"}
        assert row.counts_match and row.output_match
        assert row.speedup == 0.0

    def test_mismatch_is_flagged(self):
        result = small_bench(count=1)
        row = result.programs[0]
        row.engines["compiled"].counters["checks"] += 1
        recomputed = [field for field in BENCH_PARITY_FIELDS
                      if row.engines["interp"].counters.get(field) !=
                      row.engines["compiled"].counters.get(field)]
        assert recomputed == ["checks"]

    def test_specialized_mismatch_is_labeled(self, monkeypatch):
        # a specialized-engine divergence must be distinguishable from
        # a threaded-engine one in the mismatch list
        from repro.benchsuite import runner

        real = runner._time_engine

        def tampered(program, engine, inputs, max_steps, repeats, cache):
            run = real(program, engine, inputs, max_steps, repeats, cache)
            if engine == "specialized":
                run.counters["checks"] += 1
            return run

        monkeypatch.setattr(runner, "_time_engine", tampered)
        result = small_bench(count=1)
        row = result.programs[0]
        assert row.mismatches == ["specialized:checks"]
        assert not row.counts_match
        assert not result.counts_ok()


class TestBenchDocument:
    def test_schema_and_totals(self):
        doc = bench_to_dict(small_bench())
        assert doc["schema"] == BENCH_SCHEMA == "repro.bench.v1"
        assert doc["totals"]["counts_match"] is True
        assert doc["totals"]["interp_seconds"] > 0.0
        assert doc["totals"]["compiled_seconds"] > 0.0
        assert doc["totals"]["specialized_seconds"] > 0.0
        assert doc["totals"]["speedup_specialized"] > 0.0
        assert doc["totals"]["speedup_vs_compiled"] > 0.0
        assert set(doc["engines"]) == {"interp", "compiled",
                                       "specialized"}

    def test_two_engine_document_has_no_specialized_fields(self):
        doc = bench_to_dict(small_bench(count=1,
                                        engines=("interp", "compiled")))
        assert set(doc["engines"]) == {"interp", "compiled"}
        assert "specialized_seconds" not in doc["totals"]
        assert "speedup_specialized" not in doc["programs"][0]

    def test_program_entries_are_complete(self):
        doc = bench_to_dict(small_bench())
        for entry in doc["programs"]:
            assert sorted(entry) == ["counts_match", "engines",
                                     "mismatches", "output_match",
                                     "program", "speedup",
                                     "speedup_specialized",
                                     "speedup_vs_compiled"]
            for engine in entry["engines"].values():
                assert sorted(engine) == ["counters", "runs", "seconds",
                                          "translate_seconds"]
                assert engine["counters"]["instructions"] > 0

    def test_document_is_json_serializable(self):
        json.dumps(bench_to_dict(small_bench()), sort_keys=True)


class TestBenchCli:
    def test_exit_zero_and_artifact(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "BENCH_4.json"
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["bench", "--small", "--repeats", "1",
                         "--programs", "vortex", "bdna",
                         "--out", str(out), "--json"])
        assert code == 0
        doc = json.loads(buffer.getvalue())
        assert doc["schema"] == "repro.bench.v1"
        on_disk = json.loads(out.read_text())
        assert on_disk["totals"]["counts_match"] is True
        assert [p["program"] for p in on_disk["programs"]] == \
            ["vortex", "bdna"]

    def test_unknown_program_is_usage_error(self):
        import pytest

        from repro.cli import main

        with contextlib.redirect_stderr(io.StringIO()), \
                pytest.raises(SystemExit) as info:
            main(["bench", "--programs", "nope", "--out", ""])
        assert info.value.code == 2

    def test_tag_derives_filename_and_refuses_clobber(self, tmp_path,
                                                      monkeypatch):
        import pytest

        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        quiet = (contextlib.redirect_stdout(io.StringIO()),
                 contextlib.redirect_stderr(io.StringIO()))
        with quiet[0], quiet[1]:
            code = main(["bench", "--small", "--repeats", "1",
                         "--programs", "vortex", "--tag", "T",
                         "--engine", "specialized"])
        assert code == 0
        out = tmp_path / "BENCH_T.json"
        assert out.exists()
        doc = json.loads(out.read_text())
        assert set(doc["engines"]) == {"interp", "specialized"}
        assert doc["totals"]["counts_match"] is True
        # a second run must refuse to clobber the artifact ...
        with contextlib.redirect_stderr(io.StringIO()), \
                pytest.raises(SystemExit) as info:
            main(["bench", "--small", "--repeats", "1",
                  "--programs", "vortex", "--tag", "T"])
        assert info.value.code == 2
        # ... unless --force is given
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["bench", "--small", "--repeats", "1",
                         "--programs", "vortex", "--tag", "T", "--force"])
        assert code == 0


class TestTablesEngine:
    def test_tables_text_is_byte_identical_across_engines(self):
        programs = all_programs()[:2]
        interp = run_suite(programs, small=True, jobs=1)
        compiled = run_suite(programs, small=True, jobs=1,
                             engine="compiled")
        assert render_tables_text(interp) == render_tables_text(compiled)

    def test_tables_document_records_engine(self):
        suite = run_suite(all_programs()[:1], small=True, jobs=1,
                          engine="compiled")
        doc = tables_to_dict(suite, True, table2_labels(), TABLE3_LABELS)
        assert doc["engine"] == "compiled"
