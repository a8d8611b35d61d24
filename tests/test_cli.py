"""Tests for the repro-wfasic command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, format_cli_reference, main
from repro.workloads import read_seq_file

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestGenerate:
    def test_named_set(self, tmp_path, capsys):
        out = tmp_path / "set.seq"
        assert main(["generate", str(out), "--set", "100-5%", "-n", "3"]) == 0
        pairs = read_seq_file(out)
        assert len(pairs) == 3
        assert all(len(p.pattern) == 100 for p in pairs)
        assert "wrote 3 pairs" in capsys.readouterr().out

    def test_custom_parameters(self, tmp_path):
        out = tmp_path / "custom.seq"
        assert (
            main(
                [
                    "generate", str(out),
                    "--length", "64", "--error-rate", "0.2", "-n", "5",
                ]
            )
            == 0
        )
        pairs = read_seq_file(out)
        assert len(pairs) == 5
        assert all(len(p.pattern) == 64 for p in pairs)

    def test_set_and_length_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", str(tmp_path / "x.seq"), "--set", "100-5%",
                  "--length", "64"])

    def test_deterministic_with_seed(self, tmp_path):
        a, b = tmp_path / "a.seq", tmp_path / "b.seq"
        main(["generate", str(a), "--length", "50", "--seed", "9"])
        main(["generate", str(b), "--length", "50", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestAlign:
    @pytest.fixture()
    def seq_file(self, tmp_path):
        out = tmp_path / "in.seq"
        main(["generate", str(out), "--set", "100-10%", "-n", "3"])
        return str(out)

    def test_accelerated(self, seq_file, capsys):
        assert main(["align", seq_file]) == 0
        out = capsys.readouterr().out
        assert "3 pairs, 0 failures" in out
        assert "score=" in out

    def test_backtrace_prints_cigars(self, seq_file, capsys):
        assert main(["align", seq_file, "--backtrace"]) == 0
        assert "cigar=" in capsys.readouterr().out

    def test_cpu_engines(self, seq_file, capsys):
        assert main(["align", seq_file, "--engine", "cpu-scalar"]) == 0
        scalar = capsys.readouterr().out
        assert main(["align", seq_file, "--engine", "cpu-vector"]) == 0
        vector = capsys.readouterr().out
        assert "CPU cycles" in scalar and "CPU cycles" in vector

    def test_engines_agree_on_scores(self, seq_file, capsys):
        main(["align", seq_file, "--engine", "accel"])
        accel = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("pair")
        ]
        main(["align", seq_file, "--engine", "cpu-scalar"])
        cpu = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("pair")
        ]
        assert accel == cpu

    def test_quiet(self, seq_file, capsys):
        assert main(["align", seq_file, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "pair 0" not in out
        assert "3 pairs" in out

    def test_multi_aligner_config(self, seq_file, capsys):
        assert main(["align", seq_file, "--aligners", "2",
                     "--parallel-sections", "32"]) == 0
        assert "2x32PS" in capsys.readouterr().out

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.seq"
        empty.write_text("")
        assert main(["align", str(empty)]) == 1

    def test_over_long_read_is_reported_not_raised(self, tmp_path, capsys):
        """A read past the 10,000-base hardware limit is answered as
        unsupported; the rest of the file is still aligned."""
        path = tmp_path / "long.seq"
        path.write_text(">ACGTACGT\n<ACGAACGT\n>" + "A" * 10_001 + "\n<ACGT\n")
        assert main(["align", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pair 1: score=0  [UNSUPPORTED/FAILED]" in out
        assert "2 pairs, 1 failures" in out


class TestBatch:
    @pytest.fixture()
    def seq_file(self, tmp_path):
        out = tmp_path / "batch.seq"
        main(["generate", str(out), "--set", "100-10%", "-n", "6"])
        return str(out)

    def test_tsv_output(self, seq_file, capsys):
        assert main(["batch", seq_file, "--backend", "batched"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and "=" not in l]
        assert lines[0] == "pair_id\tscore\tsuccess\tcigar"
        assert len(lines) == 7  # header + 6 pairs
        assert "pairs/s" in out and "cache_hit_rate" in out

    def test_reads_input_through_module_global(self, seq_file, monkeypatch):
        # The benchmark harness times input parsing by wrapping
        # ``repro.cli.read_pairs_file``; ``batch`` must look it up there.
        import repro.cli

        calls = []
        original = repro.cli.read_pairs_file

        def recording(path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(repro.cli, "read_pairs_file", recording)
        assert main(["batch", seq_file]) == 0
        assert calls == [seq_file]

    def test_json_output(self, seq_file, capsys):
        assert main(["batch", seq_file, "--format", "json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[: out.rindex("}") + 1])
        assert doc["summary"]["num_pairs"] == 6
        assert len(doc["results"]) == 6
        assert all(r["success"] for r in doc["results"])

    def test_backtrace_emits_cigars(self, seq_file, capsys):
        assert main(["batch", seq_file, "--backtrace"]) == 0
        rows = [
            l.split("\t") for l in capsys.readouterr().out.splitlines()
            if l and l[0].isdigit()
        ]
        assert rows and all(r[3] not in (".", "") for r in rows)

    def test_parallel_workers_match_serial(self, seq_file, capsys):
        main(["batch", seq_file, "-j", "1"])
        serial = [
            l for l in capsys.readouterr().out.splitlines()
            if l and l[0].isdigit()
        ]
        main(["batch", seq_file, "-j", "2", "--chunk-size", "2"])
        parallel = [
            l for l in capsys.readouterr().out.splitlines()
            if l and l[0].isdigit()
        ]
        assert serial == parallel

    def test_generated_workload_and_output_file(self, tmp_path, capsys):
        out = tmp_path / "results.tsv"
        assert main([
            "batch", "--generate", "64", "-n", "8", "--seed", "3",
            "--backend", "swg", "-o", str(out),
        ]) == 0
        assert "pairs/s" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 9

    def test_custom_penalties(self, capsys):
        # An all-mismatch pair re-scored under x=1: score 4, not 16.
        assert main([
            "batch", "--generate", "4", "-n", "1", "--error-rate", "0",
            "--penalties", "1,0,1", "--backend", "swg",
        ]) == 0

    def test_requires_input_or_generate(self, capsys):
        assert main(["batch"]) == 2
        assert "needs an input" in capsys.readouterr().err

    def test_rejects_both_input_and_generate(self, tmp_path, capsys):
        f = tmp_path / "x.seq"
        f.write_text(">A\n<A\n")
        assert main(["batch", str(f), "--generate", "10"]) == 2

    def test_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.seq"
        empty.write_text("")
        assert main(["batch", str(empty)]) == 1

    def test_invalid_worker_count(self, seq_file, capsys):
        assert main(["batch", seq_file, "-j", "0"]) == 2
        assert "invalid engine configuration" in capsys.readouterr().err

    def test_bad_penalties_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "--generate", "8", "--penalties", "nope"])


class TestReport:
    def test_asic(self, capsys):
        assert main(["report", "--what", "asic"]) == 0
        out = capsys.readouterr().out
        assert "memory macros" in out and "260" in out

    def test_fpga(self, capsys):
        assert main(["report", "--what", "fpga"]) == 0
        out = capsys.readouterr().out
        assert "fits U280" in out and "True" in out

    def test_custom_kmax(self, capsys):
        assert main(["report", "--what", "asic", "--k-max", "100"]) == 0
        assert "204" in capsys.readouterr().out  # Eq. 6: 100*2+4


class TestVerify:
    def test_clean_campaign(self, capsys):
        assert main(["verify", "-n", "6", "--max-len", "40"]) == 0
        assert "all engines agree" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCliReference:
    """The README's generated CLI section stays in sync with the parser."""

    def test_reference_covers_every_subcommand(self):
        text = format_cli_reference()
        for command in ("generate", "align", "batch", "serve", "submit",
                        "fleet", "metrics", "report", "stats", "verify"):
            assert f"#### `{command}`" in text, command

    def test_readme_section_matches_parser(self):
        readme = (REPO_ROOT / "README.md").read_text()
        import tools.sync_readme as sync

        begin, end = readme.index(sync.BEGIN), readme.index(sync.END)
        embedded = readme[begin + len(sync.BEGIN):end].strip()
        assert embedded == format_cli_reference().strip(), (
            "README CLI reference is stale; run "
            "`PYTHONPATH=src python tools/sync_readme.py`"
        )

    def test_render_readme_is_idempotent(self):
        import tools.sync_readme as sync

        readme = (REPO_ROOT / "README.md").read_text()
        assert sync.render_readme(readme) == readme


class TestFleetCli:
    """The `fleet` subcommand: plan inversion and the DSE sweep."""

    def test_plan_feasible_meets_target_within_budgets(self, tmp_path, capsys):
        """The ISSUE's acceptance criterion, end to end: the returned
        plan's *simulated* fleet meets the rate inside both budgets."""
        out = tmp_path / "plan.json"
        rc = main([
            "fleet", "plan", "--pairs-per-sec", "1000000",
            "--area", "100", "--power", "10",
            "-n", "16", "-o", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "fleet_plan" and doc["feasible"]
        assert doc["simulated_pairs_per_second"] >= 1_000_000
        assert doc["fleet"]["total_soc_area_mm2"] <= 100
        assert doc["fleet"]["total_power_w"] <= 10
        assert doc["chips"] >= 1 and doc["config"] is not None
        summary = capsys.readouterr().out
        assert "plan:" in summary and "simulated" in summary

    def test_plan_infeasible_exits_one(self, capsys):
        rc = main([
            "fleet", "plan", "--pairs-per-sec", "1e12",
            "--area", "4", "--power", "1", "-n", "8", "--max-chips", "2",
        ])
        assert rc == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_plan_requires_rate(self, capsys):
        assert main(["fleet", "plan"]) == 2
        assert "--pairs-per-sec" in capsys.readouterr().err

    def test_plan_writes_per_chip_trace(self, tmp_path, capsys):
        trace = tmp_path / "fleet.json"
        rc = main([
            "fleet", "plan", "--pairs-per-sec", "2000000",
            "-n", "16", "--trace", str(trace),
        ])
        assert rc == 0
        events = json.loads(trace.read_text())["traceEvents"]
        chip_lanes = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "thread_name" and e.get("pid") == 2
            and e["args"]["name"].startswith("chip ")
        }
        assert any(lane.startswith("chip 0 ·") for lane in chip_lanes)

    def test_sweep_artifact_validates_and_prints_frontier(
        self, tmp_path, capsys
    ):
        from repro.fleet import validate_fleet_sweep

        out = tmp_path / "sweep.json"
        rc = main([
            "fleet", "sweep", "--sections", "16", "32", "--k-max", "512",
            "--chips", "1", "2", "-n", "8", "--batch-pairs", "2",
            "-o", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        validate_fleet_sweep(doc)
        assert len(doc["points"]) == 4
        assert "Pareto frontier" in capsys.readouterr().out

    def test_sweep_rejects_bad_grid(self, capsys):
        rc = main(["fleet", "sweep", "--sections", "0"])
        assert rc == 2
        assert "invalid sweep request" in capsys.readouterr().err


class TestStats:
    def test_summary_and_preflight(self, tmp_path, capsys):
        out = tmp_path / "s.seq"
        main(["generate", str(out), "--set", "100-10%", "-n", "4"])
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        text = capsys.readouterr().out
        assert "4 pairs" in text
        assert "SUPPORTED" in text

    def test_at_risk_with_tiny_kmax(self, tmp_path, capsys):
        out = tmp_path / "s.seq"
        main(["generate", str(out), "--set", "100-10%", "-n", "3"])
        capsys.readouterr()
        assert main(["stats", str(out), "--k-max", "8"]) == 0
        assert "AT RISK" in capsys.readouterr().out

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "e.seq"
        empty.write_text("")
        assert main(["stats", str(empty)]) == 1


class TestBatchErrorChannel:
    """CLI surface of the engine's fault-isolation contract."""

    POISON = "GATTACAGATTACAGA"

    @pytest.fixture()
    def crashy_backend(self):
        from repro.engine import AlignmentBackend, register_backend
        from repro.engine.backends import _BACKENDS, PairOutcome

        poison = self.POISON

        class Crashy(AlignmentBackend):
            name = "crashy"

            def align_chunk(self, items, penalties, backtrace, band_width=None):
                out = []
                for slot, a, b in items:
                    if a == poison:
                        raise RuntimeError("injected CLI fault")
                    out.append(PairOutcome(slot, score=0))
                return out, None

        register_backend(Crashy(), replace=True)
        yield
        _BACKENDS.pop("crashy", None)

    @pytest.fixture()
    def mixed_file(self, tmp_path):
        out = tmp_path / "mixed.seq"
        out.write_text(
            f">ACGT\n<ACGT\n>{self.POISON}\n<{self.POISON}\n>AACC\n<AACC\n"
        )
        return str(out)

    def test_errored_pairs_exit_nonzero(self, crashy_backend, mixed_file,
                                        capsys):
        assert main(["batch", mixed_file, "--backend", "crashy",
                     "--format", "json", "-j", "1"]) == 1
        out = capsys.readouterr().out
        doc = json.loads(out[: out.rindex("}") + 1])
        assert doc["summary"]["errors"] == 1
        rows = doc["results"]
        assert [r["ok"] for r in rows] == [True, False, True]
        assert rows[1]["error_kind"] == "backend_error"
        assert "injected CLI fault" in rows[1]["error_msg"]
        assert rows[1]["success"] is False

    def test_strict_fails_whole_batch(self, tmp_path, capsys):
        bad = tmp_path / "n.seq"
        # 'N' pairs are unsupported reads (a hardware answer), never an
        # error: even --strict serves them with success=False, exit 0.
        bad.write_text(">ACGN\n<ACGT\n")
        assert main(["batch", str(bad), "--strict"]) == 0
        capsys.readouterr()

    def test_n_pairs_rejected_but_exit_zero(self, tmp_path, capsys):
        seq = tmp_path / "n.seq"
        seq.write_text(">ACGN\n<ACGT\n>ACGT\n<ACGT\n")
        assert main(["batch", str(seq), "--format", "json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[: out.rindex("}") + 1])
        assert doc["summary"]["rejected"] == 1
        assert doc["summary"]["errors"] == 0
        n_row = doc["results"][0]
        assert n_row["ok"] is True
        assert n_row["success"] is False
        assert n_row["error_kind"] == "unsupported_read"

    def test_timeout_and_retry_flags(self, tmp_path, capsys):
        seq = tmp_path / "t.seq"
        seq.write_text(">ACGT\n<ACGT\n")
        assert main(["batch", str(seq), "--timeout", "0",
                     "--retries", "0"]) == 0
        assert "errors=0 rejected=0 retries=0" in capsys.readouterr().out


class TestBatchBandingAndStreaming:
    @pytest.fixture()
    def seq_file(self, tmp_path):
        out = tmp_path / "band.seq"
        main(["generate", str(out), "--set", "100-10%", "-n", "6"])
        return str(out)

    @staticmethod
    def _rows(capsys):
        return [
            l.split("\t") for l in capsys.readouterr().out.splitlines()
            if l and l[0].isdigit()
        ]

    def test_wide_band_matches_exact_scores(self, seq_file, capsys):
        assert main(["batch", seq_file, "--backend", "batched"]) == 0
        exact = self._rows(capsys)
        assert main([
            "batch", seq_file, "--backend", "batched", "--band", "1000",
        ]) == 0
        assert self._rows(capsys) == exact

    def test_band_rejected_for_incapable_backend(self, seq_file, capsys):
        assert main([
            "batch", seq_file, "--backend", "swg", "--band", "8",
        ]) == 2
        assert "band" in capsys.readouterr().err

    def test_long_read_requires_generate(self, seq_file, capsys):
        assert main(["batch", seq_file, "--long-read"]) == 2
        assert "--generate" in capsys.readouterr().err

    def test_long_read_length_validated(self, capsys):
        assert main([
            "batch", "--generate", "100", "-n", "1", "--long-read",
        ]) == 2
        assert "invalid workload" in capsys.readouterr().err

    def test_long_read_banded_run(self, capsys):
        assert main([
            "batch", "--generate", "10000", "-n", "1", "--long-read",
            "--seed", "5", "--backend", "batched", "--band", "128",
            "--format", "json",
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[: out.rindex("}") + 1])
        assert doc["summary"]["num_pairs"] == 1
        assert doc["results"][0]["success"]

    def test_stream_chunk_matches_single_batch(self, seq_file, capsys):
        assert main(["batch", seq_file, "--backend", "batched"]) == 0
        single = self._rows(capsys)
        assert main([
            "batch", seq_file, "--backend", "batched", "--stream-chunk", "2",
        ]) == 0
        assert self._rows(capsys) == single

    def test_stream_chunk_json_summary_merged(self, seq_file, capsys):
        assert main([
            "batch", seq_file, "--stream-chunk", "4", "--format", "json",
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[: out.rindex("}") + 1])
        assert doc["summary"]["num_pairs"] == 6
        assert len(doc["results"]) == 6

    def test_stream_chunk_requires_file_input(self, capsys):
        assert main([
            "batch", "--generate", "64", "-n", "2", "--stream-chunk", "2",
        ]) == 2
        assert "file input" in capsys.readouterr().err

    def test_stream_chunk_rejects_metrics(self, seq_file, tmp_path, capsys):
        assert main([
            "batch", seq_file, "--stream-chunk", "2",
            "--metrics", str(tmp_path / "m.json"),
        ]) == 2
        assert "incompatible" in capsys.readouterr().err

    def test_stream_chunk_must_be_positive(self, seq_file, capsys):
        assert main(["batch", seq_file, "--stream-chunk", "0"]) == 2

    def test_fasta_input_autodetected(self, seq_file, tmp_path, capsys):
        assert main(["batch", seq_file]) == 0
        expected = self._rows(capsys)
        pairs = read_seq_file(seq_file)
        fasta = tmp_path / "band.fasta"
        fasta.write_text(
            "".join(
                f">p{p.pair_id}/pat\n{p.pattern}\n>p{p.pair_id}/txt\n{p.text}\n"
                for p in pairs
            ),
            encoding="ascii",
        )
        assert main(["batch", str(fasta)]) == 0
        assert self._rows(capsys) == expected
