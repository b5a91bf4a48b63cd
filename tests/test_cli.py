"""Tests for the ``python -m repro`` command line."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import DESCRIPTIONS, EXPERIMENTS, build_parser, main
from tests.helpers import trace_of, write_jsonl_rows

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestCli:
    def test_every_experiment_is_described(self):
        assert set(EXPERIMENTS) == set(DESCRIPTIONS)

    def test_list_output(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "all" in out

    def test_explicit_list(self, capsys):
        assert main(["list"]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_target_fails(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "regenerated in" in out

    def test_parser_help_mentions_paper(self):
        parser = build_parser()
        assert "ICDCS" in parser.description


class TestRecordReplayCli:
    def test_record_then_replay(self, tmp_path, capsys):
        path = str(tmp_path / "dia.trace")
        assert main(["record", "dia", path]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        assert main(["replay", path]) == 0
        out = capsys.readouterr().out
        assert "completed: True" in out
        assert "offloads: 1" in out

    def test_replay_without_offload(self, tmp_path, capsys):
        path = str(tmp_path / "dia.trace")
        main(["record", "dia", path])
        capsys.readouterr()
        assert main(["replay", path, "--no-offload"]) == 0
        out = capsys.readouterr().out
        assert "offload=off" in out
        assert "offloads: 0" in out

    def test_record_picks_the_format_by_suffix(self, tmp_path, capsys):
        outputs = []
        for name, magic in (("dia.ctrace", b"CTRC"),
                            ("dia.jsonl.gz", b"\x1f\x8b")):
            path = str(tmp_path / name)
            assert main(["record", "dia", path]) == 0
            capsys.readouterr()
            assert Path(path).read_bytes()[:len(magic)] == magic
            assert main(["replay", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert "completed: True" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_record_to_a_missing_directory_is_one_line(self, tmp_path,
                                                       capsys):
        path = str(tmp_path / "no-such-dir" / "dia.jsonl")
        assert main(["record", "dia", path]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_record_unknown_app(self, capsys):
        assert main(["record", "doom", "/tmp/x.trace"]) == 2
        assert "unknown application" in capsys.readouterr().err

    def test_record_usage_error(self, capsys):
        assert main(["record", "dia"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_replay_usage_error(self, capsys):
        assert main(["replay"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_replay_accepts_bundled_app_name(self, capsys):
        assert main(["replay", "dia"]) == 0
        out = capsys.readouterr().out
        assert "'dia'" in out
        assert "completed: True" in out

    def test_replay_unknown_source(self, capsys):
        assert main(["replay", "no-such-thing"]) == 2
        err = capsys.readouterr().err
        assert "neither a trace file nor a bundled app" in err


class TestTraceConvertCli:
    def test_convert_to_columnar_and_back(self, tmp_path, capsys):
        jsonl = str(tmp_path / "dia.trace")
        ctrace = str(tmp_path / "dia.ctrace")
        back = str(tmp_path / "back.trace")
        main(["record", "dia", jsonl])
        capsys.readouterr()
        assert main(["trace", "convert", jsonl, ctrace]) == 0
        assert "to columnar" in capsys.readouterr().out
        assert main(["trace", "convert", ctrace, back]) == 0
        assert "to jsonl" in capsys.readouterr().out
        from repro.emulator import ColumnarTrace

        original = ColumnarTrace.load(jsonl)
        assert len(ColumnarTrace.load(ctrace)) == len(original)
        assert len(ColumnarTrace.load(back)) == len(original)
        # The .ctrace header sorts class traits; the event rows come
        # back byte for byte.
        rows = Path(jsonl).read_text().splitlines()[1:]
        assert Path(back).read_text().splitlines()[1:] == rows

    def test_convert_accepts_bundled_app_name(self, tmp_path, capsys):
        ctrace = str(tmp_path / "dia.ctrace")
        assert main(["trace", "convert", "dia", ctrace]) == 0
        assert "converted" in capsys.readouterr().out

    def test_convert_usage_error(self, capsys):
        assert main(["trace", "convert", "only-one"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_convert_missing_source(self, tmp_path, capsys):
        assert main(["trace", "convert", "no-such-thing",
                     str(tmp_path / "o.ctrace")]) == 2
        assert "neither" in capsys.readouterr().err


class TestShardedReplayCli:
    def test_replay_ctrace_file_with_clients_and_workers(
            self, tmp_path, capsys):
        jsonl = str(tmp_path / "dia.trace")
        ctrace = str(tmp_path / "dia.ctrace")
        main(["record", "dia", jsonl])
        main(["trace", "convert", jsonl, ctrace])
        capsys.readouterr()
        assert main(["replay", ctrace, "--clients", "2",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "across 2 client(s)" in out
        assert "completed: 2/2 clients" in out
        assert "fingerprint:" in out

    def test_sharded_fingerprint_is_worker_invariant(self, capsys):
        assert main(["replay", "dia", "--clients", "2",
                     "--workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(["replay", "dia", "--clients", "2",
                     "--workers", "2"]) == 0
        two = capsys.readouterr().out
        pick = [line for line in one.splitlines() if "fingerprint" in line]
        assert pick == [line for line in two.splitlines()
                        if "fingerprint" in line]

    def test_fleet_run_reports_fairness_and_fingerprint(self, capsys):
        assert main(["fleet", "run", "--clients", "20",
                     "--surrogates", "2"]) == 0
        out = capsys.readouterr().out
        assert "20 client(s)" in out
        assert "2 surrogate(s)" in out
        assert "fairness p99/p50" in out
        assert "fingerprint:" in out
        assert "deduplicated 20 client replays" in out

    def test_fleet_reject_policy_signals_refusals(self, capsys):
        assert main(["fleet", "run", "--clients", "8",
                     "--surrogates", "1", "--admission-cap", "2",
                     "--admission-policy", "reject"]) == 1
        out = capsys.readouterr().out
        assert "rejected: 6" in out

    def test_fleet_fingerprint_is_worker_invariant(self, capsys):
        assert main(["fleet", "run", "--clients", "10", "--surrogates",
                     "2", "--workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(["fleet", "run", "--clients", "10", "--surrogates",
                     "2", "--workers", "4"]) == 0
        two = capsys.readouterr().out
        pick = [line for line in one.splitlines() if "fingerprint" in line]
        assert pick == [line for line in two.splitlines()
                        if "fingerprint" in line]

    def test_fleet_usage_error(self, capsys):
        assert main(["fleet"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_fleet_bad_config_is_a_usage_error(self, capsys):
        assert main(["fleet", "run", "--surrogates", "0"]) == 2
        assert "bad fleet configuration" in capsys.readouterr().err

    def test_converted_ctrace_replays_like_the_bundled_app(
            self, tmp_path, capsys):
        ctrace = str(tmp_path / "dia.ctrace")
        assert main(["trace", "convert", "dia", ctrace]) == 0
        capsys.readouterr()
        assert main(["replay", "dia"]) == 0
        recorded = capsys.readouterr().out
        assert main(["replay", ctrace]) == 0
        assert capsys.readouterr().out == recorded

    def test_replay_format_no_longer_picks_a_loop(self, capsys):
        with pytest.raises(SystemExit):
            main(["replay", "dia", "--format", "ctrace"])
        assert "invalid choice" in capsys.readouterr().err


#: sha256 of dia recorded to JSONL, and of that file converted to
#: ``.ctrace``, each made in a fresh process (oids are unique per
#: process, so only a fresh process reproduces a file byte for byte).
DIA_FILE_DIGESTS = {
    "dia.jsonl":
        "9bbbf6a2e346da9ce528f5276c27f7294d6d78c1a70274149284b017ff734b96",
    "dia.ctrace":
        "7937808177c1ba343c9111254d524722b1772cf034b4f3e724ca16fd60e0152a",
}


class TestFileFormatGoldens:
    def test_recorded_files_match_their_digests(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"),
                          os.environ.get("PYTHONPATH")])))

        def repro(*args):
            subprocess.run([sys.executable, "-m", "repro", *args],
                           cwd=tmp_path, env=env, check=True,
                           capture_output=True)

        repro("record", "dia", "dia.jsonl")
        repro("trace", "convert", "dia.jsonl", "dia.ctrace")
        repro("record", "dia", "direct.ctrace")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
                   .hexdigest() for name in DIA_FILE_DIGESTS}
        assert digests == DIA_FILE_DIGESTS
        assert ((tmp_path / "direct.ctrace").read_bytes()
                == (tmp_path / "dia.ctrace").read_bytes())


class TestMalformedTraceCli:
    ALLOC = ["A", 1, "app.Data", 64, "<main>", None]

    @pytest.mark.parametrize("command", [["replay"], ["fleet", "run"]])
    def test_unknown_event_tag_is_one_line_usage_error(
            self, tmp_path, capsys, command):
        path = write_jsonl_rows(tmp_path / "bad.trace", [self.ALLOC, ["Z", 1]])
        assert main([*command, path]) == 2
        err = capsys.readouterr().err
        assert "unknown trace event tag 'Z'" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["replay"], ["fleet", "run"]])
    def test_negative_oid_is_one_line_usage_error(
            self, tmp_path, capsys, command):
        path = write_jsonl_rows(tmp_path / "neg.trace", [self.ALLOC, ["F", -5]])
        assert main([*command, path]) == 2
        captured = capsys.readouterr()
        assert "non-negative" in captured.err
        assert captured.err.count("\n") == 1
        assert "replayed" not in captured.out

    @pytest.mark.parametrize("row,text", [
        (["F", -5], "non-negative integer oids"),
        (["A", 2, "app.Data", "64", "<main>", None], "cannot store"),
    ])
    @pytest.mark.parametrize("out", ["out.jsonl", "out.ctrace"])
    def test_convert_rejects_what_replay_rejects(
            self, tmp_path, capsys, row, text, out):
        path = write_jsonl_rows(tmp_path / "bad.jsonl", [self.ALLOC, row])
        dst = tmp_path / out
        assert main(["trace", "convert", path, str(dst)]) == 2
        err = capsys.readouterr().err
        assert text in err
        assert "(line 3)" in err
        assert err.count("\n") == 1
        assert not dst.exists()


class TestMalformedValuesCli:
    """A value the replay cannot trust is one stderr line and exit 2,
    whether decoding (bad values) or replaying (a broken object
    lifecycle) finds it."""

    ALLOC = TestMalformedTraceCli.ALLOC

    @pytest.mark.parametrize("rows,text", [
        ([["A", 1, "app.Data", -100, "<main>", None]],
         "column 'n1', event 0: negative size"),
        ([["W", "app.Data", None, -2.5]],
         "column 'f64', event 0: negative or non-finite time"),
        ([["W", "app.Data", None, float("nan")]],
         "column 'f64', event 0: negative or non-finite time"),
        ([ALLOC, ["F", 1], ["F", 1]],
         "event 2: FREE of oid 1, which is not live"),
        ([ALLOC, ALLOC], "event 1: ALLOC of oid 1, which is still live"),
    ])
    @pytest.mark.parametrize("command", [["replay"], ["fleet", "run"]])
    def test_bad_value_is_one_line_usage_error(
            self, tmp_path, capsys, command, rows, text):
        path = write_jsonl_rows(tmp_path / "bad.trace", rows)
        assert main([*command, path]) == 2
        captured = capsys.readouterr()
        assert text in captured.err
        assert captured.err.count("\n") == 1
        assert "replayed" not in captured.out

    def test_out_of_range_class_id_is_one_line_usage_error(
            self, tmp_path, capsys):
        from repro.emulator.columnar import write_ctrace
        from repro.emulator.events import AllocEvent

        columnar = trace_of([AllocEvent(1, "app.Data", 64, "<main>", None)],
                            app_name="tiny")
        columnar.columns["a_cls"][0] = 7
        path = str(tmp_path / "bad.ctrace")
        write_ctrace(columnar, path)
        for command in (["replay", path], ["trace", "convert", path,
                                           str(tmp_path / "out.trace")]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert ("column 'a_cls', event 0: string id outside the "
                    "2-string table (7)") in err
            assert err.count("\n") == 1


class TestFaultInjectionCli:
    def test_lossy_replay_prints_fault_counters(self, capsys):
        assert main(["replay", "dia", "--faults", "seed=7,loss=0.05"]) == 0
        out = capsys.readouterr().out
        assert "faults [seed=7,loss=0.05]" in out
        assert "retries" in out
        assert "completed: True" in out

    def test_crash_replay_reports_recovery(self, capsys):
        assert main(["replay", "dia", "--faults",
                     "seed=7,crash_at_event=4000"]) == 0
        out = capsys.readouterr().out
        assert "surrogate lost (crash)" in out
        assert "repatriated" in out

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        assert main(["replay", "dia", "--faults", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "bad --faults spec" in err

    @pytest.mark.parametrize("flag, text", [
        ("--faults", "seed=1,spike=0.1:nan"),
        ("--faults", "seed=1,partition=nan:5"),
        ("--link-profile", "link=0:x:nan:0.001"),
    ])
    def test_nan_spec_is_a_usage_error(self, capsys, flag, text):
        assert main(["replay", "dia", flag, text]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"bad {flag} spec" in err

    def test_clean_replay_prints_no_fault_line(self, tmp_path, capsys):
        path = str(tmp_path / "dia.trace")
        main(["record", "dia", path])
        capsys.readouterr()
        assert main(["replay", path]) == 0
        assert "faults [" not in capsys.readouterr().out


class TestMobilityCli:
    def test_roaming_replay_prints_mobility_counters(self, capsys):
        assert main(["replay", "dia",
                     "--link-profile", "wavelan-wan-roam"]) == 0
        out = capsys.readouterr().out
        assert "mobility [wavelan-wan-roam]" in out
        assert "link change(s)" in out
        assert "completed: True" in out

    def test_mobility_none_rides_the_decay_out(self, capsys):
        assert main(["replay", "dia",
                     "--link-profile", "wavelan-wan-roam",
                     "--mobility", "none"]) == 0
        out = capsys.readouterr().out
        assert "mobility [wavelan-wan-roam]" in out
        assert "handoff" not in out

    def test_bad_link_profile_spec_is_a_usage_error(self, capsys):
        assert main(["replay", "dia", "--link-profile", "warp=9"]) == 2
        err = capsys.readouterr().err
        assert "bad --link-profile spec" in err

    def test_static_replay_prints_no_mobility_line(self, capsys):
        assert main(["replay", "dia"]) == 0
        assert "mobility [" not in capsys.readouterr().out


class TestJsonExport:
    def test_json_payload_written(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "out.json")
        assert main(["table1", "--json", path]) == 0
        payloads = json.loads((tmp_path / "out.json").read_text())
        assert payloads[0]["experiment"] == "table1"
        assert "Table 1" in payloads[0]["report"]
        assert payloads[0]["elapsed_host_seconds"] >= 0
