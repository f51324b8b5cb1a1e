"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestExtract:
    def test_bus_summary(self, capsys):
        assert main(["extract", "--bus", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 filaments" in out
        assert "nH" in out

    def test_spiral_summary(self, capsys):
        assert main(["extract", "--spiral", "2", "--spiral-segments", "20"]) == 0
        out = capsys.readouterr().out
        assert "20 filaments" in out

    def test_geometry_required(self):
        with pytest.raises(SystemExit):
            main(["extract"])


class TestNetlist:
    def test_stdout_netlist(self, capsys):
        assert main(["netlist", "--bus", "3", "--model", "peec"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("* peec:")
        assert ".end" in out

    def test_vpec_netlist_has_magnetic_circuit(self, capsys):
        assert main(["netlist", "--bus", "3", "--model", "full"]) == 0
        out = capsys.readouterr().out
        assert "Rc0_1" in out  # coupling resistance
        assert "Ev0" in out  # controlled source

    def test_gw_without_window_is_a_usage_error(self, capsys):
        code = main(["netlist", "--bus", "4", "--model", "gw"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "bus.sp"
        assert (
            main(
                [
                    "netlist",
                    "--bus",
                    "3",
                    "--model",
                    "gw",
                    "--window",
                    "2",
                    "-o",
                    str(target),
                ]
            )
            == 0
        )
        assert target.exists()
        assert "bytes" in capsys.readouterr().out

    def test_sparsified_models(self, capsys):
        assert main(
            ["netlist", "--bus", "4", "--model", "nt", "--threshold", "0.01"]
        ) == 0
        assert main(
            ["netlist", "--bus", "4", "--model", "gt", "--nw", "2", "--nl", "1"]
        ) == 0


class TestCrosstalk:
    def test_pass_case(self, capsys):
        code = main(
            [
                "crosstalk",
                "--bus",
                "4",
                "--model",
                "full",
                "--t-stop",
                "150",
                "--limit",
                "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "noise peak" in out

    def test_csv_export(self, tmp_path, capsys):
        target = tmp_path / "waves.csv"
        code = main(
            [
                "crosstalk",
                "--bus",
                "4",
                "--t-stop",
                "100",
                "--limit",
                "0.5",
                "--csv",
                str(target),
            ]
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("t,victim")
        assert len(text.splitlines()) > 50

    def test_fail_case_exit_code(self, capsys):
        code = main(
            [
                "crosstalk",
                "--bus",
                "4",
                "--t-stop",
                "150",
                "--limit",
                "0.001",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestNoise:
    def test_screen_only_pass(self, capsys):
        code = main(["noise", "--bus", "8", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "model: gwVPEC(b=8)" in out
        assert "0/8 escalated" in out
        assert "PASS" in out

    def test_escalation_verify_and_json(self, tmp_path, capsys):
        target = tmp_path / "noise.json"
        code = main(
            [
                "noise",
                "--bus",
                "16",
                "--no-cache",
                "--limit",
                "0.2",
                "--verify",
                "--json",
                str(target),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert " sim " in out  # at least one victim escalated
        assert "verify: max relative peak deviation" in out
        document = json.loads(target.read_text())
        assert document["num_victims"] == 16
        assert document["num_escalated"] > 0
        assert any(
            v["verify_deviation"] is not None for v in document["victims"]
        )

    def test_fail_exit_code(self, capsys):
        code = main(
            ["noise", "--bus", "8", "--no-cache", "--limit", "0.05"]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_noise_suite_json(self, tmp_path, capsys):
        target = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--suite",
                "noise",
                "--kernel",
                "noise_screen_bus256",
                "--size",
                "16",
                "--repeats",
                "1",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        document = json.loads(target.read_text())
        assert document["entries"][0]["kernel"] == "noise_screen_bus256"
        assert document["entries"][0]["size"] == 16


class TestNoiseSweep:
    def test_missing_geometry_on_plain_noise_exits_2(self, capsys):
        code = main(["noise", "--no-cache"])
        assert code == 2
        assert "geometry" in capsys.readouterr().err

    def test_sweep_table_and_json(self, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        code = main(
            [
                "noise",
                "sweep",
                "--widths",
                "8",
                "--spacings",
                "1.0",
                "2.0",
                "--drivers",
                "50",
                "100",
                "--limit",
                "0.12",
                "--no-cache",
                "--json",
                str(target),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # the tight threshold fails some scenarios
        assert "sweep: 4 scenarios" in out
        assert "bus8_w1000n_s2000n_r100_d1" in out
        assert "escalation-rate histogram" in out
        assert "FAIL: scenarios with failing victims" in out
        document = json.loads(target.read_text())
        assert document["num_scenarios"] == 4
        assert "bus" in document["family_quantiles"]
        assert len(document["conservatism_histogram"]["counts"]) == 7

    def test_sweep_pass_exit_code(self, capsys):
        code = main(
            ["noise", "sweep", "--widths", "6", "--no-cache"]
        )
        assert code == 0
        assert "PASS: no failing victims" in capsys.readouterr().out

    def test_sweep_segments_axis(self, capsys):
        code = main(
            [
                "noise",
                "sweep",
                "--widths",
                "6",
                "--grid-segments",
                "1",
                "2",
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 segment counts" in out
        assert "bus6_w1000n_s2000n_r50_d1_g2" in out

    def test_calibrate_families(self, capsys):
        code = main(
            [
                "noise",
                "calibrate",
                "--families",
                "bus",
                "--size",
                "8",
                "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bus: envelope reach 7" in out
        assert "min margin" in out
        assert "PASS" in out

    def test_bench_noise_sweep_dispatch(self, tmp_path, capsys):
        target = tmp_path / "bench_sweep.json"
        code = main(
            [
                "bench",
                "--suite",
                "noise_sweep",
                "--sweep-segments",
                "2",
                "--sweep-densities",
                "2",
                "--repeats",
                "1",
                "--json",
                str(target),
                "--trajectory",
                str(tmp_path / "traj.json"),
            ]
        )
        assert code == 0
        document = json.loads(target.read_text())
        by_variant = {e["variant"]: e for e in document["entries"]}
        assert by_variant["sequential"]["kernel"] == "noise_sweep_family"
        assert by_variant["batched"]["size"] == 2
        # The suite raises unless both arms agree, so both entries
        # carry a checksum of the same decisions.
        assert (
            by_variant["sequential"]["checksum"]
            == by_variant["batched"]["checksum"]
        )


class TestServiceCli:
    def test_bench_service_suite_json(self, tmp_path, capsys):
        target = tmp_path / "bench_service.json"
        code = main(
            [
                "bench",
                "--suite",
                "service",
                "--requests",
                "8",
                "--concurrency",
                "4",
                "--jobs",
                "1",
                "--json",
                str(target),
            ]
        )
        assert code == 0
        document = json.loads(target.read_text())
        by_variant = {
            (entry["kernel"], entry["variant"]): entry
            for entry in document["entries"]
        }
        load = by_variant[("service_mixed_load", "p99")]
        equiv = by_variant[("service_oneshot_equiv", "direct")]
        assert load["size"] == 8
        # The load digest must equal the one-shot digest -- the suite
        # itself enforces service/CLI equivalence before returning.
        assert load["checksum"] == equiv["checksum"]

    def test_serve_parser_accepts_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--jobs", "2", "--port", "7000", "--job-timeout", "10"]
        )
        assert args.jobs == 2 and args.port == 7000
        assert args.job_timeout == 10.0


class TestAudit:
    def test_full_vpec_passes(self, capsys):
        assert main(["audit", "--bus", "4", "--model", "full"]) == 0
        out = capsys.readouterr().out
        assert "passive=True" in out
        assert "PASS" in out

    def test_truncated_passes(self, capsys):
        assert (
            main(
                [
                    "audit",
                    "--bus",
                    "8",
                    "--model",
                    "nt",
                    "--threshold",
                    "0.01",
                ]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_spiral_windowed(self, capsys):
        code = main(
            [
                "audit",
                "--spiral",
                "2",
                "--spiral-segments",
                "20",
                "--model",
                "nw",
                "--threshold",
                "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("direction group") == 2

    def test_health_strict_signs_json(self, tmp_path, capsys):
        target = tmp_path / "health.json"
        code = main(
            [
                "audit",
                "--bus",
                "4",
                "--model",
                "full",
                "--no-cache",
                "--health",
                "--strict-signs",
                "--health-json",
                str(target),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        document = json.loads(target.read_text())
        assert document["ok"] is True
        assert any(r["certificate"] for r in document["reports"])

    def test_health_spiral_without_strict_signs(self, capsys):
        # A spiral's exact inverse carries positive coupling resistances,
        # so the default health pass (no Lemma-1 sign check) must accept it.
        code = main(
            [
                "audit",
                "--spiral",
                "2",
                "--spiral-segments",
                "20",
                "--model",
                "full",
                "--no-cache",
                "--health",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
