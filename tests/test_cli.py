"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.policy == "proactive"
        assert args.region == "EU1"
        assert args.databases == 200

    def test_figures_selection(self):
        args = build_parser().parse_args(["figures", "--which", "fig3", "fig9"])
        assert args.which == ["fig3", "fig9"]

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--which", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7077
        assert args.max_batch_size == 64
        assert not args.once


class TestCommands:
    def test_simulate_prints_kpis(self, capsys):
        code = main(
            [
                "simulate",
                "--databases",
                "40",
                "--eval-days",
                "1",
                "--policy",
                "reactive",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "QoS % (logins served)" in out
        assert "reactive" in out

    def test_observe_top_replays_the_slos(self, capsys):
        code = main(
            ["observe", "--databases", "30", "--eval-days", "1", "--top"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "QoS % (logins served)" in out
        assert "== EU1 proactive observe top ==" in out
        assert "-- alerts: none firing (3 fired / 3 cleared this run) --" in out
        for series in ("slo.qos.logins", "slo.qos.reactive", "slo.cogs.idle_s"):
            assert f"  {series} " in out
        assert "slo.evaluations                              192" in out

    def test_simulate_with_knobs(self, capsys):
        code = main(
            [
                "simulate",
                "--databases",
                "40",
                "--eval-days",
                "1",
                "--confidence",
                "0.5",
                "--window-hours",
                "2",
            ]
        )
        assert code == 0
        assert "proactive" in capsys.readouterr().out

    def test_figures_fig3(self, capsys):
        code = main(["figures", "--which", "fig3", "--databases", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3" in out

    def test_figures_fig9(self, capsys):
        code = main(
            ["figures", "--which", "fig9", "--databases", "40", "--eval-days", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 9" in out

    def test_tune(self, capsys):
        code = main(["tune", "--databases", "40", "--eval-days", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "selected: window" in out

    def test_chaos_sweep_with_monotonic_check(self, capsys):
        code = main(
            [
                "chaos",
                "--databases", "60",
                "--eval-days", "1",
                "--fault-rates", "0.0", "0.3",
                "--check-monotonic",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault rate" in out
        assert "OK: QoS non-increasing" in out

    def test_chaos_plan_file(self, capsys, tmp_path):
        from repro.faults import FaultPlan

        plan_path = tmp_path / "plan.json"
        plan = FaultPlan.uniform(
            ["predictor.exception", "sql.execute"], probability=0.05
        )
        plan_path.write_text(json.dumps(plan.to_dict()))
        code = main(
            [
                "chaos",
                "--databases", "40",
                "--eval-days", "1",
                "--plan", str(plan_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "plan" in out

    def test_chaos_plan_rejects_monotonic_check(self, capsys, tmp_path):
        from repro.faults import FaultPlan

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(FaultPlan.empty().to_dict()))
        code = main(
            [
                "chaos",
                "--databases", "40",
                "--eval-days", "1",
                "--plan", str(plan_path),
                "--check-monotonic",
            ]
        )
        assert code == 2


class TestServe:
    def test_serve_once_round_trip(self, capsys):
        """serve --once: start the gateway in-process, serve a scripted
        request set (predicts, an expired deadline, a resume scan, a
        health probe), and shut down cleanly."""
        import json

        code = main(["serve", "--once", "--databases", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shut down cleanly" in out
        lines = [l for l in out.splitlines() if l.startswith("{")]
        docs = [json.loads(l) for l in lines]
        kinds = [d["type"] for d in docs]
        assert "predict" in kinds
        assert "deadline_expired" in kinds
        assert "resume_scan" in kinds
        assert "health" in kinds

    def test_serve_loadgen(self, capsys):
        code = main(
            [
                "serve",
                "--loadgen", "2",
                "--requests-per-client", "3",
                "--databases", "20",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shut down cleanly" in out
        assert "throughput_rps" in out


def test_digest_command(capsys):
    code = main(["digest", "--databases", "40", "--eval-days", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Proactive breakdown" in out
    assert "provisioned" in out
